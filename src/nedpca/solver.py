"""Finite-state reference: sparse transition matrix, stationary solve, audits.

Everything here enumerates the full state space 2**n, so it only scales to
small rings, but it makes no appeal to any closed form: the stationary vector
comes out of a GTH state reduction, lumped onto rotation orbits by a symmetry
of the transition law alone. That is what lets the analytic evaluators
elsewhere in the package be checked against an independent computation. The
reduction censors orbits in panels whose width grows with the orbit count:
each orbit's elimination touches only a small work block, and each panel
reaches the rest of the lumped matrix in three matrix products.

P is stored as ascending keys a * 2**n + b: row a holds the 2**popcount(v)
submasks b of its vacancy mask v, and nothing is ever 4**n wide. Every check
reads the one TransitionMatrix its caller built in flat runs of _BLOCK stored
entries (in storage order, or the audit's column-major ranks), in cache. A
float request is sized in bytes before anything is allocated: the stored
entries, the lumped matrix and the audit's order must fit BYTE_BUDGET, and
the part that depends on n alone is checked before any per-state array.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, SolveFailed
from .model import Configuration, ModelParams, StationaryTable, ror, transition_prob, window_masks

__all__ = [
    "BYTE_BUDGET",
    "RATIONAL_CAP",
    "TransitionMatrix",
    "BalanceAudit",
    "build_matrix",
    "solve_stationary",
    "check_irreducible_aperiodic",
    "balance_residual",
    "audit_detailed_balance",
    "transition_edges",
    "one_directional_pair",
]

# Bytes a report may need, by _shares: n = 16 fits at m >= 3 (0.49 GB at
# m = 3), and (16, 2), whose 43M stored entries alone take 0.69 GB, does not.
BYTE_BUDGET = 1 << 30
# Exact mode pays for Fraction products, the solve and the residual: ~0.3-0.7 s per report at n = 9.
RATIONAL_CAP = 9
_BLOCK = 1 << 17  # stored entries per build block, and per run of each pass over them
_RUN_BYTES = 128 * _BLOCK  # one run's temporaries: up to sixteen arrays of 8-byte items
_RESCALE = 1e100  # the back-substitution rescales mu once an orbit's mass exceeds this
_TIE_ULPS = 16  # audit gaps this many ulps of the larger product below the maximum tie with it


# ---- Types ----


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """One-step matrix P as its stored entries in row-major order.

    P[a -> b] = vals[j] where keys[j] = a * 2**n + b; the int64 keys strictly
    ascend, and every entry not stored is zero. The values are float64, or
    Python Fractions in an object array when the parameters are exact.
    """

    params: ModelParams
    keys: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, params: ModelParams, entries: np.ndarray) -> TransitionMatrix:
        """The nonzeros of a dense array entries[a, b] = P[a -> b]."""
        keys = np.flatnonzero(entries)
        return cls(params, keys, entries.flat[keys])

    @property
    def exact(self) -> bool:
        return self.params.exact

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only dense view, entries[a, b] = P[a -> b], made on first use."""
        ns = self.params.n_states
        zero = Fraction(0) if self.vals.dtype == object else 0.0
        dense = np.full((ns, ns), zero, dtype=self.vals.dtype)
        dense.flat[self.keys] = self.vals
        dense.flags.writeable = False
        return dense


@dataclass(frozen=True)
class BalanceAudit:
    """Worst detailed-balance violation and the pair achieving it."""

    max_violation: float
    witness: tuple[Configuration, Configuration]


# ---- Matrix construction ----


def _shares(n: int, stored: int) -> tuple[int, int, int]:
    """Bytes the build, the solve and the audit of a float report may allocate: the
    stored entries at 16 bytes each, Q and one panel-product temporary at 8 k**2 each
    (k rotation orbits), the audit's column-major order at 10 bytes per entry (with
    its uint16 sort key), each stage's per-state arrays, and one run's temporaries."""
    # rotation orbits, by Burnside's lemma, summed over the distinct gcd(t, n)
    k = sum(c << g for g, c in Counter(math.gcd(t, n) for t in range(n)).items()) // n
    per_state, run = (16 * n + 64) << n, _RUN_BYTES
    return 16 * stored + per_state + run, 16 * k * k + per_state + run, 10 * stored + run


def build_matrix(params: ModelParams) -> TransitionMatrix:
    """Every row P[a -> .], as a product of independent site factors.

    Row a's support is the submasks of its vacancy mask open | blocked; a
    forced site becomes 0 with probability 1. For a block of rows
    with c vacancies each, bit t of a column's index j in 0..2**c-1 is the
    new value at the row's t-th vacancy: once bits 0..t-1 are placed, columns
    0..2**t-1 hold the partial products, and bit t copies them times its fill
    factor into 2**t..2**(t+1)-1, then scales them by its stay factor. The
    products run over the vacancies in ascending site order, so each is the
    dense site-by-site product without its exact factors of 1.

    Raises:
        BudgetExceeded: when n exceeds RATIONAL_CAP for exact fractions, or
            when the stored entries, the solve and the audit, by _shares, would
            take more than BYTE_BUDGET bytes; checked before any per-state
            array is allocated (which refuses every n >= 17), and again from
            the stored count before keys and vals are.
    """
    if params.exact and params.n > RATIONAL_CAP:
        raise BudgetExceeded(f"n={params.n} exceeds the rational cap {RATIONAL_CAP}")
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2 = params.p1, params.p2
    stay, fill = np.array([1 - p1, p2], dtype=dtype), np.array([p1, 1 - p2], dtype=dtype)
    least = sum(_shares(params.n, 0))  # every share but the stored entries' depends on n alone
    if least > BYTE_BUDGET:
        quoted = least if least < 1 << 64 else f"2**{least.bit_length() - 1}"  # from n = 36, in powers of 2
        raise BudgetExceeded(
            f"n={params.n}, m={params.m} needs at least {quoted} bytes"
            f" before any stored entry, over the budget {BYTE_BUDGET}"
        )
    ns = params.n_states
    open_mask, blocked_mask = window_masks(np.arange(ns, dtype=np.int64), params)
    vacant = ((open_mask | blocked_mask)[:, None] >> np.arange(params.n)) & 1
    count = vacant.sum(axis=1)
    offset = np.zeros(ns + 1, dtype=np.int64)  # each row's first stored entry, and the total
    np.cumsum(1 << count, out=offset[1:])
    shares = _shares(params.n, int(offset[-1]))
    if sum(shares) > BYTE_BUDGET:
        raise BudgetExceeded(
            f"n={params.n}, m={params.m} needs about {sum(shares)} bytes, over the budget {BYTE_BUDGET}:"
            f" build {shares[0]} ({offset[-1]} stored entries), solve {shares[1]}, audit {shares[2]}"
        )
    keys, vals = np.empty(offset[-1], dtype=np.int64), np.empty(offset[-1], dtype=dtype)
    for c in range(params.n + 1):
        group = np.flatnonzero(count == c)
        step = max(1, _BLOCK >> c)  # rows per (rows, 2**c) block
        for start in range(0, len(group), step):
            rows = group[start : start + step]
            site = np.nonzero(vacant[rows])[1].reshape(len(rows), c)  # ascending
            blocked = (blocked_mask[rows, None] >> site) & 1
            bit, s, f = 1 << site, stay[blocked], fill[blocked]
            key = np.full((len(rows), 1 << c), rows[:, None] << params.n)  # column 0 holds a << n
            val = np.full((len(rows), 1 << c), one, dtype=dtype)  # and the empty product 1
            for t in range(c):
                low, high = slice(0, 1 << t), slice(1 << t, 2 << t)
                np.bitwise_or(key[:, low], bit[:, t, None], out=key[:, high])
                np.multiply(val[:, low], f[:, t, None], out=val[:, high])
                val[:, low] *= s[:, t, None]
            at = offset[rows, None] + np.arange(1 << c)
            keys[at], vals[at] = key, val
    return TransitionMatrix(params, keys, vals)


# ---- Stationary solve ----


def _width(q: np.ndarray) -> int:
    # Fractions pay per operation, so they take one panel; float panels widen with k,
    # so that the products run at BLAS speed: 16 orbits at k <= 543, 128 at k = 4116
    return len(q) if q.dtype == object else max(16, len(q) >> 5)


def _reduce(q: np.ndarray) -> np.ndarray:
    # GTH state reduction (Grassmann, Taksar & Heyman 1985) of the stochastic q, in
    # place: orbits k-1..1 are censored in panels B = lo..hi-1 of b = _width(q), and
    # orbit c's outflow s[c] to orbits 0..c-1 is kept for the back-substitution, which
    # reads q[:c, c]. While lo > b, a panel is eliminated inside the work block w:
    #   w[b:, b+1:] is Q_BB, w[b:, b] the sums of Q_BA's rows, and the proxies
    #   w[b:, :b] (L) and w[:b, b+1:] (U) start as identities and take the rank-1
    #   updates that Q_BA's rows and Q_AB's columns would,
    # so Q_BA becomes L @ Q_BA and Q_AB becomes Q_AB @ U, and Q_AA takes the Schur
    # product. Once lo <= b, the rest is reduced on q[:hi, :hi] itself. Nothing is
    # subtracted, so each entry keeps a small relative error (O'Cinneide 1993).
    k, b = len(q), _width(q)
    s = np.ones(k, dtype=q.dtype)
    hi = k
    while hi > 2 * b:
        lo = hi - b
        w = np.zeros((2 * b, 2 * b + 1), dtype=q.dtype)
        w[:b, b + 1 :] = w[b:, :b] = np.identity(b, dtype=q.dtype)
        w[b:, b] = q[lo:hi, :lo].sum(axis=1)
        w[b:, b + 1 :] = q[lo:hi, lo:hi]
        for t in range(b - 1, -1, -1):
            row = w[b + t, : b + 1 + t]
            s[lo + t] = row[b:].sum()
            _check_outflow(s, lo + t)
            w[: b + t, : b + 1 + t] += w[: b + t, b + 1 + t, None] * (row / s[lo + t])
        q[lo:hi, lo:hi] = w[b:, b + 1 :]
        q[lo:hi, :lo] = w[b:, :b] @ q[lo:hi, :lo]
        q[:lo, lo:hi] = q[:lo, lo:hi] @ w[:b, b + 1 :]
        q[:lo, :lo] += q[:lo, lo:hi] @ (q[lo:hi, :lo] / s[lo:hi, None])
        hi = lo
    for c in range(hi - 1, 0, -1):
        s[c] = q[c, :c].sum()
        _check_outflow(s, c)
        q[:c, :c] += q[:c, c, None] * (q[c, :c] / s[c])
    mu = np.ones(k, dtype=q.dtype)  # from mu_0 = 1, rescaled so that no mass overflows
    for c in range(1, k):
        mu[c] = mu[:c] @ q[:c, c] / s[c]
        if mu[c] > _RESCALE:
            mu[: c + 1] /= mu[c]
    return mu / mu.sum()


def _check_outflow(s: np.ndarray, c: int) -> None:
    if s[c] == 0:
        raise SolveFailed(f"lumped chain is reducible: orbit {c} never reaches orbits 0..{c - 1}")


def solve_stationary(matrix: TransitionMatrix) -> StationaryTable:
    """Unique left fixed probability vector of the chain, by direct solve.

    P must commute with rotating the ring, as every build_matrix result does;
    the chain then lumps exactly onto rotation orbits A (Kemeny & Snell 1960,
    sec. 6.3), with Q[A, B] = sum over b in B of P[a, b] for any a in A,
    scattered straight from the representatives' stored entries in ascending b.
    One GTH state reduction of Q, in floats or Fractions alike, gives mu >= 0
    even at tiny p1 and p2, and mu is rescaled as it is back-substituted, so
    masses past the float range of pi(0^n) still answer; returns
    pi(a) = mu(A) / |A|.

    Raises:
        SolveFailed: if the lumped chain is reducible (cannot happen for
            validated parameters), or a float overflows or underflows.
    """
    n, ns, dtype = matrix.params.n, matrix.params.n_states, matrix.vals.dtype
    codes = np.arange(ns, dtype=np.int64)
    canon = np.minimum.reduce([ror(codes, t, n) for t in range(n)])
    reps, orbit, sizes = np.unique(canon, return_inverse=True, return_counts=True)
    k = len(reps)
    q = np.full((k, k), Fraction(0) if dtype == object else 0.0, dtype=dtype)
    first, stop = np.searchsorted(matrix.keys, np.stack([reps, reps + 1]) << n)  # representatives' rows
    end = np.cumsum(stop - first)  # where each representative's row ends in the walk over them
    for lo in range(0, int(end[-1]), _BLOCK):  # Q[A, B] lands at A * k + B
        j = np.arange(lo, min(lo + _BLOCK, int(end[-1])))
        run = j + (stop - end)[np.searchsorted(end, j, side="right")]
        key = matrix.keys[run]
        np.add.at(q.reshape(-1), orbit[key >> n] * k + orbit[key & (ns - 1)], matrix.vals[run])
    with np.errstate(over="raise", invalid="raise"):
        try:
            mu = _reduce(q)
        except FloatingPointError:
            raise SolveFailed(f"stationary solve overflows a float at {matrix.params}") from None
        except SolveFailed:  # a certified chain is irreducible, so a zero outflow is rounding
            if matrix.exact or not check_irreducible_aperiodic(matrix):
                raise
            raise SolveFailed(f"stationary solve underflows a float at {matrix.params}") from None
    pi = mu[orbit] / sizes.astype(dtype)[orbit]
    return StationaryTable(params=matrix.params, probs=tuple(pi.tolist()))


def check_irreducible_aperiodic(matrix: TransitionMatrix) -> bool:
    """Ergodicity certificate: 0^n reaches and is reached by every state in one
    step with positive probability, and 0^n holds itself with positive
    probability (aperiodicity). Read from which entries row 0 and column 0
    store, not their values: build_matrix stores there only products of p1,
    1 - p1 and p2, so an entry whose float underflows to 0.0 is still an edge."""
    # keys are distinct, so 2**n keys below 2**n fill row 0, and 2**n with low bits 0 column 0
    keys, ns = matrix.keys, matrix.params.n_states
    runs = range(0, len(keys), _BLOCK)
    column = sum(np.count_nonzero((keys[lo : lo + _BLOCK] & (ns - 1)) == 0) for lo in runs)
    return bool(np.searchsorted(keys, ns) == column == ns)


def _check_consistent(table: StationaryTable, matrix: TransitionMatrix) -> None:
    if table.params != matrix.params:
        raise DimensionMismatch("table and matrix were built from different parameters")


def balance_residual(table: StationaryTable, matrix: TransitionMatrix):
    """Master-equation residual max_b |sum_a P[a->b] pi(a) - pi(b)|.

    Each sum runs over the stored entries of column b in ascending a.
    Exact (a Fraction) when both the matrix and the table are rational,
    a float otherwise.
    """
    _check_consistent(table, matrix)
    dtype = object if matrix.exact and isinstance(table.probs[0], Fraction) else float
    pi = np.asarray(table.probs, dtype=dtype)
    inflow, n = np.zeros(len(pi), dtype=dtype), matrix.params.n
    for lo in range(0, len(matrix.keys), _BLOCK):
        key, run = matrix.keys[lo : lo + _BLOCK], slice(lo, lo + _BLOCK)
        np.add.at(inflow, key & (len(pi) - 1), np.asarray(matrix.vals[run], dtype=dtype) * pi[key >> n])
    worst = np.max(np.abs(inflow - pi))
    return worst if dtype is object else float(worst)


def audit_detailed_balance(table: StationaryTable, matrix: TransitionMatrix) -> BalanceAudit:
    """Exhaustive maximization of |pi(a)P[a->b] - pi(b)P[b->a]| over ordered pairs.

    Only a pair with a stored entry either way can be nonzero, so the gap is
    formed at each stored (a, b) in column-major order, where the mirror keys
    b * 2**n + a ascend like the stored keys: P[b->a] is the entry of the same
    rank if the pattern is symmetric (m = 2), and is searched for if not.
    max_violation is the exact maximum. The witness is the smallest (min(a, b),
    max(a, b)) among the pairs a != b whose gap is within _TIE_ULPS ulps of the
    larger of its two products below it (rounding alone can part pairs whose
    gaps tie, such as rotations of one pair). When the maximum is below twice
    the largest such tolerance, every gap may be rounding alone (a reversible
    chain), and the witness is the smallest pair a != b with a positive flow
    either way; it is (0^n, 0^n) if every gap is 0.
    """
    _check_consistent(table, matrix)
    n, ns, keys = matrix.params.n, matrix.params.n_states, matrix.keys
    p = np.asarray(matrix.vals, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    tie = _TIE_ULPS * np.finfo(float).eps
    slack = 2 * tie * pi.max() * p.max()  # twice the largest tie tolerance of any pair
    by_col = np.argsort((keys & (ns - 1)).astype(np.uint16), kind="stable")  # a radix sort (n <= 16)
    worst, smallest = 0.0, ns * ns  # and the smallest pair with a flow, while worst < slack
    pairs, reach = np.zeros(0, dtype=np.int64), np.zeros(0)  # tie candidates, once worst >= slack / 2
    for lo in range(0, len(keys), _BLOCK):
        at, run = by_col[lo : lo + _BLOCK], slice(lo, lo + _BLOCK)
        key = keys[at]
        a, b = key >> n, key & (ns - 1)
        mirror = b << n | a
        same = keys[run] == mirror
        back = np.where(same, p[run], 0.0)
        if not same.all():
            miss = np.flatnonzero(~same)
            found = np.minimum(np.searchsorted(keys, mirror[miss]), len(keys) - 1)
            back[miss] = np.where(keys[found] == mirror[miss], p[found], 0.0)
        gap = np.abs(pi[a] * p[at] - pi[b] * back)
        worst = max(worst, float(gap.max()))
        if worst < slack:
            flow = np.flatnonzero((a != b) & ((pi[a] * p[at] > 0) | (pi[b] * back > 0)))
            if len(flow):
                a_f, b_f = a[flow], b[flow]
                smallest = min(smallest, int(np.min(np.minimum(a_f, b_f) * ns + np.maximum(a_f, b_f))))
        if worst < slack / 2:
            continue  # a gap of this run within its tolerance of a maximum >= slack would exceed slack / 2
        near = np.flatnonzero(gap >= worst - slack)
        a, b, ab, ba = a[near], b[near], p[at[near]], back[near]
        low = np.minimum(a, b) * ns + np.maximum(a, b)
        tied = gap[near] + np.where(a == b, 0.0, tie * np.maximum(pi[a] * ab, pi[b] * ba))
        # the candidates ascend by pair, each reaching further than every smaller one
        # (a pair that a smaller one out-reaches is never the witness), and reach the
        # maximum so far; a new pair joins only if no smaller candidate out-reaches it
        fresh = tied > np.concatenate([[-1.0], reach])[np.searchsorted(pairs, low, side="right")]
        pairs, reach = np.concatenate([pairs, low[fresh]]), np.concatenate([reach, tied[fresh]])
        order = np.argsort(pairs)
        pairs, reach = pairs[order], reach[order]
        keep = (reach >= worst) & (reach > np.maximum.accumulate(np.concatenate([[-1.0], reach[:-1]])))
        pairs, reach = pairs[keep], reach[keep]
    a, b = divmod(int(pairs[0]) if worst >= slack else smallest if worst > 0 else 0, ns)
    return BalanceAudit(max_violation=worst, witness=(Configuration(a, n), Configuration(b, n)))


# ---- Edge enumeration and witnesses ----


def transition_edges(matrix: TransitionMatrix) -> list[tuple[str, str, float]]:
    """All positive-probability edges (alpha, beta, P[alpha->beta]) as strings."""
    n, ns = matrix.params.n, matrix.params.n_states
    names = [Configuration(code, n).to_string() for code in range(ns)]
    p = matrix.vals.astype(float)
    live = p > 0  # p2 = 1 stores exact zeros
    edges = zip(matrix.keys[live].tolist(), p[live].tolist())
    return [(names[key >> n], names[key & (ns - 1)], x) for key, x in edges]


def one_directional_pair(params: ModelParams) -> Optional[tuple[Configuration, Configuration]]:
    """The canonical irreversibility witness (0^{n-2} 1 0, 0^{n-1} 1), if live.

    Returns the pair when the forward transition has positive probability and
    the reverse has probability zero, else None. For m >= 3 the pair works
    except when n = m and p2 = 1: then every window wraps the whole ring, the
    forward edge needs the blocked site to fill with probability 1 - p2 = 0,
    and the chain is exactly reversible.
    """
    n = params.n
    alpha = Configuration(1 << (n - 2), n)  # string 0^{n-2} 1 0
    beta = Configuration(1 << (n - 1), n)  # string 0^{n-1} 1
    forward = transition_prob(alpha, beta, params)
    backward = transition_prob(beta, alpha, params)
    if forward > 0 and backward == 0:
        return alpha, beta
    return None
