"""Finite-state reference: the one-step law on rotation orbits, stationary solve, audits.

P commutes with rotating the ring, so the chain lumps exactly onto rotation
orbits (Kemeny & Snell 1960, sec. 6.3), and every check reads only the orbit
representatives' rows, about 2**n / n of them, as ascending keys a * 2**n + b
(the submasks b of a's vacancy mask) in flat runs of _BLOCK entries. No closed
form is used: pi comes out of a GTH state reduction of the lumped chain, in
panels each eliminated in a small work block. A float request is sized in
bytes against BYTE_BUDGET before anything is allocated.
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

# Bytes a report may need, by _shares: n = 16 fits at every m (0.44 GB at m = 2),
# and n = 17 does not (1.09 GB before any stored entry, 0.95 GB of it Q and one product).
BYTE_BUDGET = 1 << 30
# Exact mode pays for Fraction products, the solve and the residual: ~0.3-0.7 s per report at n = 9.
RATIONAL_CAP = 9
_BLOCK = 1 << 17  # stored entries per build block, and per run of each pass over them
_RUN_BYTES = 128 * _BLOCK  # one run's temporaries: up to sixteen arrays of 8-byte items
_PROCESS_BYTES = 32 << 20  # the interpreter, numpy and this package: `exact -n 4` peaks at 31 MB RSS
_RESCALE = 1e100  # the back-substitution rescales mu once an orbit's mass exceeds this
_TIE_ULPS = 16  # audit gaps this many ulps of the larger product below the maximum tie with it


# ---- Types ----


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """One-step matrix P as the rows of its rotation orbits' representatives.

    reps are the orbits' smallest codes, ascending, orbit[s] is state s's orbit
    and sizes[i] orbit i's state count. For a in reps, P[a -> b] = vals[j] where
    keys[j] = a * 2**n + b, strictly ascending int64; every entry not stored is
    zero, and every other row is its representative's, rotated. The values are
    float64, or Python Fractions in an object array when the parameters are exact.
    """

    params: ModelParams
    keys: np.ndarray
    vals: np.ndarray
    reps: np.ndarray
    orbit: np.ndarray
    sizes: np.ndarray

    @property
    def exact(self) -> bool:
        return self.params.exact

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only dense view, entries[a, b] = P[a -> b], made on first use by
        rotating the stored rows."""
        ns, (keys, vals) = self.params.n_states, _every_row(self)
        dense = np.full((ns, ns), Fraction(0) if vals.dtype == object else 0.0, dtype=vals.dtype)
        dense.flat[keys] = vals
        dense.flags.writeable = False
        return dense


@dataclass(frozen=True)
class BalanceAudit:
    """Worst detailed-balance violation and the pair achieving it."""

    max_violation: float
    witness: tuple[Configuration, Configuration]


def _every_row(matrix: TransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    # every row's keys, ascending, and values: the stored rows rotated by t = 0..n-1;
    # where a rotation repeats a stored row (an orbit smaller than n), t = 0 wins
    n = matrix.params.n
    a, b = matrix.keys >> n, matrix.keys & (matrix.params.n_states - 1)
    rotated = np.concatenate([ror(a, t, n) << n | ror(b, t, n) for t in range(n)])
    keys, first = np.unique(rotated, return_index=True)
    return keys, np.tile(matrix.vals, n)[first]


# ---- Matrix construction ----


def _shares(n: int, stored: int) -> tuple[int, int, int]:
    """Bytes the build, the solve and the audit of a float report may hold: the process
    and 16 per stored entry; Q, the Schur product and the scaled panel rows, 8 k (2k + b)
    for k orbits in panels of b = _width; 8 per stored entry; and in each, 96 per state
    (the report's two tables of Python floats among them) and one run's temporaries."""
    # rotation orbits, by Burnside's lemma, summed over the distinct gcd(t, n)
    k = sum(c << g for g, c in Counter(math.gcd(t, n) for t in range(n)).items()) // n
    each = (96 << n) + _RUN_BYTES
    return _PROCESS_BYTES + 16 * stored + each, 8 * k * (2 * k + max(16, k >> 5)) + each, 8 * stored + each


def _orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # each orbit's smallest code, each state's orbit index, and each orbit's size
    codes = np.arange(1 << n, dtype=np.int64)
    least = codes.copy()
    for t in range(1, n):
        np.minimum(least, ror(codes, t, n), out=least)
    reps = np.flatnonzero(least == codes)
    orbit = np.searchsorted(reps, least)
    return reps, orbit, np.bincount(orbit)


def build_matrix(params: ModelParams) -> TransitionMatrix:
    """Each representative's row P[a -> .], as a product of independent site factors.

    Row a's support is the submasks of its vacancy mask open | blocked; a
    forced site becomes 0 with probability 1. For a block of rows
    with c vacancies each, bit t of a column's index j in 0..2**c-1 is the
    new value at the row's t-th vacancy: once bits 0..t-1 are placed, columns
    0..2**t-1 hold the partial products, and bit t copies them times its fill
    factor into 2**t..2**(t+1)-1, then scales them by its stay factor. The
    products run over the vacancies in ascending site order, so each is
    transition_prob's site-by-site product without its exact factors of 1.

    Raises:
        BudgetExceeded: when n exceeds RATIONAL_CAP for exact fractions, or when
            the report would take more than BYTE_BUDGET bytes by _shares: checked
            before any per-state array (which refuses every n >= 17), and again
            from the stored count before keys and vals are allocated.
    """
    if params.exact and params.n > RATIONAL_CAP:
        raise BudgetExceeded(f"n={params.n} exceeds the rational cap {RATIONAL_CAP}")
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2, n = params.p1, params.p2, params.n
    stay, fill = np.array([1 - p1, p2], dtype=dtype), np.array([p1, 1 - p2], dtype=dtype)
    least = sum(_shares(n, 0))  # every share but the stored entries' depends on n alone
    if least > BYTE_BUDGET:
        quoted = least if least < 1 << 64 else f"2**{least.bit_length() - 1}"  # from n = 36, in powers of 2
        raise BudgetExceeded(
            f"n={n}, m={params.m} needs at least {quoted} bytes"
            f" before any stored entry, over the budget {BYTE_BUDGET}"
        )
    reps, orbit, sizes = _orbits(n)
    open_mask, blocked_mask = window_masks(reps, params)
    vacant = open_mask | blocked_mask
    count = np.bitwise_count(vacant).astype(np.int64)
    offset = np.zeros(len(reps) + 1, dtype=np.int64)  # each row's first stored entry, and the total
    np.cumsum(1 << count, out=offset[1:])
    shares = _shares(n, int(offset[-1]))
    if sum(shares) > BYTE_BUDGET:
        raise BudgetExceeded(
            f"n={n}, m={params.m} needs about {sum(shares)} bytes, over the budget {BYTE_BUDGET}:"
            f" build {shares[0]} ({offset[-1]} stored entries), solve {shares[1]}, audit {shares[2]}"
        )
    keys, vals = np.empty(offset[-1], dtype=np.int64), np.empty(offset[-1], dtype=dtype)
    for c in range(n + 1):
        group = np.flatnonzero(count == c)
        step = max(1, _BLOCK >> c)  # rows per (rows, 2**c) block
        for start in range(0, len(group), step):
            rows = group[start : start + step]
            site = np.nonzero((vacant[rows, None] >> np.arange(n)) & 1)[1].reshape(len(rows), c)  # ascending
            blocked = (blocked_mask[rows, None] >> site) & 1
            bit, s, f = 1 << site, stay[blocked], fill[blocked]
            key = np.full((len(rows), 1 << c), reps[rows, None] << n)  # column 0 holds a << n
            val = np.full((len(rows), 1 << c), one, dtype=dtype)  # and the empty product 1
            for t in range(c):
                low, high = slice(0, 1 << t), slice(1 << t, 2 << t)
                np.bitwise_or(key[:, low], bit[:, t, None], out=key[:, high])
                np.multiply(val[:, low], f[:, t, None], out=val[:, high])
                val[:, low] *= s[:, t, None]
            at = offset[rows, None] + np.arange(1 << c)
            keys[at], vals[at] = key, val
    return TransitionMatrix(params, keys, vals, reps, orbit, sizes)


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
    the chain then lumps onto rotation orbits A with Q[A, B] = sum over b in B
    of P[a, b], a the representative of A, scattered straight from the stored
    entries in ascending b. One GTH state reduction of Q, in floats or Fractions
    alike, gives mu >= 0 even at tiny p1 and p2, rescaled as it is back-
    substituted so that masses past the float range answer; pi(a) = mu(A) / |A|.

    Raises:
        SolveFailed: if the lumped chain is reducible (cannot happen for
            validated parameters), or a float overflows or underflows.
    """
    n, ns, orbit, dtype = matrix.params.n, matrix.params.n_states, matrix.orbit, matrix.vals.dtype
    k = len(matrix.reps)
    q = np.full((k, k), Fraction(0) if dtype == object else 0.0, dtype=dtype)
    for lo in range(0, len(matrix.keys), _BLOCK):  # Q[A, B] lands at A * k + B
        key = matrix.keys[lo : lo + _BLOCK]
        np.add.at(q.reshape(-1), orbit[key >> n] * k + orbit[key & (ns - 1)], matrix.vals[lo : lo + _BLOCK])
    with np.errstate(over="raise", invalid="raise"):
        try:
            mu = _reduce(q)
        except FloatingPointError:
            raise SolveFailed(f"stationary solve overflows a float at {matrix.params}") from None
        except SolveFailed:  # a certified chain is irreducible, so a zero outflow is rounding
            if matrix.exact or not check_irreducible_aperiodic(matrix):
                raise
            raise SolveFailed(f"stationary solve underflows a float at {matrix.params}") from None
    pi = (mu / matrix.sizes.astype(dtype))[orbit]
    return StationaryTable(params=matrix.params, probs=tuple(pi.tolist()))


def check_irreducible_aperiodic(matrix: TransitionMatrix) -> bool:
    """Ergodicity certificate: 0^n reaches and is reached by every state in one
    step with positive probability, and 0^n holds itself with positive
    probability (aperiodicity). Read from which entries row 0 and column 0
    store, not their values: build_matrix stores there only products of p1,
    1 - p1 and p2, so an entry whose float underflows to 0.0 is still an edge."""
    # keys are distinct: 2**n keys below 2**n fill row 0, and one key with low bits 0 per
    # representative fills column 0, since 0^n is fixed by every rotation
    keys, ns = matrix.keys, matrix.params.n_states
    runs = range(0, len(keys), _BLOCK)
    column = sum(np.count_nonzero((keys[lo : lo + _BLOCK] & (ns - 1)) == 0) for lo in runs)
    return bool(np.searchsorted(keys, ns) == ns and column == len(matrix.reps))


def _orbit_probs(table: StationaryTable, matrix: TransitionMatrix, dtype) -> np.ndarray:
    # pi on each orbit, read at its representative: a table not constant on orbits is refused
    if table.params != matrix.params:
        raise DimensionMismatch("table and matrix were built from different parameters")
    pi = np.asarray(table.probs, dtype=dtype)
    rep = pi[matrix.reps]
    if not (rep[matrix.orbit] == pi).all():
        raise DimensionMismatch(f"table is not constant on rotation orbits at {matrix.params}")
    return rep


def balance_residual(table: StationaryTable, matrix: TransitionMatrix):
    """Master-equation residual on the lumped chain, max_B |(mu Q)(B) / |B| - pi(B)|.

    mu(A) = |A| pi(A), and (mu Q)(B) sums mu(A) P[a->b] over the stored entries
    with b in B, in storage order: every b of B takes the same inflow, so this is
    max_b |sum_a P[a->b] pi(a) - pi(b)|. Exact (a Fraction) when both the matrix
    and the table are rational, a float otherwise. Raises DimensionMismatch if
    the table is for other parameters, or is not constant on rotation orbits.
    """
    dtype = object if matrix.exact and isinstance(table.probs[0], Fraction) else float
    pi = _orbit_probs(table, matrix, dtype)
    mu, inflow = pi * matrix.sizes, np.zeros(len(pi), dtype=dtype)
    n, ns, orbit = matrix.params.n, matrix.params.n_states, matrix.orbit
    for lo in range(0, len(matrix.keys), _BLOCK):
        key, run = matrix.keys[lo : lo + _BLOCK], slice(lo, lo + _BLOCK)
        np.add.at(inflow, orbit[key & (ns - 1)], np.asarray(matrix.vals[run], dtype=dtype) * mu[orbit[key >> n]])
    worst = np.max(np.abs(inflow / matrix.sizes - pi))
    return worst if dtype is object else float(worst)


def audit_detailed_balance(table: StationaryTable, matrix: TransitionMatrix) -> BalanceAudit:
    """Maximization of |pi(a)P[a->b] - pi(b)P[b->a]| over ordered pairs.

    Rotating a pair keeps its gap, and a pair with no stored entry either way
    has none, so the gap is formed at each stored (a, b), a a representative,
    with P[b->a] from b's open and blocked masks in four popcounts. The maximum
    is within a few ulps of the maximum over all pairs, whose rotations round
    apart. The witness is the smallest (min(a, b), max(a, b)) among the
    rotations of the pairs a != b whose gap is within _TIE_ULPS ulps of its
    larger product below the maximum; when the maximum is below twice the
    largest such tolerance (every gap may be rounding, as on a reversible
    chain), among those with a positive flow either way; (0^n, 0^n) if every
    gap is 0. Raises DimensionMismatch as balance_residual does.
    """
    pi, params, keys, orbit = _orbit_probs(table, matrix, float), matrix.params, matrix.keys, matrix.orbit
    n, ns, p, p1, p2 = params.n, params.n_states, np.asarray(matrix.vals, dtype=float), params.p1, params.p2
    # each site factor's powers 0..n, for the open sites that fill and stay, then the
    # blocked ones; Fractions multiply exactly, so P[b->a] rounds once, as P[a->b] does
    powers = np.array([p1, 1 - p1, 1 - p2, p2], dtype=matrix.vals.dtype)[:, None] ** np.arange(n + 1)
    tie = _TIE_ULPS * np.finfo(float).eps
    slack = 2 * tie * pi.max() * p.max()  # twice the largest tie tolerance of any pair
    worst, reach = 0.0, np.empty(len(keys))  # and each pair's gap plus its tolerance, 0 at a = b
    for lo in range(0, len(keys), _BLOCK):
        key, run = keys[lo : lo + _BLOCK], slice(lo, lo + _BLOCK)
        a, b = key >> n, key & (ns - 1)
        opened, blocked = window_masks(b, params)
        filled, refilled = opened & a, blocked & a  # the open and blocked sites of b that a holds
        back = powers[0].take(np.bitwise_count(filled)) * powers[1].take(np.bitwise_count(opened ^ filled))
        back *= powers[2].take(np.bitwise_count(refilled)) * powers[3].take(np.bitwise_count(blocked ^ refilled))
        back = np.where((filled | refilled) == a, back, 0.0).astype(float)  # b forces its other sites to 0
        same = a == b
        back[same] = p[run][same]
        forward, backward = pi.take(orbit.take(a)) * p[run], pi.take(orbit.take(b)) * back
        gap = np.abs(forward - backward)
        worst = max(worst, float(gap.max()))
        reach[run] = np.where(same, 0.0, gap + tie * np.maximum(forward, backward))
    if worst == 0:
        return BalanceAudit(max_violation=0.0, witness=(Configuration(0, n), Configuration(0, n)))
    hit = np.flatnonzero(reach >= worst if worst >= slack else reach > 0)
    a, b = keys[hit] >> n, keys[hit] & (ns - 1)
    low = np.minimum(a, matrix.reps[orbit[b]])  # the least state of any rotation of (a, b)
    a, b = a[low == low.min()], b[low == low.min()]
    pairs = ((ror(a, t, n), ror(b, t, n)) for t in range(n))
    a, b = divmod(int(min(np.min(np.minimum(x, y) * ns + np.maximum(x, y)) for x, y in pairs)), ns)
    return BalanceAudit(max_violation=worst, witness=(Configuration(a, n), Configuration(b, n)))


# ---- Edge enumeration and witnesses ----


def transition_edges(matrix: TransitionMatrix) -> list[tuple[str, str, float]]:
    """All positive-probability edges (alpha, beta, P[alpha->beta]) as strings,
    every row a rotation of its representative's."""
    n, ns = matrix.params.n, matrix.params.n_states
    names = [Configuration(code, n).to_string() for code in range(ns)]
    keys, vals = _every_row(matrix)
    p = vals.astype(float)
    live = p > 0  # p2 = 1 stores exact zeros
    edges = zip(keys[live].tolist(), p[live].tolist())
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
