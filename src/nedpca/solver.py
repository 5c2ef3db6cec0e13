"""Dense finite-state reference: transition matrix, stationary solve, audits.

Everything here enumerates the full state space 2**n, so it only scales to
small rings, but it makes no appeal to any closed form: the stationary vector
comes out of a direct linear solve, lumped onto rotation orbits by a symmetry
of the transition law alone. That is what lets the analytic evaluators
elsewhere in the package be checked against an independent computation.

Every check reads the one TransitionMatrix its caller built, and none holds
a second 4**n array. The build, the lumping and the detailed-balance audit
all work in row blocks of _BLOCK entries, so each block stays in cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, SolveFailed
from .model import Configuration, ModelParams, StationaryTable, ror, transition_prob, window_masks

__all__ = [
    "FLOAT_CAP",
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

# A report holds one 8 * 4**n byte array, the matrix: 512 MiB at n = 13; n = 14
# would need 2 GiB for P alone.
FLOAT_CAP = 13
# Exact mode pays for the 4**n Fraction build and residuals: ~6 s per report at n = 9.
RATIONAL_CAP = 9
_BLOCK = 1 << 17  # entries per build, lump or audit block (1 MiB): max(1, this // 2**n) rows


# ---- Types ----


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Dense one-step matrix, entries[a, b] = P[a -> b].

    The entries are float64, or Python Fractions in an object array when the
    parameters are exact.
    """

    params: ModelParams
    entries: np.ndarray

    @property
    def exact(self) -> bool:
        return self.params.exact


@dataclass(frozen=True)
class BalanceAudit:
    """Worst detailed-balance violation and the pair achieving it."""

    max_violation: float
    witness: tuple[Configuration, Configuration]


# ---- Matrix construction ----


def build_matrix(params: ModelParams) -> TransitionMatrix:
    """Every row P[a -> .], as a product of independent site factors.

    Bit i of a column index b is the new value at site i+1. Once bits
    0..i-1 are placed, columns 0..2**i-1 hold each row's partial products;
    bit i copies that block times its fill factor into columns
    2**i..2**(i+1)-1, then scales the block in place by its stay factor.
    These are the products of a per-row Kronecker expansion, in its order.
    Rows run in blocks of _BLOCK entries, so P is written to memory once.

    Raises:
        BudgetExceeded: when n exceeds FLOAT_CAP, or RATIONAL_CAP for exact
            fractions.
    """
    cap = RATIONAL_CAP if params.exact else FLOAT_CAP
    if params.n > cap:
        raise BudgetExceeded(
            f"n={params.n} exceeds the {'rational' if params.exact else 'float'} cap {cap}:"
            f" the dense matrix alone takes {8 << 2 * params.n} bytes"
        )
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2 = params.p1, params.p2
    ns, sites = params.n_states, np.arange(params.n)
    open_mask, blocked_mask = window_masks(np.arange(ns, dtype=np.int64), params)
    # site kinds, state by site: 0 forced, 1 open vacancy, 2 blocked vacancy
    kind = ((open_mask[:, None] >> sites) & 1) + 2 * ((blocked_mask[:, None] >> sites) & 1)
    stay = np.array([1, 1 - p1, p2], dtype=dtype)[kind]
    fill = np.array([0, p1, 1 - p2], dtype=dtype)[kind]
    entries = np.empty((ns, ns), dtype=dtype)
    rows = max(1, _BLOCK // ns)
    for start in range(0, ns, rows):
        strip, states = entries[start : start + rows], slice(start, start + rows)
        strip[:, 0] = one
        for i in range(params.n):
            width = 1 << i
            block = strip[:, :width]
            np.multiply(block, fill[states, i, None], out=strip[:, width : 2 * width])
            block *= stay[states, i, None]
    return TransitionMatrix(params=params, entries=entries)


# ---- Stationary solve ----


def _eliminate(aug: np.ndarray) -> np.ndarray:
    # Solves [A | b] by elimination with partial pivoting, then back-substitution.
    # Any nonzero pivot is exact for Fractions, so both dtypes share these lines.
    k = len(aug)
    for col in range(k):
        piv = col + np.abs(aug[col:, col]).argmax()
        if aug[piv, col] == 0:
            raise SolveFailed(f"stationary system is singular at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        pivot_row = aug[col, col:] / aug[col, col]
        aug[col + 1 :, col:] -= aug[col + 1 :, col, None] * pivot_row
    for col in range(k - 1, -1, -1):
        aug[col, k] = (aug[col, k] - aug[col, col + 1 : k] @ aug[col + 1 :, k]) / aug[col, col]
    return aug[:, k]


def solve_stationary(matrix: TransitionMatrix) -> StationaryTable:
    """Unique left fixed probability vector of the chain, by direct solve.

    P must commute with rotating the ring, as every build_matrix result does;
    the chain then lumps exactly onto rotation orbits A (Kemeny & Snell 1960,
    sec. 6.3), with Q[A, B] = sum over b in B of P[a, b] for any a in A,
    scattered straight from the representatives' rows in ascending b.
    Solves (Q^T - I) mu = 0 with its last equation replaced by sum(mu) = 1,
    in floats or Fractions alike, and returns pi(a) = mu(A) / |A|.

    Raises:
        SolveFailed: if the lumped system is singular (chain not ergodic;
            cannot happen for validated parameters) or floats overflow.
    """
    p, n = matrix.entries, matrix.params.n
    codes = np.arange(matrix.params.n_states, dtype=np.int64)
    canon = np.minimum.reduce([ror(codes, t, n) for t in range(n)])
    reps, orbit, sizes = np.unique(canon, return_inverse=True, return_counts=True)
    k = len(reps)
    zero, one = (Fraction(0), Fraction(1)) if p.dtype == object else (0.0, 1.0)
    aug = np.full((k, k + 1), zero, dtype=p.dtype)  # [Q^T - I | e_k]
    flat, rows = aug.reshape(-1), max(1, _BLOCK // matrix.params.n_states)
    for start in range(0, k, rows):
        block = np.arange(start, min(start + rows, k))  # Q[A, B] lands at B * (k + 1) + A
        np.add.at(flat, (orbit * (k + 1) + block[:, None]).ravel(), p[reps[block]].ravel())
    aug[range(k), range(k)] -= one
    aug[-1] = one
    mu = _eliminate(aug)
    if p.dtype != object and not np.isfinite(mu).all():
        raise SolveFailed("stationary solve produced non-finite entries")
    pi = mu[orbit] / sizes.astype(p.dtype)[orbit]
    return StationaryTable(params=matrix.params, probs=tuple(pi.tolist()))


def check_irreducible_aperiodic(matrix: TransitionMatrix) -> bool:
    """Ergodicity certificate: 0^n reaches and is reached by every state in one
    step with positive probability, and 0^n holds itself with positive
    probability (aperiodicity)."""
    p = matrix.entries
    return bool((p[0, :] > 0).all() and (p[:, 0] > 0).all() and p[0, 0] > 0)


def _check_consistent(table: StationaryTable, matrix: TransitionMatrix) -> None:
    if table.params != matrix.params:
        raise DimensionMismatch("table and matrix were built from different parameters")


def balance_residual(table: StationaryTable, matrix: TransitionMatrix):
    """Master-equation residual max_b |sum_a P[a->b] pi(a) - pi(b)|.

    Exact (a Fraction) when both the matrix and the table are rational,
    a float otherwise.
    """
    _check_consistent(table, matrix)
    dtype = object if matrix.exact and isinstance(table.probs[0], Fraction) else float
    p = np.asarray(matrix.entries, dtype=dtype)
    pi = np.asarray(table.probs, dtype=dtype)
    worst = np.max(np.abs(p.T @ pi - pi))
    return worst if dtype is object else float(worst)


def audit_detailed_balance(table: StationaryTable, matrix: TransitionMatrix) -> BalanceAudit:
    """Exhaustive maximization of |pi(a)P[a->b] - pi(b)P[b->a]| over ordered pairs.

    Folds the flow gap's upper triangle a block of rows at a time, holding no
    second 4**n array. The gap is exactly symmetric, so each dropped (a, b)
    repeats an earlier (b, a), and the first maximum in row-major order wins.
    """
    _check_consistent(table, matrix)
    n, ns = matrix.params.n, matrix.params.n_states
    p = np.asarray(matrix.entries, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    rows = max(1, _BLOCK // ns)
    worst, a, b = -1.0, 0, 0
    for start in range(0, ns, rows):
        block, width = slice(start, start + rows), ns - start
        gap = pi[block, None] * p[block, start:]
        gap -= (pi[start:, None] * p[start:, block]).T
        np.abs(gap, out=gap)
        k = int(np.argmax(gap))
        if gap.flat[k] > worst:
            worst, a, b = float(gap.flat[k]), start + k // width, start + k % width
    return BalanceAudit(max_violation=worst, witness=(Configuration(a, n), Configuration(b, n)))


# ---- Edge enumeration and witnesses ----


def transition_edges(matrix: TransitionMatrix) -> list[tuple[str, str, float]]:
    """All positive-probability edges (alpha, beta, P[alpha->beta]) as strings."""
    n = matrix.params.n
    p = np.asarray(matrix.entries, dtype=float)
    names = [Configuration(code, n).to_string() for code in range(matrix.params.n_states)]
    src, dst = np.nonzero(p > 0)
    return [(names[a], names[b], float(p[a, b])) for a, b in zip(src.tolist(), dst.tolist())]


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
