"""Dense finite-state reference: transition matrix, stationary solve, audits.

Everything here enumerates the full state space 2**n, so it only scales to
small rings, but it makes no appeal to any closed form: the stationary vector
comes out of a direct linear solve. That is what lets the analytic evaluators
elsewhere in the package be checked against an independent computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    NedpcaError,
    ParamError,
    SolveFailed,
)
from .model import (
    ConfigLike,
    Configuration,
    ModelParams,
    count_patterns,
    transition_prob,
    window_masks,
)

__all__ = [
    "FLOAT_CAP",
    "RATIONAL_CAP",
    "TransitionMatrix",
    "StationaryTable",
    "BalanceAudit",
    "build_matrix",
    "solve_stationary",
    "check_irreducible_aperiodic",
    "balance_residual",
    "audit_detailed_balance",
    "power_iteration",
    "reversibility_ratio",
    "position_pairs",
    "transition_edges",
    "one_directional_pair",
]

# Dense float storage grows as 4**n; n=16 already means a 34 GiB matrix, so the
# cap guards against accidents rather than promising comfort near the top end.
FLOAT_CAP = 16
# Rational solves cost Fraction arithmetic on a 2**n square system.
RATIONAL_CAP = 8


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

    @property
    def n_states(self) -> int:
        return self.params.n_states


@dataclass(frozen=True, eq=False)
class StationaryTable:
    """Probability vector over all configurations in ascending integer order."""

    params: ModelParams
    probs: tuple
    source: str  # "solver" or "formula"

    def __post_init__(self) -> None:
        if self.source not in ("solver", "formula"):
            raise ParamError(f"source must be 'solver' or 'formula', got {self.source!r}")
        if len(self.probs) != self.params.n_states:
            raise DimensionMismatch(
                f"table length {len(self.probs)} != 2**n = {self.params.n_states}"
            )

    def prob(self, beta: ConfigLike):
        return self.probs[Configuration.coerce(beta, self.params.n).code]

    def to_json_dict(self) -> dict:
        p = self.params

        def _num(x):
            return str(x) if isinstance(x, Fraction) else float(x)

        return {
            "n": p.n,
            "m": p.m,
            "p1": _num(p.p1),
            "p2": _num(p.p2),
            "source": self.source,
            "probs": [_num(x) for x in self.probs],
        }


@dataclass(frozen=True)
class BalanceAudit:
    """Worst detailed-balance violation and the pair achieving it."""

    max_violation: float
    witness: tuple[Configuration, Configuration]


# ---- Matrix construction ----


def build_matrix(params: ModelParams) -> TransitionMatrix:
    """Every row P[a -> .] at once, as a product of independent site factors.

    Bit i of a column index b is the new value at site i+1. Once bits
    0..i-1 are placed, columns 0..2**i-1 hold every row's partial products;
    bit i copies that block times its fill factor into columns
    2**i..2**(i+1)-1, then scales the block in place by its stay factor.
    These are the products of a per-row Kronecker expansion, in its order.

    Raises:
        BudgetExceeded: when n exceeds FLOAT_CAP, or RATIONAL_CAP for exact
            fractions.
    """
    cap = RATIONAL_CAP if params.exact else FLOAT_CAP
    if params.n > cap:
        raise BudgetExceeded(
            f"n={params.n} exceeds the {'rational' if params.exact else 'float'} cap {cap}"
        )
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2 = params.p1, params.p2
    # site factors indexed by kind: 0 forced, 1 open vacancy, 2 blocked vacancy
    stay = np.array([1, 1 - p1, p2], dtype=dtype)
    fill = np.array([0, p1, 1 - p2], dtype=dtype)
    ns = params.n_states
    masks = np.array([window_masks(a, params) for a in range(ns)], dtype=np.int64)
    entries = np.empty((ns, ns), dtype=dtype)
    entries[:, 0] = one
    for i in range(params.n):
        kind = ((masks[:, 0] >> i) & 1) + 2 * ((masks[:, 1] >> i) & 1)
        width = 1 << i
        block = entries[:, :width]
        np.multiply(block, fill[kind, None], out=entries[:, width : 2 * width])
        block *= stay[kind, None]
    return TransitionMatrix(params=params, entries=entries)


# ---- Stationary solve ----


def _solve_exact_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    # Gaussian elimination with first-nonzero pivoting; exact, so any nonzero
    # pivot is as good as any other.
    d = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            raise SolveFailed("rational stationary system is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, d):
            f = a[r][col]
            if f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = [Fraction(0)] * d
    for col in range(d - 1, -1, -1):
        s = a[col][d] - sum(a[col][j] * out[j] for j in range(col + 1, d))
        out[col] = s
    return out


def solve_stationary(matrix: TransitionMatrix) -> StationaryTable:
    """Unique left fixed probability vector of the chain, by direct solve.

    Solves (P^T - I) pi = 0 with the last equation replaced by the
    normalization sum(pi) = 1: by LU in floats, by elimination over
    Fractions in exact mode.

    Raises:
        SolveFailed: if the system is singular (chain not ergodic; cannot
            happen for validated parameters).
    """
    p = matrix.entries
    a = p.T - np.eye(matrix.n_states, dtype=p.dtype)
    a[-1, :] = 1
    b = np.zeros(matrix.n_states, dtype=p.dtype)
    b[-1] = 1
    if matrix.exact:
        pi = _solve_exact_linear(a.tolist(), b.tolist())
    else:
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolveFailed(f"stationary solve failed: {exc}") from exc
        if not np.isfinite(pi).all():
            raise SolveFailed("stationary solve produced non-finite entries")
        pi = pi.tolist()
    return StationaryTable(params=matrix.params, probs=tuple(pi), source="solver")


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
    """Exhaustive maximization of |pi(a)P[a->b] - pi(b)P[b->a]| over ordered pairs."""
    _check_consistent(table, matrix)
    n = matrix.params.n
    p = np.asarray(matrix.entries, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    flow = pi[:, None] * p
    gap = np.abs(flow - flow.T)
    a, b = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return BalanceAudit(
        max_violation=float(gap[a, b]),
        witness=(Configuration(int(a), n), Configuration(int(b), n)),
    )


def power_iteration(matrix: TransitionMatrix, init: Sequence[float], iters: int) -> np.ndarray:
    """Repeated left multiplication of a distribution by P; float mode only.

    Kept as a cross-check of solve_stationary, not as the production solver:
    the direct solve has no convergence threshold to argue about.
    """
    if matrix.exact:
        raise DomainError("power iteration supports float matrices only")
    v = np.asarray(init, dtype=float)
    if v.shape != (matrix.n_states,):
        raise DimensionMismatch(f"init must have length {matrix.n_states}")
    p = matrix.entries
    for _ in range(iters):
        v = v @ p
    return v


# ---- Reversibility ----


def position_pairs(config: ConfigLike, a: int, b: int, params: ModelParams) -> frozenset:
    """0-based ring positions i with value a at site i+1 and b at site i+2."""
    conf = Configuration.coerce(config, params.n)
    bits = conf.bits()
    n = params.n
    return frozenset(i for i in range(n) if bits[i] == a and bits[(i + 1) % n] == b)


def _m2_weight(conf: Configuration, params: ModelParams):
    # product-form stationary weight, m=2 shape: p1^{N1} ((1-p1)/p2)^{N01}
    counts = count_patterns(conf, params)
    return params.p1 ** counts.n1 * ((1 - params.p1) / params.p2) ** counts.n0m1


def reversibility_ratio(alpha: ConfigLike, beta: ConfigLike, params: ModelParams) -> float:
    """The ratio pi(a)P[a->b] / (pi(b)P[b->a]) for the nearest-neighbour model.

    Computed two ways and cross-checked: directly from the product-form
    weights and the transition law, and through the closed form
    (p1 p2 / ((1-p1)(1-p2))) ** (|Pos10,01| - |Pos01,10|) built from
    position-set intersections. Defined for m=2 only.

    Raises:
        DomainError: if m != 2 or the reverse transition has probability 0.
        NedpcaError: if the two paths disagree beyond 1e-12 relative.
    """
    if params.m != 2:
        raise DomainError("reversibility_ratio is defined for m=2 only")
    a = Configuration.coerce(alpha, params.n)
    b = Configuration.coerce(beta, params.n)
    p_ba = transition_prob(b, a, params)
    if p_ba == 0:
        raise DomainError("reverse transition is impossible; the ratio is undefined")
    p_ab = transition_prob(a, b, params)
    direct = float((_m2_weight(a, params) * p_ab) / (_m2_weight(b, params) * p_ba))

    d = len(position_pairs(a, 1, 0, params) & position_pairs(b, 0, 1, params)) - len(
        position_pairs(a, 0, 1, params) & position_pairs(b, 1, 0, params)
    )
    p1, p2 = float(params.p1), float(params.p2)
    if p2 == 1.0:
        # the closed-form base degenerates; a feasible reverse transition
        # forces |Pos10,01| = 0, so the exponent d is never positive here
        closed = 1.0 if d == 0 else 0.0
    else:
        closed = (p1 * p2 / ((1.0 - p1) * (1.0 - p2))) ** d
    tol = 1e-12 * max(abs(direct), abs(closed), 1.0)
    if not abs(direct - closed) <= tol:
        raise NedpcaError(f"ratio paths disagree: direct={direct!r} closed={closed!r} exponent={d}")
    return direct


# ---- Edge enumeration and witnesses ----


def transition_edges(params: ModelParams, threshold: float = 0.0) -> list[tuple[str, str, float]]:
    """All positive-probability edges (alpha, beta, P[alpha->beta]) as strings."""
    p = np.asarray(build_matrix(params).entries, dtype=float)
    names = [Configuration(code, params.n).to_string() for code in range(params.n_states)]
    src, dst = np.nonzero(p > threshold)
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
