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
    "transition_row",
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
    """Row-major dense one-step matrix; entries[a][b] = P[a -> b]."""

    params: ModelParams
    entries: object  # ndarray (float mode) or tuple of tuples of Fraction
    exact: bool

    @property
    def n_states(self) -> int:
        return self.params.n_states

    def row(self, alpha: ConfigLike):
        a = Configuration.coerce(alpha, self.params.n)
        return self.entries[a.code]

    def prob(self, alpha: ConfigLike, beta: ConfigLike):
        a = Configuration.coerce(alpha, self.params.n)
        b = Configuration.coerce(beta, self.params.n)
        return self.entries[a.code][b.code]


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


def _site_factors(code: int, params: ModelParams) -> list:
    """Per-site pairs (prob of new bit 0, prob of new bit 1) for source state code."""
    open_mask, blocked_mask = window_masks(code, params)
    p1, p2 = params.p1, params.p2
    open_pair = (1 - p1, p1)
    blocked_pair = (p2, 1 - p2)
    forced_pair = (1, 0)
    factors = []
    for i in range(params.n):
        bit = 1 << i
        if open_mask & bit:
            factors.append(open_pair)
        elif blocked_mask & bit:
            factors.append(blocked_pair)
        else:
            factors.append(forced_pair)
    return factors


def transition_row(alpha: ConfigLike, params: ModelParams):
    """Full outgoing distribution of one state, indexed by target encoding.

    Float parameters give an ndarray of length 2**n, exact fractions a list.
    The row is assembled as a Kronecker product of per-site factor pairs; the
    site-by-site product definition is recovered entry by entry.
    """
    a = Configuration.coerce(alpha, params.n)
    factors = _site_factors(a.code, params)
    if params.exact:
        row = [Fraction(f) for f in factors[0]]
        for pair in factors[1:]:
            row = [f * r for f in pair for r in row]
        return row
    row = np.array(factors[0], dtype=float)
    for pair in factors[1:]:
        row = np.kron(np.array(pair, dtype=float), row)
    return row


def build_matrix(params: ModelParams, max_n: Optional[int] = None) -> TransitionMatrix:
    """Tabulate transition_row for every source state.

    Args:
        params: model parameters; exact fractions switch on rational mode.
        max_n: optional override of the size cap (FLOAT_CAP or RATIONAL_CAP).

    Raises:
        BudgetExceeded: when n exceeds the applicable cap.
    """
    cap = max_n if max_n is not None else (RATIONAL_CAP if params.exact else FLOAT_CAP)
    if params.n > cap:
        raise BudgetExceeded(
            f"n={params.n} exceeds the {'rational' if params.exact else 'float'} cap {cap}"
        )
    ns = params.n_states
    if params.exact:
        entries = tuple(tuple(transition_row(a, params)) for a in range(ns))
        return TransitionMatrix(params=params, entries=entries, exact=True)
    mat = np.empty((ns, ns), dtype=float)
    for a in range(ns):
        mat[a, :] = transition_row(a, params)
    return TransitionMatrix(params=params, entries=mat, exact=False)


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
    normalization sum(pi) = 1.

    Raises:
        SolveFailed: if the system is singular (chain not ergodic; cannot
            happen for validated parameters).
    """
    ns = matrix.n_states
    if matrix.exact:
        rows = [
            [matrix.entries[a][b] - (1 if a == b else 0) for a in range(ns)]
            for b in range(ns)
        ]
        rows[-1] = [Fraction(1)] * ns
        rhs = [Fraction(0)] * (ns - 1) + [Fraction(1)]
        pi = _solve_exact_linear(rows, rhs)
        return StationaryTable(params=matrix.params, probs=tuple(pi), source="solver")
    p = matrix.entries
    a = p.T - np.eye(ns)
    a[-1, :] = 1.0
    b = np.zeros(ns)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SolveFailed(f"stationary solve failed: {exc}") from exc
    if not np.isfinite(pi).all():
        raise SolveFailed("stationary solve produced non-finite entries")
    return StationaryTable(params=matrix.params, probs=tuple(pi.tolist()), source="solver")


def check_irreducible_aperiodic(matrix: TransitionMatrix) -> bool:
    """Ergodicity certificate: 0^n reaches and is reached by every state in one
    step with positive probability, and 0^n holds itself with positive
    probability (aperiodicity)."""
    ns = matrix.n_states
    if matrix.exact:
        row0 = matrix.entries[0]
        col0 = [matrix.entries[a][0] for a in range(ns)]
        return all(x > 0 for x in row0) and all(x > 0 for x in col0) and row0[0] > 0
    p = matrix.entries
    return bool((p[0, :] > 0).all() and (p[:, 0] > 0).all() and p[0, 0] > 0)


def _check_consistent(table: StationaryTable, matrix: TransitionMatrix) -> None:
    if table.params != matrix.params:
        raise DimensionMismatch("table and matrix were built from different parameters")


def balance_residual(table: StationaryTable, matrix: TransitionMatrix):
    """Master-equation residual max_b |sum_a P[a->b] pi(a) - pi(b)|."""
    _check_consistent(table, matrix)
    if matrix.exact and isinstance(table.probs[0], Fraction):
        ns = matrix.n_states
        worst = Fraction(0)
        for b in range(ns):
            s = sum(matrix.entries[a][b] * table.probs[a] for a in range(ns))
            worst = max(worst, abs(s - table.probs[b]))
        return worst
    p = np.asarray(matrix.entries, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    return float(np.max(np.abs(p.T @ pi - pi)))


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
    matrix = build_matrix(params)
    ns = params.n_states
    edges = []
    for a in range(ns):
        sa = Configuration(a, params.n).to_string()
        row = matrix.entries[a]
        for b in range(ns):
            v = float(row[b])
            if v > threshold:
                edges.append((sa, Configuration(b, params.n).to_string(), v))
    return edges


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
