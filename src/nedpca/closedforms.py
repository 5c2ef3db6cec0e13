"""Closed-form stationary analytics: product weights, partition function, density.

The stationary law of the chain factorizes over cyclic patterns:

    weight(beta) = p1^N1 * (1-p1)^(sum_r r*N_{10^r 1} + (m-1)*N_{0^{m-1} 1})
                   * p2^(-N_{0^{m-1} 1})

and pi(beta) = weight(beta) / Z. The exponents count the window classes of
`model.window_masks`: N_{0^{m-1} 1} is the number of blocked vacancies, and a
gap of g zeros adds min(g, m-1) to the (1-p1) exponent, one per vacancy whose
window holds a 1, so that exponent is n - N1 - #open vacancies. The
normalizing constant admits a cycle counting expansion

    Z_{n,m} = 1 + sum_{k=1}^{n} sum_{(M,N)} sum_{x in T_M}
              (n/k) * multinomial(k; x_1..x_{m-2}, N, k-N-sum x)
              * binom(n-k-M-(m-2)N-1, N-1) * p1^k (1-p1)^{M+(m-1)N} p2^{-N}

over the index pairs (M,N) and weighted compositions x enumerated below; the
site density is the same sum without the n/k prefactor, divided by Z. Both
are evaluated here in float or exact rational arithmetic.

`weight_terms` enumerates this sum term by term and is the reference it is
checked against. The evaluators use the equivalent gap-renewal recurrence: a
configuration splits into parts 1 0^(j-1), one per particle, whose weights
multiply, so Z and the density numerator are coefficients of one renewal
series. Both come from O(n*m) additions of nonnegative terms in O(m) memory.

The m = 2 reversibility ratio lives here too, because it reads the product
weights; the transition-matrix oracle in `solver` never does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .errors import BudgetExceeded, DomainError, NedpcaError, ParamError
from .model import (
    ConfigLike,
    Configuration,
    ModelParams,
    StationaryTable,
    transition_prob,
    window_masks,
)

__all__ = [
    "TABLE_CAP",
    "WeightTerm",
    "stationary_weight",
    "stationary_table_formula",
    "position_pairs",
    "reversibility_ratio",
    "enumerate_index_pairs",
    "enumerate_compositions",
    "weight_terms",
    "partition_formula",
    "density_formula",
]

# The stationary table lists all 2**n weights; an exact n = 16 table takes
# about a second, so the same cap serves floats and fractions.
TABLE_CAP = 16

Real = Union[float, Fraction]


# ---- Stationary weight and table ----


def stationary_weight(beta: ConfigLike, params: ModelParams) -> Real:
    """Unnormalized stationary weight of a configuration; pi = weight / Z."""
    code = Configuration.coerce(beta, params.n).code
    open_mask, blocked_mask = window_masks(code, params)
    n1, blocked = code.bit_count(), blocked_mask.bit_count()
    zeros = params.n - n1 - open_mask.bit_count()
    return params.p1**n1 * (1 - params.p1) ** zeros * params.p2 ** (-blocked)


def _weights(params: ModelParams) -> np.ndarray:
    # stationary_weight of every code from one window_masks call; its powers are
    # looked up in tables filled by **, so every product is the same number
    n, p1 = params.n, params.p1
    codes = np.arange(params.n_states, dtype=np.int64)
    open_mask, blocked_mask = window_masks(codes, params)
    n1, blocked = np.bitwise_count(codes), np.bitwise_count(blocked_mask)
    zeros = n - n1 - np.bitwise_count(open_mask)
    pw1 = np.array([p1**k for k in range(n + 1)])
    pw0 = np.array([(1 - p1) ** k for k in range(n + 1)])
    pw2 = np.array([params.p2 ** (-k) for k in range(n + 1)])
    return pw1[n1] * pw0[zeros] * pw2[blocked]


def stationary_table_formula(params: ModelParams) -> StationaryTable:
    """All 2**n weights normalized by their sum.

    Raises:
        BudgetExceeded: n above TABLE_CAP.
    """
    if params.n > TABLE_CAP:
        raise BudgetExceeded(f"n={params.n} exceeds the table cap {TABLE_CAP}")
    weights = _weights(params)
    z = sum(weights) if params.exact else math.fsum(weights)
    return StationaryTable(params=params, probs=tuple((weights / z).tolist()))


# ---- Reversibility ----


def position_pairs(config: ConfigLike, a: int, b: int, params: ModelParams) -> frozenset:
    """0-based ring positions i with value a at site i+1 and b at site i+2."""
    conf = Configuration.coerce(config, params.n)
    bits = conf.bits()
    n = params.n
    return frozenset(i for i in range(n) if bits[i] == a and bits[(i + 1) % n] == b)


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
    direct = float((stationary_weight(a, params) * p_ab) / (stationary_weight(b, params) * p_ba))

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


# ---- Combinatorial index sets ----


def enumerate_index_pairs(n: int, m: int, k: int) -> tuple[tuple[int, int], ...]:
    """All pairs (M, N) with M in {0..n-k-m+1} union {n-k},
    0 <= N <= floor((n-k-M)/(m-1)), and N = 0 exactly when M = n-k; ascending.
    """
    if not 1 <= k <= n:
        raise ParamError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m < 2:
        raise ParamError(f"need m >= 2, got {m}")
    return tuple(
        (big_m, big_n)
        for big_m in range(n - k - m + 2)
        for big_n in range(1, (n - k - big_m) // (m - 1) + 1)
    ) + ((n - k, 0),)


def enumerate_compositions(M: int, k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All (x_1..x_{m-2}) with 0 <= x_s <= k and sum_s s*x_s = M.

    For m=2 the tuple is empty: the result holds exactly the empty tuple when
    M=0 and nothing otherwise.
    """
    if M < 0:
        raise ParamError(f"need M >= 0, got {M}")
    if m < 2:
        raise ParamError(f"need m >= 2, got {m}")
    slots = m - 2
    found: list[tuple[int, ...]] = []

    def extend(pos: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if pos > slots:
            if remaining == 0:
                found.append(prefix)
            return
        for v in range(min(k, remaining // pos) + 1):
            extend(pos + 1, remaining - pos * v, prefix + (v,))

    extend(1, M, ())
    return tuple(found)


# ---- Weight terms ----


@dataclass(frozen=True)
class WeightTerm:
    """One monomial class of the partition sum.

    multiplicity counts the configurations sharing the signature
    (k ones, x-tuple of 1 0^s 1 counts, N blocked patterns); occupied_multiplicity
    counts those among them with site 1 occupied (the density sum drops the n/k
    prefactor, which is exactly this restriction).
    """

    k: int
    M: int
    N: int
    x: tuple[int, ...]
    multiplicity: int
    occupied_multiplicity: int

    @property
    def one_minus_p1_exponent(self) -> int:
        return self.M + (len(self.x) + 1) * self.N  # x has m-2 entries


def _multinomial(k: int, parts: tuple[int, ...]) -> int:
    # parts must be nonnegative and sum to k (checked by the caller)
    out = 1
    rem = k
    for p in parts:
        out *= math.comb(rem, p)
        rem -= p
    return out


def weight_terms(params: ModelParams) -> Iterator[WeightTerm]:
    """Yield every nonzero term class of the partition sum (the leading 1 for
    the empty configuration is not a term and is added by the evaluators)."""
    n, m = params.n, params.m
    for k in range(1, n + 1):
        for big_m, big_n in enumerate_index_pairs(n, m, k):
            for x in enumerate_compositions(big_m, k, m):
                last = k - big_n - sum(x)
                if last < 0:
                    continue  # impossible selection; the multinomial is 0
                # N = 0 exactly when M = n-k, where binom(-1, -1) = 1; otherwise
                # (m-1)N <= n-k-M puts the binomial's top at or above N-1 >= 0
                occ = _multinomial(k, x + (big_n, last)) * (
                    math.comb(n - k - big_m - (m - 2) * big_n - 1, big_n - 1) if big_n else 1
                )
                total = n * occ
                # the class count (n/k) * multinomial * binom is always integral
                if total % k != 0:
                    raise NedpcaError(str((n, m, k, big_m, big_n, x)))
                yield WeightTerm(
                    k=k,
                    M=big_m,
                    N=big_n,
                    x=x,
                    multiplicity=total // k,
                    occupied_multiplicity=occ,
                )


# ---- Partition function and density ----


def _sums(params: ModelParams) -> tuple[Real, Real]:
    """Z and the density numerator (configurations with site 1 occupied).

    c[L] is the total weight of the strings of length L cut into parts
    1 0^(j-1). A part of length j weighs a[j-1] = p1 (1-p1)^(j-1) for j < m
    and b for j >= m, so c[L] = sum_{j<m} a[j-1] c[L-j] + b (c[0] + .. + c[L-m]).
    The density numerator is c[n]; Z adds, over the part holding site 1, its
    weight times c[n-j] times the j places site 1 can take in it.
    """
    n, m, p1 = params.n, params.m, params.p1
    a = [p1 * (1 - p1) ** (j - 1) for j in range(1, m)]
    b = p1 * (1 - p1) ** (m - 1) / params.p2
    window: deque = deque([1], maxlen=m)  # c[L-m] .. c[L-1]
    # b times the sums of c[t] and of (L-m-t) c[t] over t <= L-m; all terms >= 0.
    # Carrying b inside keeps the sums below Z, so a float overflows only where Z does
    s = w = 0
    for length in range(1, n + 1):
        if length >= m:
            w += s
            s += b * window[0]
        short = sum(a[j - 1] * window[-j] for j in range(1, min(length, m - 1) + 1))
        window.append(short + s)
    # window[-1-j] is c[n-j]; w + m*s is b sum_{t<=n-m} (n-t) c[t]
    z = 1 + sum(j * a[j - 1] * window[-1 - j] for j in range(1, m)) + (w + m * s)
    occupied = window[-1]
    if not params.exact and not (math.isfinite(z) and math.isfinite(occupied)):
        raise OverflowError(f"Z at n={n}, m={m} overflows a float")
    return z, occupied


def partition_formula(params: ModelParams) -> Real:
    """The normalizing constant Z_{n,m} of the cycle-counting expansion.

    Evaluated by the gap-renewal recurrence. Float parameters give a float
    and raise OverflowError past the float range; exact fractions give the
    exact rational value at any n.
    """
    return _sums(params)[0]


def density_formula(params: ModelParams) -> Real:
    """Stationary probability that a fixed site is occupied.

    Same expansion as the partition function but restricted to configurations
    with site 1 occupied (no n/k prefactor), divided by Z. By rotation
    invariance this equals the mean occupied fraction.
    """
    z, occupied = _sums(params)
    return occupied / z
