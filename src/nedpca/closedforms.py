"""Closed-form stationary analytics: product weights, partition function, density.

The stationary law of the chain factorizes over cyclic patterns:

    weight(beta) = p1^N1 * (1-p1)^(sum_r r*N_{10^r 1} + (m-1)*N_{0^{m-1} 1})
                   * p2^(-N_{0^{m-1} 1})

and pi(beta) = weight(beta) / Z. The normalizing constant admits a cycle
counting expansion

    Z_{n,m} = 1 + sum_{k=1}^{n} sum_{(M,N)} sum_{x in T_M}
              (n/k) * multinomial(k; x_1..x_{m-2}, N, k-N-sum x)
              * binom(n-k-M-(m-2)N-1, N-1) * p1^k (1-p1)^{M+(m-1)N} p2^{-N}

over the index pairs (M,N) and weighted compositions x enumerated below; the
site density is the same sum without the n/k prefactor, divided by Z. Both
sums are evaluated here in float or exact rational arithmetic.

The term structure depends only on (n, m), so it is compiled once per shape
into a table of monomials p1^k (1-p1)^e p2^(-N), e = M + (m-1)N: terms that
share the key (k, e, N) are merged by adding their exact integer
multiplicities and occupied multiplicities. `weight_terms` stays the
reference enumerator the table is built from. A float evaluation is one
matrix-vector product of the exponent array with (log p1, log(1-p1), -log p2),
one exponential and two compensated sums, giving Z - 1 and the density
numerator together; an exact evaluation sums the merged monomials in
fractions. Tables are cached for the TABLE_CACHE_SIZE most recently used
(n, m) shapes, and nothing is built at import. The bound must stay at least
49: acceptance criterion 06 evaluates n = 2..50 at m = 2 for each grid point
in turn, and a smaller cache would evict every table before its next use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .errors import BudgetExceeded, NedpcaError, ParamError
from .model import ConfigLike, ModelParams, count_patterns
from .solver import FLOAT_CAP, StationaryTable

__all__ = [
    "RATIONAL_CAP",
    "IndexPairSet",
    "CompositionSet",
    "WeightTerm",
    "stationary_weight",
    "stationary_table_formula",
    "enumerate_index_pairs",
    "enumerate_compositions",
    "weight_terms",
    "partition_formula",
    "density_formula",
]

# Exact-rational evaluation is meant for algebra verification at small n.
RATIONAL_CAP = 12

# (n, m) term tables kept; see the module docstring for why it is at least 49.
TABLE_CACHE_SIZE = 64

Real = Union[float, Fraction]


# ---- Stationary weight and table ----


def stationary_weight(beta: ConfigLike, params: ModelParams) -> Real:
    """Unnormalized stationary weight of a configuration; pi = weight / Z."""
    counts = count_patterns(beta, params)
    return (
        params.p1 ** counts.n1
        * (1 - params.p1) ** counts.weight_zero_exponent()
        * params.p2 ** (-counts.n0m1)
    )


def stationary_table_formula(params: ModelParams) -> StationaryTable:
    """All 2**n weights normalized by their sum.

    Raises:
        BudgetExceeded: n above FLOAT_CAP (float) or RATIONAL_CAP (fractions).
    """
    cap = RATIONAL_CAP if params.exact else FLOAT_CAP
    if params.n > cap:
        raise BudgetExceeded(f"n={params.n} exceeds the table cap {cap}")
    weights = [stationary_weight(code, params) for code in range(params.n_states)]
    if params.exact:
        z = sum(weights)
        probs = tuple(w / z for w in weights)
    else:
        z = math.fsum(weights)
        probs = tuple(w / z for w in weights)
    return StationaryTable(params=params, probs=probs, source="formula")


# ---- Combinatorial index sets ----


@dataclass(frozen=True)
class IndexPairSet:
    """The admissible (M, N) pairs for a given n, m, k."""

    n: int
    m: int
    k: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CompositionSet:
    """Tuples (x_1..x_{m-2}) in {0..k}^{m-2} with weighted sum M."""

    M: int
    k: int
    m: int
    tuples: tuple[tuple[int, ...], ...]


def enumerate_index_pairs(n: int, m: int, k: int) -> IndexPairSet:
    """All pairs (M, N) with M in {0..n-k-m+1} union {n-k},
    0 <= N <= floor((n-k-M)/(m-1)), and N = 0 exactly when M = n-k.
    """
    if not 1 <= k <= n:
        raise ParamError(f"need 1 <= k <= n, got k={k}, n={n}")
    if m < 2:
        raise ParamError(f"need m >= 2, got {m}")
    m_values = set(range(0, n - k - m + 2)) | {n - k}  # range is empty when n-k < m-1
    pairs = []
    for big_m in sorted(m_values):
        top = (n - k - big_m) // (m - 1)
        for big_n in range(top + 1):
            if (big_n == 0) != (big_m == n - k):
                continue
            pairs.append((big_m, big_n))
    return IndexPairSet(n=n, m=m, k=k, pairs=tuple(pairs))


def enumerate_compositions(M: int, k: int, m: int) -> CompositionSet:
    """All (x_1..x_{m-2}) with 0 <= x_s <= k and sum_s s*x_s = M.

    For m=2 the tuple is empty: the set holds exactly the empty tuple when
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
    return CompositionSet(M=M, k=k, m=m, tuples=tuple(found))


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
    def p1_exponent(self) -> int:
        return self.k

    @property
    def one_minus_p1_exponent(self) -> int:
        return self.M + (self.m - 1) * self.N

    @property
    def p2_exponent(self) -> int:
        return -self.N

    @property
    def m(self) -> int:
        return len(self.x) + 2


def _binom(a: int, b: int) -> int:
    # conventions: binom(-1,-1) = 1; binom(a,-1) = 0 for a >= 0;
    # binom(a,b) = 0 for b > a >= 0 or negative a otherwise
    if b < 0:
        return 1 if (a == -1 and b == -1) else 0
    if a < 0 or b > a:
        return 0
    return math.comb(a, b)


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
        for big_m, big_n in enumerate_index_pairs(n, m, k).pairs:
            for x in enumerate_compositions(big_m, k, m).tuples:
                last = k - big_n - sum(x)
                if last < 0:
                    continue  # impossible selection; the multinomial is 0
                occ = _multinomial(k, x + (big_n, last)) * _binom(
                    n - k - big_m - (m - 2) * big_n - 1, big_n - 1
                )
                if occ == 0:
                    continue
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


@dataclass(frozen=True)
class _TermTable:
    """The partition sum of one (n, m), merged by monomial key (k, e, N).

    exact holds (k, e, N, multiplicity, occupied multiplicity) in integers;
    exponents and log_counts are the same rows as read-only float arrays.
    """

    exact: tuple[tuple[int, int, int, int, int], ...]
    exponents: np.ndarray  # (r, 3): k, e, N
    log_counts: np.ndarray  # (r, 2): log multiplicity, log occupied multiplicity


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _term_table(n: int, m: int) -> _TermTable:
    merged: dict[tuple[int, int, int], list[int]] = {}
    # the enumeration reads only n and m; the probabilities are placeholders
    for t in weight_terms(ModelParams(n, m, 0.5, 0.5)):
        counts = merged.setdefault((t.k, t.one_minus_p1_exponent, t.N), [0, 0])
        counts[0] += t.multiplicity
        counts[1] += t.occupied_multiplicity
    exact = tuple(key + (mult, occ) for key, (mult, occ) in merged.items())
    exponents = np.array([row[:3] for row in exact], dtype=float)
    # weight_terms drops classes with no occupied count, so both logs are finite
    log_counts = np.array([(math.log(row[3]), math.log(row[4])) for row in exact])
    exponents.setflags(write=False)
    log_counts.setflags(write=False)
    return _TermTable(exact=exact, exponents=exponents, log_counts=log_counts)


def _sums(params: ModelParams) -> tuple[Real, Real]:
    """Z and the density numerator (configurations with site 1 occupied)."""
    _check_rational_cap(params)
    table = _term_table(params.n, params.m)
    p1, p2 = params.p1, params.p2
    if params.exact:
        z = occupied = Fraction(0)
        for k, e, big_n, mult, occ in table.exact:
            w = p1 ** k * (1 - p1) ** e * p2 ** (-big_n)
            z += mult * w
            occupied += occ * w
        return 1 + z, occupied
    # exponent-and-log form keeps huge multiplicities away from overflow
    log_weights = table.exponents @ np.array([math.log(p1), math.log1p(-p1), -math.log(p2)])
    try:
        with np.errstate(over="raise"):
            terms = np.exp(table.log_counts + log_weights[:, None])
    except FloatingPointError as exc:
        raise OverflowError("math range error") from exc
    return 1 + math.fsum(terms[:, 0]), math.fsum(terms[:, 1])


def _check_rational_cap(params: ModelParams) -> None:
    if params.exact and params.n > RATIONAL_CAP:
        raise BudgetExceeded(
            f"exact-rational evaluation is capped at n <= {RATIONAL_CAP}, got n={params.n}"
        )


def partition_formula(params: ModelParams) -> Real:
    """The normalizing constant Z_{n,m} by the cycle-counting expansion.

    Float parameters give a compensated floating sum; exact fractions give the
    exact rational value (n capped at RATIONAL_CAP in that mode).
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
