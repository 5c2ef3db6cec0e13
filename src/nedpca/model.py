"""Core model: configurations, update rules, the exact one-step law and the
stationary-table type every evaluator returns; montecarlo samples the law.

The process lives on a ring of n sites, each holding 0 or 1. All sites update
simultaneously. Site i reads the cyclic window (a_i, a_{i+1}, ..., a_{i+m-1})
of the OLD configuration and draws its new value:

    window 0^m          (open vacancy)     -> 1 with probability p1
    window 0^{m-1} 1    (blocked vacancy)  -> 1 with probability 1 - p2
    any other window    (forced)           -> 0 surely

An occupied site always starts its own window with a 1, so every particle
evaporates each step; survival of density is carried entirely by deposition.

Conventions used throughout the package:

  * sites are 1-based in the API; site arithmetic wraps modulo n
  * integer encoding maps site i to bit i-1, so site 1 is the least
    significant bit and the all-ones state on n sites is 2**n - 1
  * string form writes site 1 leftmost ("0110" has site 2 and 3 occupied);
    under this encoding the usual ascending integer order 0, 1, 2, ...
    matches the order in which stationary vectors are reported
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .errors import DimensionMismatch, ParamError

__all__ = [
    "ModelParams",
    "Configuration",
    "ConfigLike",
    "SiteWindow",
    "StationaryTable",
    "count_patterns",
    "pattern_totals",
    "classify_window",
    "site_update_prob",
    "transition_prob",
    "window_masks",
    "ror",
]

Real = Union[float, Fraction]


# ---- Parameters ----


@dataclass(frozen=True)
class ModelParams:
    """Ring size n, window size m, deposition probability p1, blocking p2.

    p1 and p2 may be floats or exact `fractions.Fraction` values. Two
    Fractions switch downstream evaluators into rational arithmetic; a mixed
    pair is stored as two floats, the arithmetic it runs in.
    """

    n: int
    m: int
    p1: Real
    p2: Real

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise ParamError(f"n and m must be integers, got n={self.n!r} m={self.m!r}")
        if not 2 <= self.m <= self.n:
            raise ParamError(f"need 2 <= m <= n, got m={self.m}, n={self.n}")
        if not 0 < self.p1 < 1:
            raise ParamError(f"p1 must lie in (0,1), got {self.p1!r}")
        # p2 = 1 is allowed: a blocked vacancy then deterministically stays 0.
        if not 0 < self.p2 <= 1:
            raise ParamError(f"p2 must lie in (0,1], got {self.p2!r}")
        if isinstance(self.p1, Fraction) != isinstance(self.p2, Fraction):
            object.__setattr__(self, "p1", float(self.p1))
            object.__setattr__(self, "p2", float(self.p2))

    @property
    def exact(self) -> bool:
        """True when both probabilities are exact fractions."""
        return isinstance(self.p1, Fraction) and isinstance(self.p2, Fraction)

    @property
    def n_states(self) -> int:
        return 1 << self.n


# ---- Configurations ----


def ror(code: int, k: int, n: int) -> int:
    """Cyclic right rotation within n bits: bit i of the result is bit (i+k) mod n."""
    k %= n
    if k == 0:
        return code
    mask = (1 << n) - 1
    return ((code >> k) | (code << (n - k))) & mask


@dataclass(frozen=True)
class Configuration:
    """An n-site ring state in canonical integer encoding (site 1 = bit 0)."""

    code: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParamError(f"ring size must be positive, got {self.n}")
        if not 0 <= self.code < (1 << self.n):
            raise ParamError(f"code {self.code} out of range for n={self.n}")

    @classmethod
    def from_string(cls, s: str) -> "Configuration":
        """Parse a binary string with site 1 leftmost, e.g. "0110"."""
        # checked first: int() would also accept "_", "+" and whitespace
        if not s or s.strip("01"):
            raise ParamError(f"configuration string must be nonempty over 0/1, got {s!r}")
        return cls(int(s[::-1], 2), len(s))

    @classmethod
    def coerce(cls, value: "ConfigLike", n: int) -> "Configuration":
        """Accept a Configuration, an integer code (numpy's too), or a binary string."""
        if isinstance(value, Configuration):
            if value.n != n:
                raise ParamError(f"configuration has n={value.n}, expected n={n}")
            return value
        if isinstance(value, str):
            conf = cls.from_string(value)
            if conf.n != n:
                raise ParamError(f"string length {conf.n} does not match n={n}")
            return conf
        if isinstance(value, (int, numbers.Integral)):  # int first: the ABC check is slow
            return cls(int(value), n)
        raise ParamError(f"cannot interpret {value!r} as a configuration")

    def bit(self, site: int) -> int:
        """Value at a 1-based site index, wrapping around the ring."""
        return (self.code >> ((site - 1) % self.n)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.to_string().encode().translate(bytes.maketrans(b"01", b"\0\1")))

    def to_string(self) -> str:
        return format(self.code, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_string()


ConfigLike = Union[Configuration, int, str]


# ---- Stationary tables ----


@dataclass(frozen=True, eq=False)
class StationaryTable:
    """Probability vector over all configurations in ascending integer order."""

    params: ModelParams
    probs: tuple

    def __post_init__(self) -> None:
        if len(self.probs) != self.params.n_states:
            raise DimensionMismatch(
                f"table length {len(self.probs)} != 2**n = {self.params.n_states}"
            )

    def prob(self, beta: ConfigLike):
        return self.probs[Configuration.coerce(beta, self.params.n).code]


# ---- Pattern statistics ----


def pattern_totals(codes: Union[Sequence[int], bytes], params: ModelParams) -> list[int]:
    """[n1, *n10r1, n0m1] summed over integer codes.

    n1 counts 1s. n10r1[r-1] counts occurrences of 1 0^r 1 for r = 1..m-2.
    n0m1 counts occurrences of 0^{m-1} 1. All windows wrap around the ring.

    Each code is written twice over (c | c << n) into its own byte-aligned
    field of one integer, so every cyclic window that starts at one of the n
    sites reads forward without wrapping; a right shift then moves every
    window of every code at once. Costs O(m) big-integer operations for the
    whole list (multi-spin coding, Jacobs & Rebbi 1981). codes may also come
    as bytes already laid out: (2n + 7) // 8 little-endian bytes per code.
    """
    n, m = params.n, params.m
    field = (2 * n + 7) // 8  # bytes per code
    if not isinstance(codes, bytes):
        codes = b"".join(c.to_bytes(field, "little") for c in codes)
    count = len(codes) // field
    packed = int.from_bytes(codes, "little")
    doubled = packed | packed << n
    zeros = ~doubled & ((1 << 8 * field * count) - 1)
    # zero_run holds, at bit i of each field, whether sites i+1 .. i+r are all
    # empty; starting it as each field's n window starts masks every count
    zero_run = int.from_bytes(((1 << n) - 1).to_bytes(field, "little") * count, "little")
    totals = [packed.bit_count()]
    for r in range(1, m - 1):
        zero_run &= zeros >> r
        totals.append((doubled & zero_run & doubled >> (r + 1)).bit_count())
    totals.append((zeros & zero_run & doubled >> (m - 1)).bit_count())
    return totals


def count_patterns(beta: ConfigLike, params: ModelParams) -> list[int]:
    """[n1, *n10r1, n0m1] of one configuration (object, integer code, or binary string)."""
    return pattern_totals([Configuration.coerce(beta, params.n).code], params)


# ---- Window classification and site law ----


class SiteWindow(Enum):
    OPEN_VACANCY = "open-vacancy"  # window 0^m
    BLOCKED_VACANCY = "blocked-vacancy"  # window 0^{m-1} 1
    FORCED = "forced"  # any window with a 1 among the first m-1 symbols


def classify_window(alpha: ConfigLike, site: int, params: ModelParams) -> SiteWindow:
    """Class of the window (a_site, ..., a_{site+m-1}), site given 1-based."""
    conf = Configuration.coerce(alpha, params.n)
    if not 1 <= site <= params.n:
        raise ParamError(f"site must lie in 1..{params.n}, got {site}")
    if any(conf.bit(site + t) for t in range(params.m - 1)):
        return SiteWindow.FORCED
    if conf.bit(site + params.m - 1):
        return SiteWindow.BLOCKED_VACANCY
    return SiteWindow.OPEN_VACANCY


def site_update_prob(window: SiteWindow, new_bit: int, params: ModelParams) -> Real:
    """Probability that a site with the given window takes the given new value."""
    if new_bit not in (0, 1):
        raise ParamError(f"new_bit must be 0 or 1, got {new_bit!r}")
    if window is SiteWindow.OPEN_VACANCY:
        return params.p1 if new_bit else 1 - params.p1
    if window is SiteWindow.BLOCKED_VACANCY:
        return 1 - params.p2 if new_bit else params.p2
    # forced sites evaporate surely; integer constants stay exact in both
    # float and Fraction arithmetic
    return 0 if new_bit else 1


def transition_prob(alpha: ConfigLike, beta: ConfigLike, params: ModelParams) -> Real:
    """One-step probability P[alpha -> beta]: product of independent site factors."""
    a = Configuration.coerce(alpha, params.n)
    b = Configuration.coerce(beta, params.n)
    prob: Real = 1
    for site in range(1, params.n + 1):
        prob *= site_update_prob(classify_window(a, site, params), b.bit(site), params)
        if prob == 0:
            break
    return prob


# ---- Window masks ----


def window_masks(code: int, params: ModelParams) -> tuple[int, int]:
    """Bit masks of open and blocked vacancies, via word-level rotations.

    Bit i of the first mask is set when site i+1 sees the window 0^m, bit i of
    the second when it sees 0^{m-1} 1. Everything else is forced. Costs O(m)
    word operations regardless of n. An int64 array of codes (n <= 62) gives
    the two masks of every code at once and is left unchanged.
    """
    n, m = params.n, params.m
    mask = (1 << n) - 1
    occupied_ahead = code  # OR of the first m-1 window symbols, per site
    for t in range(1, m - 1):
        occupied_ahead = occupied_ahead | ror(code, t, n)
    closing = ror(code, m - 1, n)
    return ~occupied_ahead & ~closing & mask, ~occupied_ahead & closing & mask

