"""Monte Carlo sampling of the chain with interchangeable update kernels.

Both kernels consume exactly one uniform per site per step (the draw is
discarded at forced sites), in site order, and test it against the same
doubles, float(p1) and 1 - float(p2) from _thresholds, so scalar_step (the
site-by-site reference) and the bit-parallel kernel give bit-identical
trajectories from one seed. The latter packs a chunk's threshold comparisons
into one int per step and threshold and updates all sites from the doubled
code c | c << n with a few integer operations and no function call. Chains
whose codes fit one 64-bit word step as one integer, chain j in the field of
(2n + 7) // 8 bytes at field j (multi-spin coding across samples, Jacobs &
Rebbi 1981); _advance alone steps such a group, or one chain, with either kernel.

Each chain draws from its own stream (numpy's SeedSequence.spawn) in chunks of
at most _CHUNK_DOUBLES doubles (1 MiB), and frees each chunk before drawing the
next; Philox hands out its doubles in order whatever the chunk shape. Each
group runs on a worker thread, up to the usable cores; the Philox fill and
np.packbits release the GIL. Each chain keeps one integer table with a row per
batch of retained samples, [samples, n1, *n10r1, n0m1], filled by one
pattern_totals call per batch segment of a chunk; the summary is read off the
chains' rows. All accumulators are integers until the final division, so a
fixed plan gives the same summary whatever the kernel, grouping, worker count
and chunking. The one field outside that guarantee is steps_per_second.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, DomainError, ParamError
from .model import (
    ConfigLike,
    Configuration,
    ModelParams,
    StationaryTable,
    pattern_totals,
)

__all__ = [
    "HISTOGRAM_AUTO_LIMIT",
    "HISTOGRAM_CAP",
    "TRACE_CAP",
    "SimulationPlan",
    "EmpiricalSummary",
    "scalar_step",
    "run",
    "tv_distance",
    "kernel_throughput",
]

HISTOGRAM_AUTO_LIMIT = 65_536  # state count above which histograms default off
HISTOGRAM_CAP = 1 << 20  # hard ceiling even when explicitly requested
TRACE_CAP = 100_000  # max trace lines written per run
_NUM_BATCHES = 32  # batches per chain for the batch-means error bar
_CHUNK_DOUBLES = 1 << 17  # uniforms per draw (1 MiB): a chunk is max(1, this // n) steps

_KERNELS = ("bitparallel", "scalar")


@dataclass(frozen=True)
class SimulationPlan:
    """Frozen description of one sampling run.

    samples counts retained configurations per chain; the run visits
    burn_in + samples * thin steps in each chain. start accepts a
    configuration (Configuration, int code, or site-1-leftmost string) or the
    shorthands "zeros" / "ones". histogram=None enables state counting
    automatically for state spaces up to HISTOGRAM_AUTO_LIMIT.

    The plan fixes the summary, not how it is computed: run() picks the chunk
    size and the chain groups, and runs a worker per group, up to the usable cores.
    """

    params: ModelParams
    seed: int
    samples: int
    chains: int = 1
    burn_in: int = 10_000
    thin: int = 1
    start: Union[ConfigLike, str] = 0
    kernel: str = "bitparallel"
    histogram: Optional[bool] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("samples", 0), ("chains", 1), ("thin", 1), ("burn_in", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or v < least:
                kind = "positive" if least else "nonnegative"
                raise ParamError(f"{name} must be a {kind} int, got {v!r}")
        if self.kernel not in _KERNELS:
            raise ParamError(f"kernel must be one of {_KERNELS}, got {self.kernel!r}")
        if self.histogram and self.params.n_states > HISTOGRAM_CAP:
            raise BudgetExceeded(
                f"histogram over {self.params.n_states} states exceeds cap {HISTOGRAM_CAP}"
            )
        self.start_code  # validate eagerly

    @property
    def start_code(self) -> int:
        if self.start == "zeros":
            return 0
        if self.start == "ones":
            return self.params.n_states - 1
        return Configuration.coerce(self.start, self.params.n).code

    @property
    def histogram_enabled(self) -> bool:
        if self.histogram is None:
            return self.params.n_states <= HISTOGRAM_AUTO_LIMIT
        return self.histogram


@dataclass(frozen=True)
class EmpiricalSummary:
    """Merged estimates from all chains of one run.

    Means are per site: density_mean estimates P[site occupied]; the
    pattern_means entries give the expected per-site rate of occupied sites
    ("n1"), of each inner pattern 1 0^r 1 for r = 1..m-2 ("n10r1", tuple),
    and of full-gap windows 0^(m-1) 1 ("n0m1"). histogram holds raw visit
    counts indexed by configuration code, or None when disabled. stderr is a
    batch-means estimate (NaN when fewer than two batches contribute).
    """

    plan: SimulationPlan
    total_samples: int
    density_mean: float
    density_stderr: float
    pattern_means: dict
    histogram: Optional[tuple]
    steps_per_second: float

    def to_json_dict(self) -> dict:
        p = self.plan.params

        def safe(x: float):
            return None if isinstance(x, float) and not math.isfinite(x) else x

        return {
            "n": p.n,
            "m": p.m,
            "p1": float(p.p1),
            "p2": float(p.p2),
            "seed": self.plan.seed,
            "chains": self.plan.chains,
            "kernel": self.plan.kernel,
            "samples": self.total_samples,
            "density_mean": safe(self.density_mean),
            "density_stderr": safe(self.density_stderr),
            "pattern_means": {
                "n1": safe(self.pattern_means["n1"]),
                "n10r1": [safe(x) for x in self.pattern_means["n10r1"]],
                "n0m1": safe(self.pattern_means["n0m1"]),
            },
            "histogram": None if self.histogram is None else list(self.histogram),
            "steps_per_second": safe(self.steps_per_second),
        }


def _row_words(bits: Sequence[np.ndarray], field: int) -> list[int]:
    """One int per row t of a group's boolean arrays; bits[j][t, i] is bit i from byte field * j."""
    packed = [np.packbits(b, axis=1, bitorder="little") for b in bits]
    rows, width = packed[0].shape
    words = np.zeros((rows, max(8, field * (len(packed) - 1) + width)), dtype=np.uint8)
    for j, chain in enumerate(packed):
        words[:, field * j : field * j + width] = chain
    if words.shape[1] == 8:  # a row fits one machine word: convert the whole chunk at once
        return words.view("<u8").ravel().tolist()
    data, stride = words.tobytes(), words.shape[1]
    return [int.from_bytes(data[lo : lo + stride], "little") for lo in range(0, len(data), stride)]


def _thresholds(params: ModelParams) -> tuple[float, float]:
    # the doubles every kernel tests a uniform against, whatever the number type
    return float(params.p1), 1.0 - float(params.p2)


def scalar_step(code: int, params: ModelParams, u: Sequence[float]) -> int:
    """Reference one-step update, site by site.

    u must supply n uniforms indexed 0..n-1. Draw i is compared against
    float(p1) at an open vacancy and against 1 - float(p2) at a blocked one; it
    is ignored (but still consumed) at forced sites, so any kernel fed the same
    stream makes identical decisions.
    """
    n, m = params.n, params.m
    p1, r2 = _thresholds(params)
    new = 0
    for i in range(n):
        forced = False
        for t in range(m - 1):
            if (code >> ((i + t) % n)) & 1:
                forced = True
                break
        if forced:
            continue
        if (code >> ((i + m - 1) % n)) & 1:
            if u[i] < r2:
                new |= 1 << i
        elif u[i] < p1:
            new |= 1 << i
    return new


def _advance(code: int, params: ModelParams, u: Union[np.ndarray, list], kernel: str) -> list[int]:
    """Step once per row of u from code; return the code after every step. u is
    one (rows, n) array or a group's list of them, chain j in field j of code."""
    chunks = [u] if isinstance(u, np.ndarray) else u
    n, m = params.n, params.m
    field = (2 * n + 7) // 8
    trajectory = []
    if kernel == "scalar":
        shifts = range(0, 8 * field * len(chunks), 8 * field)
        for rows in zip(*chunks):  # scalar_step reads only the low n bits of code >> s
            code = sum(scalar_step(code >> s, params, row) << s for s, row in zip(shifts, rows))
            trajectory.append(code)
        return trajectory
    # window_masks inline: bit i of doubled >> t is bit (i + t) mod n of code, so
    # ~occupied & ~closing marks the open vacancies and ~occupied & closing the
    # blocked ones. A field holds 8F >= 2n bits, so each window reads its own
    # chain; b1, b2 have bits only in each field's low n, so no mask is needed
    inner = range(1, m - 1)
    for b1, b2 in zip(*(_row_words([c < x for c in chunks], field) for x in _thresholds(params))):
        doubled = code | code << n
        occupied = code
        for t in inner:
            occupied |= doubled >> t
        closing = doubled >> (m - 1)
        code = ~occupied & ((b1 & ~closing) | (b2 & closing))
        trajectory.append(code)
    return trajectory


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_size(n: int) -> int:
    # chains whose codes, one field of (2n + 7) // 8 bytes each, fit one 64-bit word
    return 1 + max(0, 64 - n) // (8 * ((2 * n + 7) // 8))


def _run_group(
    plan: SimulationPlan, trace: Optional[TextIO], seeds: Sequence, stop: threading.Event
) -> tuple[list, Optional[np.ndarray]]:
    """Each chain's per-batch table, one row [samples, *pattern_totals] per batch, and
    the group's histogram; its first chain's first TRACE_CAP retained codes go to trace."""
    params = plan.params
    n = params.n
    field, mask = (2 * n + 7) // 8, params.n_states - 1
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    rows = max(1, _CHUNK_DOUBLES // n)
    hist = np.zeros(params.n_states, dtype=np.int64) if plan.histogram_enabled else None
    tables = [[[0] * (params.m + 1) for _ in range(_NUM_BATCHES)] for _ in seeds]

    total_steps = plan.burn_in + plan.samples * plan.thin
    first = plan.burn_in + plan.thin - 1  # the first retained step
    code = sum(plan.start_code << 8 * field * j for j in range(len(seeds)))
    done = retained = 0
    # the stop flag lets run() abandon this group between chunks
    while done < total_steps and not stop.is_set():
        u = [rng.random((min(rows, total_steps - done), n)) for rng in rngs]
        trajectory = _advance(code, params, u, plan.kernel)
        code = trajectory[-1]
        kept = trajectory[max(first - done, (first - done) % plan.thin) :: plan.thin]
        done += len(trajectory)
        if trace is not None and retained < TRACE_CAP:
            trace.writelines(
                Configuration(c & mask, n).to_string() + "\n" for c in kept[: TRACE_CAP - retained]
            )
        if n <= 64:  # the group's codes fit one word: every field's bytes from one array
            words = np.array(kept, dtype="<u8")
            lanes = np.zeros((len(kept), 8 + field), dtype=np.uint8)
            lanes[:, :8] = words.view(np.uint8).reshape(-1, 8)
        else:  # a group of one chain wider than a word
            data = b"".join(c.to_bytes(field, "little") for c in kept)
            lanes = np.frombuffer(data, dtype=np.uint8).reshape(-1, field)
        i = 0
        while i < len(kept):
            # sample j falls in batch j * _NUM_BATCHES // samples; end starts the next batch
            b = (retained + i) * _NUM_BATCHES // plan.samples
            end = min(len(kept), -(-(b + 1) * plan.samples // _NUM_BATCHES) - retained)
            for j, table in enumerate(tables):
                counts = pattern_totals(lanes[i:end, field * j : field * (j + 1)].tobytes(), params)
                table[b] = [x + y for x, y in zip(table[b], [end - i, *counts])]
            i = end
        retained += len(kept)
        if hist is not None:
            for shift in range(0, 8 * field * len(seeds), 8 * field):  # a masked field fits int64
                hist += np.bincount((words >> shift & mask).view("<i8"), minlength=len(hist))
        del u, trajectory, kept, lanes  # free this chunk before the next one is drawn
    return tables, hist


def run(plan: SimulationPlan) -> EmpiricalSummary:
    """Execute the plan and return merged estimates."""
    params = plan.params
    n = params.n
    children = np.random.SeedSequence(plan.seed).spawn(plan.chains)
    g = _group_size(n)
    groups = [children[lo : lo + g] for lo in range(0, plan.chains, g)]
    workers = min(len(groups), _usable_cores())
    stop = threading.Event()

    def group(i: int, seeds) -> tuple[list, Optional[np.ndarray]]:
        try:
            return _run_group(plan, trace_file if i == 0 else None, seeds, stop)
        except BaseException:
            stop.set()
            raise

    # the trace is opened before any chain steps, so a bad path costs no sampling;
    # chain 0 writes to it as it samples
    trace_file = open(plan.trace_path, "w") if plan.trace_path else None
    t0 = time.perf_counter()
    # leaving the pool joins its workers, so a failure or an interrupt must
    # stop the other groups first
    with trace_file or contextlib.nullcontext(), ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            results = list(pool.map(group, range(len(groups)), groups))
        except BaseException:
            stop.set()
            raise
    elapsed = time.perf_counter() - t0
    total_steps = plan.chains * (plan.burn_in + plan.samples * plan.thin)
    steps_per_second = total_steps / elapsed if elapsed > 0 else float("inf")

    total_samples = plan.samples * plan.chains
    denom = total_samples * n
    nan = float("nan")
    rows = [row for tables, _ in results for table in tables for row in table]
    means = [sum(col) / denom if denom else nan for col in list(zip(*rows))[1:]]
    pattern_means = {"n1": means[0], "n10r1": tuple(means[1:-1]), "n0m1": means[-1]}
    batch_means = [ones / (size * n) for size, ones, *_ in rows if size]
    density_stderr = nan
    if len(batch_means) >= 2:
        density_stderr = float(np.std(batch_means, ddof=1) / math.sqrt(len(batch_means)))

    hist = sum(h for _, h in results) if plan.histogram_enabled else None

    return EmpiricalSummary(
        plan=plan,
        total_samples=total_samples,
        density_mean=means[0],
        density_stderr=density_stderr,
        pattern_means=pattern_means,
        histogram=None if hist is None else tuple(int(x) for x in hist),
        steps_per_second=steps_per_second,
    )


def tv_distance(summary: EmpiricalSummary, table: StationaryTable) -> float:
    """Total variation distance between the empirical histogram and a stationary table."""
    if summary.histogram is None:
        raise DomainError("summary carries no histogram; rerun with histogram=True")
    if summary.total_samples == 0:
        raise DomainError("empty summary has no empirical distribution")
    if len(summary.histogram) != len(table.probs):
        raise DimensionMismatch(
            f"histogram over {len(summary.histogram)} states vs table over {len(table.probs)}"
        )
    sp, tp = summary.plan.params, table.params
    if (sp.n, sp.m) != (tp.n, tp.m) or float(sp.p1) != float(tp.p1) or float(sp.p2) != float(tp.p2):
        raise DomainError(f"parameter mismatch: summary {sp} vs table {tp}")
    total = summary.total_samples
    return 0.5 * math.fsum(
        abs(c / total - float(p)) for c, p in zip(summary.histogram, table.probs)
    )


def kernel_throughput(
    params: ModelParams, kernel: str, steps: int, seed: int = 0
) -> float:
    """Steps per second of one chain that retains no samples: burn-in only."""
    if steps < 1:
        raise ParamError(f"need steps >= 1, got {steps}")
    plan = SimulationPlan(params, seed, samples=0, burn_in=steps, kernel=kernel, histogram=False)
    return run(plan).steps_per_second
