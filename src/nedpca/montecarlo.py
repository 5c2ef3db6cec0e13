"""Monte Carlo sampling of the chain with interchangeable update kernels.

Both kernels consume exactly one uniform per site per step (the draw is
discarded at forced sites), in site order, and test it against the same
doubles, float(p1) and 1 - float(p2) from _thresholds, so scalar_step (the
site-by-site reference) and the bit-parallel kernel give bit-identical
trajectories from one seed. The latter packs a chunk's comparisons in one flat
pass into two ints per step, b1 = u < p1 and d = b1 ^ (u < 1 - p2), and updates
all sites from the doubled code c | c << n with a few integer operations and no
function call. Chains whose codes fit one 64-bit word step as one integer, chain
j in the field of (2n + 7) // 8 bytes at field j (multi-spin coding across
samples, Jacobs & Rebbi 1981); _advance alone steps such a group, or one chain.

Each chain reads its own stream (numpy's SeedSequence.spawn) in order, in chunks
of at most _CHUNK_DOUBLES doubles (1 MiB), one worker thread per group. The
bit-parallel kernel alone frees a chunk once packed and, when the groups leave a
usable core idle, has a worker draw the group's next chunk while it steps (the
Philox fill and np.packbits release the GIL). Each chain keeps an integer table,
one row [samples, n1, *n10r1, n0m1] per batch of retained samples. Integers until
the final division make a plan's summary the same whatever the kernel, grouping,
workers, prefetch and chunking; steps_per_second alone is outside that guarantee.
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
    size and the chain groups, and sizes its worker pool to the usable cores.
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


def _pack(params: ModelParams, chunks: Sequence[np.ndarray], kernel: str) -> tuple:
    """What _walk steps a group's (rows, n) chunks from: the doubles, or the rows' words
    b1 = u < p1 and d = b1 ^ (u < 1 - p2), chain j's site i at bit 8 * field * j + i."""
    if kernel == "scalar":
        return tuple(chunks)
    n, field = params.n, (2 * params.n + 7) // 8
    width = max(8, field * (len(chunks) - 1) + (n + 7) // 8)  # bytes per row
    bits = np.zeros((len(chunks[0]), 8 * width), dtype=bool)
    words = []
    for x in _thresholds(params):
        for j, c in enumerate(chunks):
            np.less(c, x, out=bits[:, 8 * field * j : 8 * field * j + n])
        words.append(np.packbits(bits, bitorder="little"))
    words[1] ^= words[0]
    if width == 8:  # a row fits one machine word: convert the whole chunk at once
        return tuple(w.view("<u8").tolist() for w in words)
    return tuple(
        [int.from_bytes(data[lo : lo + width], "little") for lo in range(0, len(data), width)]
        for data in (w.tobytes() for w in words)
    )


def _walk(code: int, params: ModelParams, packed: tuple, kernel: str) -> list[int]:
    """Step once per row of packed from code; return the code after every step."""
    n, m, field = params.n, params.m, (2 * params.n + 7) // 8
    trajectory = []
    if kernel == "scalar":
        shifts = range(0, 8 * field * len(packed), 8 * field)
        for rows in zip(*packed):  # scalar_step reads only the low n bits of code >> s
            code = sum(scalar_step(code >> s, params, row) << s for s, row in zip(shifts, rows))
            trajectory.append(code)
        return trajectory
    # window_masks inline: bit i of doubled >> t is bit (i + t) mod n of code, so
    # ~occupied & ~closing marks the open vacancies and ~occupied & closing the
    # blocked ones, where b1 ^ d = u < 1 - p2. A field holds 8F >= 2n bits, so each
    # window reads its own chain; b1, d have bits only in each field's low n
    inner = range(1, m - 1)
    for b1, d in zip(*packed):
        doubled = code | code << n
        occupied = code
        for t in inner:
            occupied |= doubled >> t
        code = ~occupied & (b1 ^ (d & doubled >> (m - 1)))
        trajectory.append(code)
    return trajectory


def _advance(code: int, params: ModelParams, u: Union[np.ndarray, list], kernel: str) -> list[int]:
    """Step once per row of u from code; return the code after every step. u is
    one (rows, n) array or a group's list of them, chain j in field j of code."""
    return _walk(code, params, _pack(params, [u] if isinstance(u, np.ndarray) else u, kernel), kernel)


def _draw(rngs: Sequence[np.random.Generator], rows: int, n: int) -> list[np.ndarray]:
    return [rng.random((rows, n)) for rng in rngs]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _group_size(n: int) -> int:
    # chains whose codes, one field of (2n + 7) // 8 bytes each, fit one 64-bit word
    return 1 + max(0, 64 - n) // (8 * ((2 * n + 7) // 8))


def _run_group(
    plan: SimulationPlan, trace: Optional[TextIO], seeds: Sequence, stop: threading.Event,
    pool: Optional[ThreadPoolExecutor],
) -> tuple[list, Optional[np.ndarray]]:
    """Each chain's per-batch table, one row [samples, *pattern_totals] per batch, and the group's
    histogram; its first chain's first TRACE_CAP retained codes go to trace. A pool draws ahead."""
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
    done, retained, ahead = 0, 0, None
    # the stop flag lets run() abandon this group between chunks
    while done < total_steps and not stop.is_set():
        # a draw the pool has not started is made here instead: each stream is read in order
        size, later = min(rows, total_steps - done), max(0, total_steps - done - rows)
        u = _draw(rngs, size, n) if ahead is None or ahead.cancel() else ahead.result()
        packed = _pack(params, u, plan.kernel)
        del u  # the bit-parallel kernel steps from the packed words alone
        ahead = pool.submit(_draw, rngs, min(rows, later), n) if pool and later else None
        trajectory = _walk(code, params, packed, plan.kernel)
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
        if hist is not None:  # a chunk touches few of up to 2^20 states, so no bincount
            for shift in range(0, 8 * field * len(seeds), 8 * field):
                np.add.at(hist, words >> shift & mask, 1)
        del packed, trajectory, kept, lanes  # free this chunk before the next one is packed
    return tables, hist


def run(plan: SimulationPlan) -> EmpiricalSummary:
    """Execute the plan and return merged estimates."""
    params = plan.params
    n = params.n
    children = np.random.SeedSequence(plan.seed).spawn(plan.chains)
    g = _group_size(n)
    groups = [children[lo : lo + g] for lo in range(0, plan.chains, g)]
    workers = _usable_cores()
    stop = threading.Event()

    def group(i: int, seeds) -> tuple[list, Optional[np.ndarray]]:
        try:  # idle workers draw ahead, but not for the scalar kernel, which steps from its doubles
            spare = pool if len(groups) < workers and plan.kernel == "bitparallel" else None
            return _run_group(plan, trace_file if i == 0 else None, seeds, stop, spare)
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
        histogram=None if hist is None else tuple(hist.tolist()),
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
    """Steps per second of one chain retaining no samples; a spare core draws ahead for bit-parallel."""
    if steps < 1:
        raise ParamError(f"need steps >= 1, got {steps}")
    plan = SimulationPlan(params, seed, samples=0, burn_in=steps, kernel=kernel, histogram=False)
    return run(plan).steps_per_second
