"""Monte Carlo sampling of the chain with interchangeable update kernels.

Both kernels consume exactly one uniform per site per step (the draw is
discarded at forced sites), in site order, and test it against the same
doubles, float(p1) and 1 - float(p2), so a scalar and a bit-parallel run with
the same seed produce bit-identical trajectories. The bit-parallel kernel
packs a chunk's threshold comparisons into one int per step and threshold
(one numpy call per chunk when n <= 64), reads every site's window from the
doubled code c | c << n, and updates all sites with a few integer operations
and no function call; _advance is the one routine that steps either kernel.

Per-chain streams come from numpy's SeedSequence.spawn, so chains never share
a stream. Each chain draws its uniforms in chunks of at most _CHUNK_DOUBLES
doubles (1 MiB), whatever the ring size, and frees each chunk before drawing
the next; Philox hands out its doubles in order whatever the chunk shape, so
chunking cannot change a draw. Each chain runs on its own worker thread, up to
the usable cores; the Philox fill and np.packbits release the GIL. Each chain
keeps one integer table with a row per batch of retained samples, [samples,
n1, *n10r1, n0m1], filled by one pattern_totals call per batch segment of a
chunk; the density mean, its batch-means stderr and the pattern means are all
read off the chains' rows. All accumulators are integers until the final
division, so a fixed plan gives the same summary whatever the kernel, worker
count and chunking. The one field outside that guarantee is steps_per_second.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, TextIO, Union

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, DomainError, ParamError
from .model import (
    ConfigLike,
    Configuration,
    ModelParams,
    StationaryTable,
    _thresholds,
    pattern_totals,
    scalar_step,
)

__all__ = [
    "HISTOGRAM_AUTO_LIMIT",
    "HISTOGRAM_CAP",
    "TRACE_CAP",
    "SimulationPlan",
    "EmpiricalSummary",
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
    size and runs one worker per chain, up to the usable cores.
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
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ParamError(f"seed must be a nonnegative int, got {self.seed!r}")
        if not isinstance(self.samples, int) or self.samples < 0:
            raise ParamError(f"samples must be a nonnegative int, got {self.samples!r}")
        for name in ("chains", "thin"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParamError(f"{name} must be a positive int, got {v!r}")
        if not isinstance(self.burn_in, int) or self.burn_in < 0:
            raise ParamError(f"burn_in must be a nonnegative int, got {self.burn_in!r}")
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


def _row_words(bits: np.ndarray) -> list[int]:
    """One int per row of a boolean (rows, n) array; bit i of word t is bits[t, i]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows, width = packed.shape
    if width <= 8:  # a row fits one machine word: convert the whole chunk at once
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, :width] = packed
        return words.view("<u8").ravel().tolist()
    data = packed.tobytes()
    return [int.from_bytes(data[lo : lo + width], "little") for lo in range(0, len(data), width)]


def _advance(code: int, params: ModelParams, u: np.ndarray, kernel: str) -> list[int]:
    """Step once per row of u from code; return the code after every step."""
    trajectory = []
    if kernel == "scalar":
        for row in u:
            code = scalar_step(code, params, row)
            trajectory.append(code)
        return trajectory
    # window_masks inline: bit i of doubled >> t is bit (i + t) mod n of code, so
    # ~occupied & ~closing marks the open vacancies and ~occupied & closing the
    # blocked ones; b1, b2 have no bit at or above n, so no mask is needed
    n, m = params.n, params.m
    inner = range(1, m - 1)
    x1, x2 = _thresholds(params)
    for b1, b2 in zip(_row_words(u < x1), _row_words(u < x2)):
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


def _run_chain(
    plan: SimulationPlan, trace: Optional[TextIO], child_seed, stop: threading.Event
) -> tuple[list, Optional[np.ndarray]]:
    """One chain's per-batch table, one row [samples, *pattern_totals] per
    batch, and histogram; its first TRACE_CAP retained codes go to trace."""
    params = plan.params
    n = params.n
    rng = np.random.Generator(np.random.Philox(child_seed))
    rows = max(1, _CHUNK_DOUBLES // n)
    hist = np.zeros(params.n_states, dtype=np.int64) if plan.histogram_enabled else None
    table = [[0] * (params.m + 1) for _ in range(_NUM_BATCHES)]

    total_steps = plan.burn_in + plan.samples * plan.thin
    first = plan.burn_in + plan.thin - 1  # the first retained step
    code = plan.start_code
    done = 0
    retained = 0
    # the stop flag lets run() abandon this chain between chunks
    while done < total_steps and not stop.is_set():
        u = rng.random((min(rows, total_steps - done), n))
        trajectory = _advance(code, params, u, plan.kernel)
        code = trajectory[-1]
        kept = trajectory[max(first - done, (first - done) % plan.thin) :: plan.thin]
        done += len(trajectory)
        if trace is not None and retained < TRACE_CAP:
            trace.writelines(
                Configuration(c, n).to_string() + "\n" for c in kept[: TRACE_CAP - retained]
            )
        i = 0
        while i < len(kept):
            # sample j falls in batch j * _NUM_BATCHES // samples; end starts the next batch
            b = (retained + i) * _NUM_BATCHES // plan.samples
            end = min(len(kept), -(-(b + 1) * plan.samples // _NUM_BATCHES) - retained)
            counts = [end - i, *pattern_totals(kept[i:end], params)]
            table[b] = [x + y for x, y in zip(table[b], counts)]
            i = end
        retained += len(kept)
        if hist is not None:
            hist += np.bincount(np.asarray(kept, dtype=np.int64), minlength=params.n_states)
        del u, trajectory, kept  # free this chunk before the next one is drawn
    return table, hist


def run(plan: SimulationPlan) -> EmpiricalSummary:
    """Execute the plan and return merged estimates."""
    params = plan.params
    n = params.n
    children = np.random.SeedSequence(plan.seed).spawn(plan.chains)
    workers = min(plan.chains, _usable_cores())
    stop = threading.Event()

    def chain(i: int, child) -> tuple[list, Optional[np.ndarray]]:
        try:
            return _run_chain(plan, trace_file if i == 0 else None, child, stop)
        except BaseException:
            stop.set()
            raise

    # the trace is opened before any chain steps, so a bad path costs no sampling;
    # chain 0 writes to it as it samples
    trace_file = open(plan.trace_path, "w") if plan.trace_path else None
    t0 = time.perf_counter()
    # leaving the pool joins its workers, so a failure or an interrupt must
    # stop the other chains first
    with trace_file or contextlib.nullcontext(), ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            results = list(pool.map(chain, range(plan.chains), children))
        except BaseException:
            stop.set()
            raise
    elapsed = time.perf_counter() - t0
    total_steps = plan.chains * (plan.burn_in + plan.samples * plan.thin)
    steps_per_second = total_steps / elapsed if elapsed > 0 else float("inf")

    total_samples = plan.samples * plan.chains
    denom = total_samples * n
    nan = float("nan")
    rows = [row for table, _ in results for row in table]
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
