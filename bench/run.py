"""Benchmark harness for nedpca.

    python3 bench/run.py --workload mc_ring --seed 1 --seconds 40 --trace 0

Runs one workload from the root of a source checkout, importing nedpca from
src/ (nothing is installed). With --trace 0 it repeats untraced passes for
--seconds and reports the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference machine speed (see reference_kernel); with --trace 1
it splits the time between untraced and traced passes, runs the probes, writes
the spans to .bench_out/ and reports the per-layer metrics. Human-readable
lines start with '#'; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--workload all runs the three workloads in fresh processes and prints every
named end-to-end metric. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mc_ring", "oracle_exact", "analytic_sweep")
SETUP_PROBES = 8  # fresh processes timed per run; setup_s is their scaled median
TRACED_SHARE = 0.35  # of --seconds, for each of the untraced and traced passes
# Time of reference_kernel() in a fast phase on the reference machine (2 vCPUs
# of a shared Intel Xeon host). Call times are reported at this speed:
# seconds x REFERENCE_S / (kernel time around the call).
REFERENCE_S = 1.0e-3


def _pin_environment() -> dict:
    # numpy reads these at import: one BLAS thread, and no thread pool in run()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("NEDPCA_THREADS", None)
    return {"OPENBLAS_NUM_THREADS": "1", "NEDPCA_THREADS": "unset"}


def _openblas() -> dict:
    """Version and live thread count of the OpenBLAS numpy loaded, if found."""
    import ctypes

    info = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"config": get_config().decode(), "threads": get_threads()}
    return info


def machine_block(env: dict) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "env": env,
    }


def setup_time(workload: str, seed: int, smoke: bool) -> tuple[float, float]:
    """Set-up time of one fresh process (import nedpca, make the inputs), and
    the kernel time around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    before = kernel_point()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]), (before + kernel_point()) / 2


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python loop that does not touch nedpca.

    Its time indexes the machine's speed at that moment. On a 2-vCPU VM of a
    shared host, interpreter-bound code such as this loop runs up to 2x slower
    in phases of seconds. Code bound by memory or wide vector units (a dense
    LAPACK solve) slows less, so its scaled time reads low in slow phases.
    """
    t0 = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0.0
    for i in range(3000):
        x = (((x << 1) | (x >> 63)) & 0xFFFFFFFFFFFFFFFF) ^ i
        acc += (x & 0xFFFF).bit_count() + math.exp(-i * 1e-3)
    return time.perf_counter() - t0


def kernel_point() -> float:
    """Kernel time at this moment: the faster of two runs drops single spikes."""
    return min(reference_kernel(), reference_kernel())


class Tally:
    """Operations attempted and failures seen, with the first messages kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures[: max(0, 20 - len(self.messages))])


def interleave(units: list, copies: dict) -> list:
    """Spread each leg's units, copies[leg] of each, evenly over the pass.

    The machine's speed changes in phases of seconds. A leg run as one block
    sees one phase, so the times of its calls rise and fall together;
    spread out, they sample independent phases and their sum averages out.
    Returns (leg, index of the unit in its leg, unit) triples.
    """
    per_leg: dict = {}
    for leg, unit in units:
        per_leg.setdefault(leg, []).append(unit)
    keyed = []
    for rank, (leg, leg_units) in enumerate(per_leg.items()):
        runs = [(i, unit) for _ in range(copies.get(leg, 1)) for i, unit in enumerate(leg_units)]
        keyed += [((j + 0.5) / len(runs), rank, j, leg, i, unit) for j, (i, unit) in enumerate(runs)]
    keyed.sort(key=lambda k: k[:3])
    return [(leg, i, unit) for *_, leg, i, unit in keyed]


def measure(w, tracer, budget_s: float, tally: Tally, between=None, copies=None, speed=None) -> list:
    """Repeat passes while the next one fits in the budget; at least one runs.

    Returns the wall time of each pass. Checks and the between() hook run
    after each pass; they are neither timed nor charged to the budget. When
    a speed list is given, kernel_point() runs before every unit and after
    the last, and speed[seq] gets the mean of the two points around the unit
    with sequence number seq.
    """
    order = interleave(w.units(), copies or {})
    walls = []
    seq = 0
    while True:
        index = len(walls)
        w.out = {}
        kernel = []
        t_pass = time.perf_counter()
        with tracer.span("pass", None, index=index):
            for leg, i, unit in order:
                gc.collect()  # so that one unit's garbage is not billed to the next
                if speed is not None:
                    kernel.append(kernel_point())
                with tracer.span("unit", leg, index=i, seq=seq):
                    try:
                        tally.add(unit(tracer, index), [])
                    except Exception as exc:  # a raising layer call is a counted failure
                        tally.add(1, [f"{leg}: {type(exc).__name__}: {exc}"])
                seq += 1
            if speed is not None:
                kernel.append(kernel_point())
                speed.extend((a + b) / 2 for a, b in zip(kernel, kernel[1:]))
        walls.append(time.perf_counter() - t_pass)
        for leg in w.legs:
            if leg in w.out:
                tally.add(*w.check_leg(leg, index))
        if between is not None:
            between()
        if sum(walls) + statistics.median(walls) > budget_s:
            return walls


def end_to_end(w, clock, setup: list, speed: list) -> tuple[dict, dict, dict]:
    """A leg's time is the sum over its calls of each call's median run, each
    run first scaled to the reference speed by the kernel time around it.
    Returns (metrics, named metrics, unscaled legs)."""
    raw = {leg: 0.0 for leg in w.legs}
    legs = {leg: 0.0 for leg in w.legs}
    for (leg, *_), runs in clock.durations.items():
        raw[leg] += statistics.median(d for d, _ in runs)
        legs[leg] += statistics.median(d * REFERENCE_S / speed[seq] for d, seq in runs)
    metrics = {
        "setup_s": statistics.median(t * REFERENCE_S / k for t, k in setup),
        "wall_s": sum(legs.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for i, leg in enumerate(w.legs, start=1):
        metrics[f"leg{i}_s"] = legs[leg]
    return metrics, w.named(legs), raw


def _emit(metrics: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        missing, extra = sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))
        raise SystemExit(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run_one(args, bench: dict, env: dict) -> int:
    import tracing
    import workloads

    w = workloads.make(args.workload, args.seed, args.smoke)
    print("# machine " + json.dumps(machine_block(env)))
    tally = Tally()
    tally.add(*w.once_checks())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        clock = tracing.OpClock()
        untraced = measure(w, clock, TRACED_SHARE * args.seconds, tally)
        tracer = tracing.Tracer(args.workload)
        measure(w, tracer, TRACED_SHARE * args.seconds, tally)
        with tracer.span("probe", None):
            w.probe(tracer)
        tracer.write(out_dir / f"spans-{stem}.jsonl")
        print(f"# spans .bench_out/spans-{stem}.jsonl ({len(tracer.spans)} records)")
        metrics = _emit(tracing.per_layer(tracer.spans, untraced), bench["per_layer"])
    else:
        # set-up probes are spread over the run, like the passes, so that both
        # see the same mix of machine speeds
        setup = []
        n_probes = 1 if args.smoke else SETUP_PROBES

        def probe_setup():
            if len(setup) < n_probes:
                setup.append(setup_time(args.workload, args.seed, args.smoke))

        clock = tracing.OpClock()
        speed = []
        walls = measure(w, clock, args.seconds, tally, between=probe_setup, copies=w.COPIES, speed=speed)
        while len(setup) < n_probes:
            probe_setup()
        timings = {"pass_s": walls, "setup_s": setup, "kernel_s_by_seq": speed,
                   "calls": [[*key, runs] for key, runs in clock.durations.items()]}
        (out_dir / f"timings-{stem}.json").write_text(json.dumps(timings))
        values, named, raw = end_to_end(w, clock, setup, speed)
        metrics = _emit(values, bench["end_to_end"])
        named["fail_frac"] = (tally.failed / tally.attempted, "frac")
        print(f"# passes {len(walls)}, set-up probes {len(setup)}; raw times in .bench_out/timings-{stem}.json")
        print(f"# reference kernel around {len(speed)} units: fastest {min(speed) * 1e3:.4f} ms,"
              f" median {statistics.median(speed) * 1e3:.4f} ms")
        print("# raw leg seconds " + json.dumps(raw))
        print("# named " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
    for name, m in metrics.items():
        print(f"# {name:<44} {m['value']:>16.6g} {m['unit']}")
    for msg in tally.messages:
        print(f"# FAILED {msg}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every named end-to-end metric."""
    combined = {}
    totals = {"correct": True, "attempted": 0, "failed": 0}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        named = json.loads(next(ln for ln in lines if ln.startswith("# named "))[len("# named "):])
        for key in ("setup_s", "wall_s", "peak_rss_mb"):
            combined[f"{name}.{key}"] = result["metrics"][key]
        combined.update({(f"{name}.fail_frac" if k == "fail_frac" else k): v for k, v in named.items()})
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    for key, m in combined.items():
        print(f"# {key:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({**totals, "metrics": combined}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nedpca benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes and one pass, for harness checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = _pin_environment()
    src = ROOT / "src"
    if not (src / "nedpca" / "__init__.py").is_file():
        print(f"error: no nedpca sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.make(args.workload, args.seed, args.smoke)
        print(time.perf_counter() - t0)
        return 0
    if args.smoke:
        args.seconds = 0.0
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return run_one(args, bench, env)


if __name__ == "__main__":
    sys.exit(main())
