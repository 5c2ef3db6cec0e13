"""Monte Carlo plumbing: plans, kernels, determinism, merged estimates."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nedpca import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    ModelParams,
    ParamError,
    SimulationPlan,
    build_matrix,
    density_formula,
    kernel_throughput,
    run,
    scalar_step,
    solve_stationary,
    tv_distance,
)
from nedpca import montecarlo
from test_model import naive_counts

P635 = ModelParams(6, 3, 0.3, 0.5)


def make_plan(**kw):
    base = dict(params=P635, seed=3, samples=1000, burn_in=200)
    base.update(kw)
    return SimulationPlan(**base)


def summary_payload(plan):
    payload = run(plan).to_json_dict()
    del payload["steps_per_second"]
    return payload


def bitparallel_step(code, params, u):
    return montecarlo._advance(code, params, u.reshape(1, params.n), "bitparallel")[0]


def row_words(bits, field):
    """Reference packer: one int per row t of a group's boolean arrays, chain by
    chain with packbits(axis=1); bits[j][t, i] is bit i from byte field * j."""
    packed = [np.packbits(b, axis=1, bitorder="little") for b in bits]
    rows, width = packed[0].shape
    words = np.zeros((rows, max(8, field * (len(packed) - 1) + width)), dtype=np.uint8)
    for j, chain in enumerate(packed):
        words[:, field * j : field * j + width] = chain
    if words.shape[1] == 8:  # a row fits one machine word: convert the whole chunk at once
        return words.view("<u8").ravel().tolist()
    data, stride = words.tobytes(), words.shape[1]
    return [int.from_bytes(data[lo : lo + stride], "little") for lo in range(0, len(data), stride)]


class TestPlanValidation:
    def test_defaults_resolve(self):
        plan = make_plan()
        assert plan.histogram_enabled  # 64 states, well under the auto limit
        assert plan.start_code == 0

    # each integer field's refusal, word for word
    INT_MESSAGES = {
        "seed": "seed must be a nonnegative int, got -1",
        "samples": "samples must be a nonnegative int, got -5",
        "chains": "chains must be a positive int, got 0",
        "thin": "thin must be a positive int, got 0",
        "burn_in": "burn_in must be a nonnegative int, got -1",
    }

    @pytest.mark.parametrize(
        "kw",
        [
            dict(seed=-1),
            dict(samples=-5),
            dict(chains=0),
            dict(thin=0),
            dict(burn_in=-1),
            dict(kernel="vectorized"),
            dict(start=64),  # code out of range
            dict(start="10101"),  # wrong length
        ],
    )
    def test_rejects_bad_fields(self, kw):
        (field,) = kw
        message = self.INT_MESSAGES.get(field)
        with pytest.raises(ParamError, match=f"^{message}$" if message else None):
            make_plan(**kw)

    def test_start_shorthands(self):
        assert make_plan(start="ones").start_code == 63
        assert make_plan(start="zeros").start_code == 0
        assert make_plan(start="100000").start_code == 1
        assert make_plan(start=17).start_code == 17

    def test_histogram_cap(self):
        params = ModelParams(21, 2, 0.3, 0.5)
        with pytest.raises(BudgetExceeded):
            SimulationPlan(params=params, seed=1, samples=10, histogram=True)


class TestKernelAgreement:
    @given(
        st.integers(2, 5),
        st.integers(0, 20),
        st.integers(0, 2**25 - 1),
        st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_single_step_identical(self, m, extra, raw, seed):
        params = ModelParams(m + extra, m, 0.35, 0.6)
        code = raw & (params.n_states - 1)
        u = np.random.default_rng(seed).random(params.n)
        assert scalar_step(code, params, u) == bitparallel_step(code, params, u)

    def test_certain_evaporation(self):
        params = ModelParams(8, 2, 0.3, 1.0)
        u = np.full(8, 0.0)
        # blocked sites can never redeposit when evaporation is certain
        assert bitparallel_step(0b01010101, params, u) == scalar_step(
            0b01010101, params, u
        )

    @pytest.mark.parametrize("m", [2, 3])
    def test_fraction_params_share_the_float_thresholds(self, m):
        # u = float(1/3) lies below 1/3 but not below float(1/3): both kernels
        # must test it against the same double
        params = ModelParams(8, m, Fraction(1, 3), Fraction(1, 2))
        for code in (0, 1):
            for x in (float(params.p1), float(1 - params.p2), 0.0):
                u = np.full(8, x)
                assert scalar_step(code, params, u) == bitparallel_step(code, params, u)


class TestChunkAgreement:
    # whole chunks on both sides of the one-word row (n <= 64) and of the
    # 64-site word boundaries, against the scalar kernel row for row
    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("n", ["m", 8, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize(
        "p1, p2", [(0.35, 0.6), (0.3, 1), (Fraction(1, 3), Fraction(1, 2))]
    )
    def test_chunk_matches_scalar(self, n, m, p1, p2):
        n = m if n == "m" else n
        params = ModelParams(n, m, p1, p2)
        rng = np.random.default_rng(n * 10 + m)
        u = rng.random((256, n))
        # uniforms equal to a threshold double must fail the test in both kernels
        u[::7, ::3] = float(params.p1)
        u[3::7, 1::3] = 1 - float(params.p2)
        random_start = int.from_bytes(rng.bytes(n // 8 + 1), "little") % params.n_states
        for start in (0, params.n_states - 1, random_start):
            fast = montecarlo._advance(start, params, u, "bitparallel")
            assert fast == montecarlo._advance(start, params, u, "scalar")

    @pytest.mark.parametrize("kernel", ["bitparallel", "scalar"])
    @pytest.mark.parametrize("n", [4, 8, 12, 20])
    def test_group_steps_each_chain_as_alone(self, n, kernel):
        # chain j's code sits in field j of the group's integer, width bits
        # from bit width * j, and nothing lands outside its low n bits
        params = ModelParams(n, 3, 0.3, 0.5)
        g, width = montecarlo._group_size(n), 8 * ((2 * n + 7) // 8)
        rng = np.random.default_rng(n)
        chunks = [rng.random((64, n)) for _ in range(g)]
        starts = [0, params.n_states - 1, *(int(c) for c in rng.integers(params.n_states, size=g - 2))]
        group = montecarlo._advance(
            sum(c << width * j for j, c in enumerate(starts)), params, chunks, kernel
        )
        alone = [montecarlo._advance(c, params, u, kernel) for c, u in zip(starts, chunks)]
        assert group == [sum(c << width * j for j, c in enumerate(codes)) for codes in zip(*alone)]

    @pytest.mark.parametrize("chains", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 12, 20, 63, 64, 65, 128])
    def test_flat_packing_matches_the_reference(self, n, chains):
        # b1 and b1 ^ d from one flat packbits equal the per-chain reference
        # words of u < p1 and u < 1 - p2, rows one word wide and wider alike
        params = ModelParams(n, 3, 0.3, 0.5)
        rng = np.random.default_rng(n * 10 + chains)
        chunks = [rng.random((9, n)) for _ in range(chains)]
        chunks[0][::2, ::3] = 0.3  # a uniform equal to a threshold fails its test
        chunks[-1][1::2, 1::3] = 0.5
        field = (2 * n + 7) // 8
        b1, d = montecarlo._pack(params, chunks, "bitparallel")
        assert b1 == row_words([c < 0.3 for c in chunks], field)
        assert [x ^ y for x, y in zip(b1, d)] == row_words([c < 0.5 for c in chunks], field)

    def test_group_size_fills_one_word(self):
        sizes = {n: montecarlo._group_size(n) for n in range(2, 130)}
        assert [sizes[n] for n in (2, 4, 5, 8, 9, 12, 13, 20, 21, 64, 65)] == [
            8, 8, 4, 4, 3, 3, 2, 2, 1, 1, 1
        ]
        for n, g in sizes.items():
            width = 8 * ((2 * n + 7) // 8)
            # the last chain's code ends by bit 64, and one more chain's would not
            assert n > 64 or width * (g - 1) + n <= 64 < width * g + n

    @pytest.mark.parametrize("n", [64, 65])
    def test_run_kernels_agree_at_the_word_boundary(self, n):
        plan = SimulationPlan(
            ModelParams(n, 3, 0.3, 0.5), seed=9, samples=400, chains=2, burn_in=50
        )
        fast = summary_payload(plan)
        slow = summary_payload(dataclasses.replace(plan, kernel="scalar"))
        assert fast.pop("kernel") == "bitparallel" and slow.pop("kernel") == "scalar"
        assert fast == slow


class TestRunDeterminism:
    def test_same_plan_same_summary(self):
        a, b = run(make_plan()), run(make_plan())
        assert a.histogram == b.histogram
        assert a.density_mean == b.density_mean
        assert a.pattern_means == b.pattern_means

    def test_kernel_choice_invisible(self):
        a = run(make_plan(kernel="bitparallel"))
        b = run(make_plan(kernel="scalar"))
        assert a.histogram == b.histogram
        assert a.density_mean == b.density_mean
        assert a.density_stderr == b.density_stderr

    def test_worker_count_invisible(self, monkeypatch, tmp_path):
        # one worker, a worker per group, and eight: only the last leaves workers
        # idle, and they draw each group's next chunk while it steps when the kernel
        # is bit-parallel (at n = 6 a group holds 4 chains, so 5 chains make two
        # groups; at n = 12 it holds 3).
        # Burn-in and thinning straddle the edges of 1- and 4-row chunks
        pools, drawn = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, *args):
                if fn is not montecarlo._draw:
                    return super().submit(fn, *args)

                def draw(*args):  # counts the prefetches the pool ran, not those taken back
                    drawn.append(threading.get_ident())
                    return fn(*args)

                return super().submit(draw, *args)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        for (n, chains), kernel in itertools.product(
            [(6, 5), (12, 1), (12, 2), (70, 1), (70, 2)], ["bitparallel", "scalar"]
        ):
            plan = make_plan(
                params=ModelParams(n, 3, 0.3, 0.5), chains=chains, samples=40, burn_in=7,
                thin=3, kernel=kernel, start="ones",
            )
            groups = -(-chains // montecarlo._group_size(n))
            for doubles in (n, 4 * n):
                monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", doubles)
                payloads, traces = [], []
                for cores in (1, groups, 8):
                    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
                    path = tmp_path / f"{n}-{chains}-{kernel}-{doubles}-{cores}.txt"
                    pools.clear()
                    interval = sys.getswitchinterval()
                    sys.setswitchinterval(1e-6)  # interleave the workers as finely as possible
                    try:
                        payloads.append(
                            summary_payload(dataclasses.replace(plan, trace_path=str(path)))
                        )
                    finally:
                        sys.setswitchinterval(interval)
                    traces.append(path.read_bytes())
                    assert pools == [cores]  # the pool is sized to the usable cores
                    ahead = cores > groups and kernel == "bitparallel"
                    assert (len(drawn) > 0) == ahead, (n, chains, kernel, cores)
                    drawn.clear()
                assert payloads[0] == payloads[1] == payloads[2]
                assert traces[0] == traces[1] == traces[2]

    GROUPING_CASES = [
        (n, chains, kernel, histogram)
        for n in (2, 4, 6, 12, 16, 20, 21, 64, 65)
        for chains in (1, 3, 5, 9)
        for kernel in ("bitparallel", "scalar")
        for histogram in ((True, False) if n <= 16 else (False,))
    ] + [(20, 3, "bitparallel", True)]  # one 2^20-state histogram: each pass over it costs

    @pytest.mark.parametrize("n, chains, kernel, histogram", GROUPING_CASES)
    def test_grouping_invisible(self, monkeypatch, tmp_path, n, chains, kernel, histogram):
        # the derived groups, ragged last ones included, against one chain per
        # group; burn-in and thinning straddle the edges of 1- and 4-row chunks
        derived = montecarlo._group_size
        plan = make_plan(
            params=ModelParams(n, min(n, 3), 0.3, 0.5), chains=chains, samples=40, burn_in=7,
            thin=3, kernel=kernel, histogram=histogram, start="ones" if chains % 3 == 0 else 0,
        )
        for doubles in (1, 4 * n):
            monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", doubles)
            payloads, traces = [], []
            for size in (derived, lambda n: 1):
                monkeypatch.setattr(montecarlo, "_group_size", size)
                path = tmp_path / f"{len(traces)}.txt"
                payload = summary_payload(dataclasses.replace(plan, trace_path=str(path)))
                payloads.append(json.dumps(payload))
                traces.append(path.read_bytes())
            assert payloads[0] == payloads[1]
            assert traces[0] == traces[1]

    def test_usable_cores_without_affinity(self, monkeypatch):
        # platforms without sched_getaffinity fall back on the CPU count, or 1
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 5)
        assert montecarlo._usable_cores() == 5
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._usable_cores() == 1

    @pytest.mark.parametrize("kernel", ["bitparallel", "scalar"])
    @pytest.mark.parametrize("histogram", [True, False])
    def test_chunk_shape_invisible(self, monkeypatch, kernel, histogram):
        # burn-in and thinning straddle the chunk boundaries of 1- and 4-row chunks
        plan = make_plan(chains=2, burn_in=7, thin=3, kernel=kernel, histogram=histogram)
        default = summary_payload(plan)
        for doubles in (1, 4 * plan.params.n):
            monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", doubles)
            assert summary_payload(plan) == default

    def test_chains_extend_sample_count(self):
        summary = run(make_plan(chains=3))
        assert summary.total_samples == 3000
        assert sum(summary.histogram) == 3000

    def test_seed_changes_output(self):
        assert run(make_plan()).histogram != run(make_plan(seed=4)).histogram


class TestStopFlag:
    def test_failing_chain_stops_the_others(self, monkeypatch):
        # chain 1 fails on its third chunk; chain 0 would otherwise step
        # thousands more, but may finish at most the chunk it is in. At n = 24
        # each group holds one chain, so the two run on separate workers
        plan = make_plan(params=ModelParams(24, 3, 0.3, 0.5), chains=2, samples=200_000, burn_in=0)
        first_draw = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(plan.seed).spawn(2)[1])
        ).random()
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 10 * plan.params.n)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        pack = montecarlo._pack
        failed = threading.Event()
        state = {"chain1": None, "chain1_calls": 0, "after": 0}

        def flaky_pack(params, u, kernel):
            # each group packs every chunk it steps, on its own worker
            me = threading.get_ident()
            if u[0][0, 0] == first_draw:
                state["chain1"] = me
            if me == state["chain1"]:
                state["chain1_calls"] += 1
                if state["chain1_calls"] == 3:
                    failed.set()
                    raise RuntimeError("chain 1 failed")
            elif failed.is_set():
                state["after"] += 1
            return pack(params, u, kernel)

        monkeypatch.setattr(montecarlo, "_pack", flaky_pack)
        with pytest.raises(RuntimeError, match="chain 1 failed"):
            run(plan)
        assert state["chain1_calls"] == 3
        assert state["after"] <= 1


class TestHistogramMemory:
    def test_peak_does_not_grow_with_samples(self, monkeypatch):
        # the histogram is added to per chunk, so only a chunk of codes is
        # ever held; small chunks keep the fixed part of the peak small
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 1 << 12)
        params = ModelParams(12, 3, 0.3, 0.5)
        run(SimulationPlan(params=params, seed=5, samples=1000, burn_in=0))  # first-use costs
        peaks = []
        for samples in (10_000, 40_000):
            plan = SimulationPlan(params=params, seed=5, samples=samples, burn_in=0)
            tracemalloc.start()
            try:
                run(plan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestDrawAheadMemory:
    def test_scalar_peak_does_not_grow_with_a_spare_core(self, monkeypatch):
        # the scalar kernel steps from its doubles, so a chunk drawn ahead would
        # hold a second 1 MiB of them while the first is stepped; two full chunks
        # of 2048 steps and one step more would submit a draw-ahead twice
        plan = SimulationPlan(
            ModelParams(64, 3, 0.3, 0.5), seed=5, samples=0, burn_in=4_097, kernel="scalar",
            histogram=False,
        )
        run(dataclasses.replace(plan, burn_in=100))  # first-use costs
        peaks = []
        for cores in (1, 2):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                run(plan)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks


class TestEstimates:
    def test_histogram_and_direct_pattern_paths_agree(self):
        # every chain counts patterns the same way whether or not it keeps a
        # histogram; the flag must stay invisible in the merged means
        a = run(make_plan(samples=3000))
        b = run(make_plan(samples=3000, histogram=False))
        assert b.histogram is None
        assert a.pattern_means == b.pattern_means
        assert a.density_mean == b.density_mean

    @pytest.mark.parametrize("n, histogram", [(6, True), (70, False)])
    def test_pattern_means_match_an_independent_count(self, tmp_path, n, histogram):
        path = tmp_path / "trace.txt"
        plan = SimulationPlan(
            params=ModelParams(n, 4, 0.3, 0.5), seed=9, samples=1500, burn_in=20,
            histogram=histogram, trace_path=str(path),
        )
        summary = run(plan)
        sums = [0] * 4
        for line in path.read_text().splitlines():
            n1, inner, blocked = naive_counts(tuple(int(ch) for ch in line), 4)
            sums = [a + b for a, b in zip(sums, (n1, *inner, blocked))]
        means = summary.pattern_means
        assert (summary.histogram is None) == (not histogram)
        assert [means["n1"], *means["n10r1"], means["n0m1"]] == [x / (1500 * n) for x in sums]
        assert 0 not in sums

    def test_against_exact_law(self):
        summary = run(make_plan(samples=60_000, seed=12))
        table = solve_stationary(build_matrix(P635))
        assert tv_distance(summary, table) < 0.05
        assert abs(summary.density_mean - density_formula(P635)) < 6 * summary.density_stderr

    def test_empty_run(self):
        summary = run(make_plan(samples=0, burn_in=50))
        assert summary.total_samples == 0
        assert math.isnan(summary.density_mean)
        payload = summary.to_json_dict()
        assert payload["density_mean"] is None

    def test_stderr_needs_batches(self):
        summary = run(make_plan(samples=1))
        assert math.isnan(summary.density_stderr)

    def test_json_round_trip(self):
        summary = run(make_plan())
        payload = json.loads(json.dumps(summary.to_json_dict()))
        assert payload["n"] == 6 and payload["m"] == 3
        assert payload["samples"] == 1000
        assert len(payload["histogram"]) == 64
        assert payload["pattern_means"]["n1"] == pytest.approx(summary.density_mean)

    def test_density_equals_n1_rate(self, tmp_path):
        path = tmp_path / "trace.txt"
        summary = run(make_plan(trace_path=str(path)))
        ones = path.read_text().count("1")
        assert summary.density_mean == summary.pattern_means["n1"] == ones / (1000 * 6)

    def test_batch_means_stderr_matches_an_independent_count(self, monkeypatch, tmp_path):
        # 1000 samples make batches of 31 and 32; 7-step chunks at thin 2 put
        # batch edges inside chunks
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 7 * P635.n)
        path = tmp_path / "trace.txt"
        summary = run(make_plan(samples=1000, thin=2, trace_path=str(path)))
        batch_ones, batch_sizes = [0] * 32, [0] * 32
        for j, line in enumerate(path.read_text().splitlines()):
            batch_ones[j * 32 // 1000] += line.count("1")
            batch_sizes[j * 32 // 1000] += 1
        assert sorted(set(batch_sizes)) == [31, 32]
        means = [ones / (size * 6) for ones, size in zip(batch_ones, batch_sizes)]
        assert summary.density_stderr == float(np.std(means, ddof=1) / math.sqrt(32))
        assert summary.density_mean == summary.pattern_means["n1"] == sum(batch_ones) / (1000 * 6)


class TestTrace:
    def test_trace_written(self, tmp_path):
        path = tmp_path / "trace.txt"
        summary = run(make_plan(samples=500, trace_path=str(path)))
        lines = path.read_text().splitlines()
        assert len(lines) == 500
        assert all(len(line) == 6 and set(line) <= {"0", "1"} for line in lines)
        assert summary.total_samples == 500

    def test_trace_only_first_chain(self, tmp_path):
        path = tmp_path / "trace.txt"
        run(make_plan(samples=300, chains=2, trace_path=str(path)))
        assert len(path.read_text().splitlines()) == 300

    def test_cap_ending_inside_a_chunk_keeps_the_first_lines(self, monkeypatch, tmp_path):
        full, capped = tmp_path / "full.txt", tmp_path / "capped.txt"
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 7 * P635.n)
        plan = make_plan(samples=300, thin=2, chains=2, trace_path=str(full))
        before = summary_payload(plan)
        monkeypatch.setattr(montecarlo, "TRACE_CAP", 61)  # 7-step chunks at thin 2 split it
        after = summary_payload(dataclasses.replace(plan, trace_path=str(capped)))
        assert capped.read_text().splitlines() == full.read_text().splitlines()[:61]
        assert before == after

    def test_failed_run_keeps_the_lines_written_so_far(self, monkeypatch, tmp_path):
        # the third chunk fails as it steps, on the group's own worker
        walk, calls = montecarlo._walk, []

        def fail_third_chunk(code, params, packed, kernel):
            calls.append(len(packed[0]))
            if len(calls) == 3:
                raise RuntimeError("third chunk failed")
            return walk(code, params, packed, kernel)

        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 10 * P635.n)
        monkeypatch.setattr(montecarlo, "_walk", fail_third_chunk)
        path = tmp_path / "trace.txt"
        with pytest.raises(RuntimeError, match="third chunk failed"):
            run(make_plan(samples=100, burn_in=0, trace_path=str(path)))
        assert calls == [10, 10, 10]
        assert len(path.read_text().splitlines()) == 20

    def test_failed_prefetch_keeps_the_lines_written_so_far(self, monkeypatch, tmp_path):
        # one group on two workers draws each chunk after the first on the idle
        # one; the third draw fails there and must reach the caller, not hang
        monkeypatch.setattr(montecarlo, "_CHUNK_DOUBLES", 10 * P635.n)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        draw, walk = montecarlo._draw, montecarlo._walk
        threads, prefetching = [], threading.Event()

        def flaky_draw(rngs, rows, n):
            threads.append(threading.get_ident())
            if threads[-1] != threads[0]:
                prefetching.set()
            if len(threads) == 3:
                raise RuntimeError("third draw failed")
            return draw(rngs, rows, n)

        def patient_walk(*args):
            prefetching.wait(10)  # step only once the next chunk is being drawn
            prefetching.clear()
            return walk(*args)

        monkeypatch.setattr(montecarlo, "_draw", flaky_draw)
        monkeypatch.setattr(montecarlo, "_walk", patient_walk)
        path = tmp_path / "trace.txt"
        with pytest.raises(RuntimeError, match="third draw failed"):
            run(make_plan(samples=100, burn_in=0, trace_path=str(path)))
        assert len(threads) == 3 and threads[2] != threads[0]
        assert len(path.read_text().splitlines()) == 20

    def test_trace_is_not_held_in_memory(self, tmp_path):
        # chain 0 writes each chunk's lines as it samples, so tracing adds
        # far less than the trace's own size (samples * n bytes) to the peak
        params, samples = ModelParams(256, 3, 0.3, 0.5), 8000
        peaks = {}
        for label, path in [("warm-up", None), ("untraced", None), ("traced", tmp_path / "t.txt")]:
            plan = SimulationPlan(
                params=params, seed=4, samples=samples, burn_in=0,
                trace_path=None if path is None else str(path),
            )
            tracemalloc.start()
            try:
                run(plan)
                peaks[label] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "t.txt").read_text().splitlines()) == samples
        assert peaks["traced"] - peaks["untraced"] < 0.25 * samples * params.n, peaks


class TestTvDistance:
    def test_requires_histogram(self):
        summary = run(make_plan(histogram=False))
        table = solve_stationary(build_matrix(P635))
        with pytest.raises(DomainError):
            tv_distance(summary, table)

    def test_requires_samples(self):
        summary = run(make_plan(samples=0))
        with pytest.raises(DomainError, match="empty summary"):
            tv_distance(summary, solve_stationary(build_matrix(P635)))

    def test_requires_matching_params(self):
        summary = run(make_plan())
        other = solve_stationary(build_matrix(ModelParams(6, 2, 0.3, 0.5)))
        with pytest.raises(DomainError):
            tv_distance(summary, other)

    def test_requires_matching_sizes(self):
        summary = run(make_plan())
        other = solve_stationary(build_matrix(ModelParams(5, 3, 0.3, 0.5)))
        with pytest.raises(DimensionMismatch):
            tv_distance(summary, other)

    def test_zero_for_self(self):
        summary = run(make_plan(samples=100))
        table = solve_stationary(build_matrix(P635))
        tv = tv_distance(summary, table)
        assert 0.0 <= tv <= 1.0


class TestThroughput:
    def test_positive_rates(self):
        params = ModelParams(16, 3, 0.3, 0.5)
        assert kernel_throughput(params, "bitparallel", 500) > 0
        assert kernel_throughput(params, "scalar", 200) > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ParamError):
            kernel_throughput(P635, "gpu", 100)
        with pytest.raises(ParamError):
            kernel_throughput(P635, "scalar", 0)
