"""Transition matrix, stationary solving, balance audits, reversibility tools."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nedpca.solver
from nedpca import (
    BudgetExceeded,
    Configuration,
    DimensionMismatch,
    ModelParams,
    SolveFailed,
    StationaryTable,
    TransitionMatrix,
    audit_detailed_balance,
    balance_residual,
    build_matrix,
    check_irreducible_aperiodic,
    one_directional_pair,
    ror,
    solve_stationary,
    stationary_table_formula,
    transition_edges,
    transition_prob,
    window_masks,
)

REFERENCE = ModelParams(3, 2, Fraction(1, 2), Fraction(1, 3))
REFERENCE_PI = (
    Fraction(2, 9), Fraction(1, 6), Fraction(1, 6), Fraction(1, 12),
    Fraction(1, 6), Fraction(1, 12), Fraction(1, 12), Fraction(1, 36),
)

float_params = st.builds(
    lambda n_extra, m, p1, p2: ModelParams(m + n_extra, m, p1, p2),
    st.integers(0, 3),
    st.integers(2, 4),
    st.floats(0.05, 0.95),
    st.floats(0.05, 1.0),
)


class TestTransitionRow:
    """Rows of build_matrix against the site-by-site product definition."""

    @given(float_params, st.integers(0, 2**7 - 1))
    @settings(max_examples=50, deadline=None)
    def test_row_matches_per_pair_products(self, params, raw):
        alpha = raw & (params.n_states - 1)
        row = build_matrix(params).entries[alpha]
        assert row.dtype == np.float64
        for beta in range(params.n_states):
            assert row[beta] == transition_prob(alpha, beta, params)

    def test_exact_row_sums_to_one(self):
        row = build_matrix(REFERENCE).entries[0b011]
        assert sum(row) == 1
        assert all(isinstance(x, Fraction) for x in row)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exact_entries_are_the_product_fractions(self, m):
        for n in range(m, 7):
            params = ModelParams(n, m, Fraction(1, 3), Fraction(1, 2))
            entries = build_matrix(params).entries
            for alpha in range(params.n_states):
                for beta in range(params.n_states):
                    x = entries[alpha, beta]
                    assert isinstance(x, Fraction)
                    assert x == transition_prob(alpha, beta, params)

    def test_one_fraction_probability_gives_floats(self):
        # exact mode needs both Fractions; `--p1 3/10 --p2 0.5` gives this mix
        params = ModelParams(5, 3, Fraction(3, 10), 0.5)
        entries = build_matrix(params).entries
        assert entries.dtype == np.float64
        assert entries[0, 1] == pytest.approx(float(transition_prob(0, 1, params)), rel=1e-15)


def full_width_build(params):
    """Reference build: the site loop on all 2**n rows at once, one full-width
    pass per site, in the order of a per-row Kronecker expansion."""
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2 = params.p1, params.p2
    stay = np.array([1, 1 - p1, p2], dtype=dtype)
    fill = np.array([0, p1, 1 - p2], dtype=dtype)
    ns = params.n_states
    open_mask, blocked_mask = window_masks(np.arange(ns, dtype=np.int64), params)
    entries = np.empty((ns, ns), dtype=dtype)
    entries[:, 0] = one
    for i in range(params.n):
        kind = ((open_mask >> i) & 1) + 2 * ((blocked_mask >> i) & 1)
        width = 1 << i
        block = entries[:, :width]
        np.multiply(block, fill[kind, None], out=entries[:, width : 2 * width])
        block *= stay[kind, None]
    return entries


def unblocked_reduce(q):
    """Reference reduction: GTH censoring one orbit at a time, each a rank-1
    update of the whole leading block, then mu back-substituted from mu_0 = 1."""
    k = len(q)
    s = [None] * k
    for c in range(k - 1, 0, -1):
        s[c] = q[c, :c].sum()
        if s[c] == 0:
            raise SolveFailed(f"lumped chain is reducible: orbit {c} never reaches orbits 0..{c - 1}")
        q[:c, :c] += np.outer(q[:c, c], q[c, :c] / s[c])
    mu = np.ones(k, dtype=q.dtype)
    for c in range(1, k):
        mu[c] = mu[:c] @ q[:c, c] / s[c]
    return mu / mu.sum()


def add_at_table(matrix, reduce):
    """Reference solve: Q from one 2-D np.add.at over the representatives'
    rows, then the GTH reduction `reduce`."""
    p, n = matrix.entries, matrix.params.n
    codes = np.arange(matrix.params.n_states, dtype=np.int64)
    canon = np.minimum.reduce([ror(codes, t, n) for t in range(n)])
    reps, orbit, sizes = np.unique(canon, return_inverse=True, return_counts=True)
    k = len(reps)
    q = np.full((k, k), Fraction(0) if p.dtype == object else 0.0, dtype=p.dtype)
    np.add.at(q, (slice(None), orbit), p[reps])
    mu = reduce(q)
    return tuple((mu[orbit] / sizes.astype(p.dtype)[orbit]).tolist())


def add_at_residual(table, matrix):
    """Reference residual: one np.add.at over every stored entry in storage order."""
    dtype = object if matrix.exact and isinstance(table.probs[0], Fraction) else float
    pi = np.asarray(table.probs, dtype=dtype)
    inflow = np.zeros(len(pi), dtype=dtype)
    rows, cols = np.divmod(matrix.keys, len(pi))
    np.add.at(inflow, cols, matrix.vals.astype(dtype) * pi[rows])
    worst = np.max(np.abs(inflow - pi))
    return worst if dtype is object else float(worst)


BIT_IDENTITY_POINTS = pytest.mark.parametrize(
    "p1, p2, n_hi",
    [(0.3, 0.5, 10), (0.9, 1.0, 10), (0.05, 0.95, 10), (Fraction(1, 3), Fraction(1, 2), 7)],
    ids=["float-0.3-0.5", "float-0.9-1", "float-0.05-0.95", "exact"],
)


class TestBitIdentity:
    """The row-blocked build, the flat lump and the residual give the bits of
    the full-width references. `ragged` sets _BLOCK to 5 * 2**n stored entries,
    so the build fills groups of rows in several short blocks and the lump and
    the residual walk several flat runs of stored entries, the last one short."""

    @BIT_IDENTITY_POINTS
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("ragged", [False, True], ids=["default", "ragged"])
    def test_build_equals_full_width_loop(self, monkeypatch, ragged, m, p1, p2, n_hi):
        for n in range(m, n_hi + 1):
            if ragged:
                monkeypatch.setattr(nedpca.solver, "_BLOCK", 5 << n)
            params = ModelParams(n, m, p1, p2)
            entries, reference = build_matrix(params).entries, full_width_build(params)
            assert entries.dtype == reference.dtype
            if params.exact:
                assert (entries == reference).all(), n
            else:
                assert np.array_equal(entries, reference), n

    @BIT_IDENTITY_POINTS
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("ragged", [False, True], ids=["default", "ragged"])
    def test_solve_equals_add_at_lump(self, monkeypatch, ragged, m, p1, p2, n_hi):
        for n in range(m, n_hi + 1):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            if ragged:
                monkeypatch.setattr(nedpca.solver, "_BLOCK", 5 << n)
            assert solve_stationary(matrix).probs == add_at_table(matrix, nedpca.solver._reduce), n

    @BIT_IDENTITY_POINTS
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("ragged", [False, True], ids=["default", "ragged"])
    def test_residual_equals_add_at_reference(self, monkeypatch, ragged, m, p1, p2, n_hi):
        for n in range(m, n_hi + 1):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            table = solve_stationary(matrix)
            if ragged:
                monkeypatch.setattr(nedpca.solver, "_BLOCK", 5 << n)
            assert balance_residual(table, matrix) == add_at_residual(table, matrix), n

    @pytest.mark.parametrize("width", [1, 5, 7, nedpca.solver._PANEL], ids=lambda w: f"panel{w}")
    @pytest.mark.parametrize(
        "m, p1, p2, n_hi",
        [(2, 0.3, 0.5, 10), (3, 0.05, 0.95, 10), (4, 1e-12, 1e-12, 10), (2, Fraction(1, 3), Fraction(1, 2), 7)],
        ids=["float-0.3-0.5", "float-0.05-0.95", "float-tiny", "exact"],
    )
    def test_blocked_reduce_equals_unblocked_loop(self, monkeypatch, width, m, p1, p2, n_hi):
        # n = 2..10 has k = 3, 4, 6, 8, 14, 20, 36, 60, 108 orbits, so the widths meet
        # k below one panel (5, 7, 16), k a multiple of the width (1; 5 at 20 and 60;
        # 7 at 14) and a ragged last panel (5, 7, 16 at 20 and above)
        monkeypatch.setattr(nedpca.solver, "_PANEL", width)
        for n in range(m, n_hi + 1):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            blocked, reference = solve_stationary(matrix).probs, add_at_table(matrix, unblocked_reduce)
            if matrix.exact:
                assert blocked == reference, n
            else:
                assert np.max(np.abs(np.subtract(blocked, reference)) / reference) < 1e-13, n


    @pytest.mark.parametrize("block", [1, 7, None], ids=["block1", "block7", "rows3"])
    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.5), (Fraction(1, 3), Fraction(1, 2))], ids=["float", "exact"])
    def test_flat_runs_keep_the_default_bits(self, monkeypatch, block, n, m, p1, p2):
        # the default _BLOCK holds every stored entry here in one run; runs of 1, of 7
        # and of 3 * 2**n entries cut inside rows and must not move a bit of the
        # table or of either residual (of the table itself, and of its floats)
        matrix = build_matrix(ModelParams(n, m, p1, p2))

        def bits():
            table = solve_stationary(matrix)
            floats = StationaryTable(matrix.params, tuple(map(float, table.probs)))
            values = [*table.probs, balance_residual(table, matrix), balance_residual(floats, matrix)]
            return [x if isinstance(x, Fraction) else x.hex() for x in values]

        assert len(matrix.keys) <= nedpca.solver._BLOCK
        default = bits()
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 3 << n if block is None else block)
        assert bits() == default


class TestKeyFormat:
    """The invariant every searchsorted over the stored keys relies on: keys
    a * 2**n + b strictly ascend and lie below 4**n, however the build is
    blocked, and from_dense stores the same entries in the same order."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "p1, p2, n_hi", [(0.3, 0.5, 9), (Fraction(1, 3), Fraction(1, 2), 7)], ids=["float", "exact"]
    )
    @pytest.mark.parametrize("ragged", [False, True], ids=["default", "ragged"])
    def test_keys_ascend_below_4_to_the_n(self, monkeypatch, ragged, m, p1, p2, n_hi):
        for n in range(m, n_hi + 1):
            if ragged:
                monkeypatch.setattr(nedpca.solver, "_BLOCK", 5 << n)
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            keys = matrix.keys
            assert keys.dtype == np.int64 and len(keys) == len(matrix.vals), n
            assert keys[0] >= 0 and (np.diff(keys) > 0).all() and keys[-1] < 4**n, n
            # p2 < 1 stores no exact zero, so from_dense keeps every stored entry
            dense = TransitionMatrix.from_dense(matrix.params, matrix.entries)
            assert np.array_equal(dense.keys, keys), n
            assert dense.vals.dtype == matrix.vals.dtype and (dense.vals == matrix.vals).all(), n


class TestBuildAndSolve:
    def test_float_matrix_is_row_stochastic(self):
        matrix = build_matrix(ModelParams(5, 3, 0.3, 0.5))
        sums = np.asarray(matrix.entries).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-14)

    def test_exact_reference_point(self):
        table = solve_stationary(build_matrix(REFERENCE))
        assert table.probs == REFERENCE_PI

    def test_formula_equals_solver_exactly(self):
        assert stationary_table_formula(REFERENCE).probs == REFERENCE_PI

    def test_float_solution_is_stationary(self):
        params = ModelParams(6, 3, 0.3, 0.5)
        matrix = build_matrix(params)
        table = solve_stationary(matrix)
        assert balance_residual(table, matrix) < 1e-14
        assert math.fsum(table.probs) == pytest.approx(1.0)

    def test_exact_residual_is_zero(self):
        matrix = build_matrix(REFERENCE)
        table = solve_stationary(matrix)
        assert balance_residual(table, matrix) == 0

    def test_float_cap(self):
        with pytest.raises(BudgetExceeded):
            build_matrix(ModelParams(17, 2, 0.3, 0.5))

    def test_float_cap_refuses_before_allocating(self, monkeypatch):
        for name in ("empty", "zeros", "full"):

            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"numpy.{name} called past the float cap")

            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(BudgetExceeded) as info:
            build_matrix(ModelParams(14, 3, 0.3, 0.5))
        message = str(info.value)
        assert "n=14" in message and "cap 13" in message and f"up to {16 * 3**14} bytes" in message

    @pytest.mark.parametrize("m, share", [(2, 0.25), (4, 0.05)])
    def test_build_makes_no_dense_array(self, m, share):
        # the stored entries are 3**12 at m = 2 and 39k at m = 4, against 4**12
        tracemalloc.start()
        try:
            build_matrix(ModelParams(12, m, 0.3, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < share * 8 * 4**12

    def test_rational_cap(self):
        with pytest.raises(BudgetExceeded):
            build_matrix(ModelParams(10, 2, Fraction(1, 3), Fraction(1, 2)))

    @given(float_params)
    @settings(max_examples=25, deadline=None)
    def test_chain_is_irreducible_aperiodic(self, params):
        assert check_irreducible_aperiodic(build_matrix(params))

    def test_certificate_reads_stored_entries_not_values(self):
        # p1**2 underflows, so row 0 stores exact zeros for the edges to 2+ particles
        matrix = build_matrix(ModelParams(6, 2, 1e-300, 1e-300))
        assert (matrix.vals[matrix.keys < matrix.params.n_states] == 0).any()
        assert check_irreducible_aperiodic(matrix)

    @pytest.mark.parametrize("missing", [(0, 5), (0, 0), (6, 0)], ids=["row0", "self-loop", "column0"])
    def test_certificate_refuses_a_missing_edge(self, missing):
        # the missing edge's mass moves to another stored entry of its row
        params = ModelParams(4, 2, 0.3, 0.5)
        entries = build_matrix(params).entries.copy()
        row, col = missing
        other = next(b for b in np.flatnonzero(entries[row]) if b != col)
        entries[row, other] += entries[row, col]
        entries[row, col] = 0.0
        assert not check_irreducible_aperiodic(TransitionMatrix.from_dense(params, entries))


def dense_lu_table(matrix):
    """Reference stationary vector: LU on the full 2**n system (P^T - I) pi = 0
    with its last equation replaced by sum(pi) = 1, no lumping."""
    a = matrix.entries.T - np.eye(matrix.params.n_states)
    a[-1, :] = 1.0
    b = np.zeros(matrix.params.n_states)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def rotation_orbits(n):
    """Orbit label (smallest member) of every code under rotating the ring."""
    return [min(ror(code, k, n) for k in range(n)) for code in range(1 << n)]


class TestRotationLumping:
    """The solve lumps P onto rotation orbits; these check the premise and the result."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exact_matrix_is_strongly_lumpable(self, n):
        orbit = rotation_orbits(n)
        for m in range(2, n + 1):
            entries = build_matrix(ModelParams(n, m, Fraction(1, 3), Fraction(1, 2))).entries
            sums_by_orbit = {}
            for a in range(1 << n):
                sums = {}
                for b in range(1 << n):
                    sums[orbit[b]] = sums.get(orbit[b], Fraction(0)) + entries[a, b]
                assert sums_by_orbit.setdefault(orbit[a], sums) == sums, (n, m, a)

    @pytest.mark.parametrize("m", [2, 3, 5])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.5), (0.9, 1.0), (0.05, 0.95)])
    def test_float_table_matches_dense_lu(self, m, p1, p2):
        for n in range(m, 11):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            lumped = np.asarray(solve_stationary(matrix).probs)
            assert np.max(np.abs(lumped - dense_lu_table(matrix))) < 1e-12, n

    @pytest.mark.parametrize(
        "params",
        [ModelParams(10, 3, 0.3, 0.5), ModelParams(7, 2, Fraction(2, 5), Fraction(3, 10))],
        ids=["float", "exact"],
    )
    def test_table_is_rotation_invariant(self, params):
        probs = solve_stationary(build_matrix(params)).probs
        for code in range(params.n_states):
            assert probs[ror(code, 1, params.n)] == probs[code]

    def test_exact_formula_equals_oracle_at_n9(self):
        params = ModelParams(9, 3, Fraction(1, 3), Fraction(1, 2))
        probs = solve_stationary(build_matrix(params)).probs
        assert all(isinstance(x, Fraction) for x in probs)
        assert probs == stationary_table_formula(params).probs

    def test_solve_holds_no_copy_of_the_representative_rows(self):
        matrix = build_matrix(ModelParams(12, 2, 0.3, 0.5))
        tracemalloc.start()
        try:
            solve_stationary(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 8 * 4**12  # a dense p[reps].T alone is 0.09 of a dense P

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_identity_matrix_is_singular(self, exact):
        if exact:
            params = ModelParams(4, 2, Fraction(1, 3), Fraction(1, 2))
            eye = np.array([[Fraction(int(a == b)) for b in range(16)] for a in range(16)])
        else:
            params = ModelParams(4, 2, 0.3, 0.5)
            eye = np.eye(16)
        with pytest.raises(SolveFailed):
            solve_stationary(TransitionMatrix.from_dense(params, eye))

    @pytest.mark.parametrize(
        "n, m, p1, p2",
        [
            (6, 2, 1e-30, 1e-30),
            (8, 3, 1e-30, 1e-30),
            (7, 4, 1e-12, 1e-12),
            (4, 3, 0.999999, 1e-12),
            (12, 4, 1e-12, 1e-12),
        ],
    )
    def test_nearly_decomposable_chain_keeps_relative_accuracy(self, n, m, p1, p2):
        # 0^n holds itself for about 1/p1 steps, so a solve that subtracts loses every
        # digit; n = 12 has 352 orbits, 22 panels of the reduction
        probs = np.asarray(solve_stationary(build_matrix(ModelParams(n, m, p1, p2))).probs)
        exact = stationary_table_formula(ModelParams(n, m, Fraction(p1), Fraction(p2))).probs
        expected = np.array([float(x) for x in exact])
        assert (probs >= 0).all()
        assert np.max(np.abs(probs - expected) / expected) < 1e-12

    def test_float_overflow_names_the_point(self):
        # pi(0^n) / pi(010101) is about 6e-899, past the float range
        with pytest.raises(SolveFailed, match=r"n=6, m=2, p1=0\.5, p2=1e-300"):
            solve_stationary(build_matrix(ModelParams(6, 2, 0.5, 1e-300)))

    def test_float_overflow_in_the_panel_product_names_the_point(self, monkeypatch):
        # n = 4 has orbits {0}, {1, 2, 4, 8}, {3, ...}, {5, 10}, {7, ...}, {15}. Orbits
        # 1..3 go to 0^n and orbits 4 and 5 to orbit 1, while 0^n sends 1.6e308 and 1e308
        # to orbits 4 and 5: the panel of orbits 4 and 5 adds both into q[0, 1] in one
        # product, and the sum inside it overflows
        monkeypatch.setattr(nedpca.solver, "_PANEL", 2)
        params = ModelParams(4, 2, 0.3, 0.5)
        entries = np.zeros((16, 16))
        entries[[1, 2, 3, 4, 5, 6, 8, 9, 10, 12], 0] = 1.0
        entries[np.ix_([7, 11, 13, 14, 15], [1, 2, 4, 8])] = 0.25
        entries[0, [7, 11, 13, 14]], entries[0, 15] = 4e307, 1e308
        with pytest.raises(SolveFailed, match=r"overflows a float at .*n=4, m=2, p1=0\.3, p2=0\.5") as failed:
            solve_stationary(TransitionMatrix.from_dense(params, entries))
        assert str(failed.value.__context__) == "overflow encountered in matmul"

    @pytest.mark.parametrize(
        "params, width, dead",
        [
            (ModelParams(8, 2, 0.3, 0.5), nedpca.solver._PANEL, 10),  # panel 2 of 3
            (ModelParams(8, 2, 0.3, 0.5), nedpca.solver._PANEL, 2),  # panel 3 of 3
            (ModelParams(6, 2, Fraction(1, 3), Fraction(1, 2)), 4, 3),  # panel 3 of 4
        ],
        ids=["float-orbit10", "float-orbit2", "exact-orbit3"],
    )
    def test_dead_orbit_in_a_late_panel_is_named(self, monkeypatch, params, width, dead):
        # every state of orbit `dead` holds itself, so the orbit never reaches a lower one
        monkeypatch.setattr(nedpca.solver, "_PANEL", width)
        orbit = rotation_orbits(params.n)
        rep = sorted(set(orbit))[dead]
        entries = build_matrix(params).entries.copy()
        zero, one = (Fraction(0), Fraction(1)) if params.exact else (0.0, 1.0)
        for a in range(params.n_states):
            if orbit[a] == rep:
                entries[a] = zero
                entries[a, a] = one
        with pytest.raises(SolveFailed, match=rf"orbit {dead} never reaches orbits 0\.\.{dead - 1}$"):
            solve_stationary(TransitionMatrix.from_dense(params, entries))


def dense_audit(table, matrix):
    """Reference fold: the whole flow gap at once, first maximum in row-major order."""
    p = np.asarray(matrix.entries, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    gap = pi[:, None] * p
    gap -= gap.T
    np.abs(gap, out=gap)
    a, b = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return float(gap[a, b]), (int(a), int(b))


def audit_key(audit):
    return audit.max_violation, (audit.witness[0].code, audit.witness[1].code)


def mixed_blocks(matrix, block):
    """How many blocks of `block` column-major ranks hold both a mirror that is
    the stored entry of the same rank and one that is not."""
    rows, cols = np.divmod(matrix.keys, matrix.params.n_states)
    by_col = np.lexsort((rows, cols))
    same = (rows == cols[by_col]) & (cols == rows[by_col])
    return sum(0 < s.sum() < len(s) for s in np.split(same, range(block, len(same), block)))


def one_directional_matrix(n):
    """The m = 2 matrix at (0.3, 0.5) with P[a->b] dropped at each stored a < b
    with 5 | a + b, so P[b->a] has no stored mirror; and the table of the full one."""
    matrix = build_matrix(ModelParams(n, 2, 0.3, 0.5))
    entries = matrix.entries.copy()
    a, b = np.nonzero(np.triu(entries, 1))
    drop = (a + b) % 5 == 0
    entries[a[drop], b[drop]] = 0.0
    return TransitionMatrix.from_dense(matrix.params, entries), solve_stationary(matrix)


def flipped_matrix(n):
    """The m = 3 matrix relabelled a -> 2**n - 1 - a, through from_dense, and its table."""
    matrix = build_matrix(ModelParams(n, 3, 0.3, 0.5))
    flipped = TransitionMatrix.from_dense(matrix.params, matrix.entries[::-1, ::-1].copy())
    return flipped, StationaryTable(matrix.params, solve_stationary(matrix).probs[::-1])


def built_matrix(n, m):
    matrix = build_matrix(ModelParams(n, m, 0.3, 0.5))
    return matrix, solve_stationary(matrix)


class TestBalanceAudits:
    def test_reversible_on_balanced_line(self):
        params = ModelParams(5, 2, 0.3, 0.7)
        matrix = build_matrix(params)
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation < 1e-12

    @pytest.mark.parametrize("p1", [0.1, 0.5, 0.9])
    def test_reversible_when_windows_wrap_and_evaporation_is_certain(self, p1):
        # n = m, p2 = 1: every occupied state empties in one step
        matrix = build_matrix(ModelParams(3, 3, p1, 1.0))
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation < 1e-12

    def test_irreversible_off_line(self):
        params = ModelParams(5, 2, 0.3, 0.5)
        matrix = build_matrix(params)
        audit = audit_detailed_balance(solve_stationary(matrix), matrix)
        assert audit.max_violation > 1e-6
        a, b = audit.witness
        assert isinstance(a, Configuration) and isinstance(b, Configuration)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize(
        "p1, p2, n_hi",
        [
            (0.3, 0.5, 10),
            (0.3, 0.7, 10),
            (0.9, 1.0, 10),
            (Fraction(1, 3), Fraction(1, 2), 7),
            (Fraction(2, 5), Fraction(3, 5), 7),
        ],
    )
    def test_block_fold_equals_dense_fold(self, m, p1, p2, n_hi):
        for n in range(m, n_hi + 1):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            for source, table in (
                ("solver", solve_stationary(matrix)),
                ("formula", stationary_table_formula(matrix.params)),
            ):
                assert audit_key(audit_detailed_balance(table, matrix)) == dense_audit(
                    table, matrix
                ), (n, source)

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("m, p1, p2", [(3, 0.3, 0.5), (2, 0.3, 0.7)])
    def test_ragged_blocks_of_three_rows(self, monkeypatch, n, m, p1, p2):
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 3 << n)  # runs of 3 * 2**n column-major ranks
        matrix = build_matrix(ModelParams(n, m, p1, p2))
        table = solve_stationary(matrix)
        assert audit_key(audit_detailed_balance(table, matrix)) == dense_audit(table, matrix)

    @pytest.mark.parametrize("block", [nedpca.solver._BLOCK, 4, 8, 12], ids=lambda b: f"rows{max(1, b // 4)}")
    def test_tied_maximum_keeps_the_dense_witness(self, monkeypatch, block):
        # uniform pi, so the gap is |P[a, b] - P[b, a]| / 4, exact in binary; it
        # peaks at 1/8 on the unordered pairs {1, 3} and {2, 3}, off row 0
        monkeypatch.setattr(nedpca.solver, "_BLOCK", block)  # 4 or 8 split the 9 stored entries
        params = ModelParams(2, 2, 0.3, 0.5)
        entries = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.25, 0.25, 0.0, 0.5],
                [0.25, 0.0, 0.25, 0.5],
                [0.25, 0.0, 0.0, 0.75],
            ]
        )
        matrix = TransitionMatrix.from_dense(params, entries)
        table = StationaryTable(params, (0.25,) * 4)
        gap = np.abs(0.25 * entries - 0.25 * entries.T)
        assert np.count_nonzero(np.triu(gap) == gap.max()) == 2
        assert dense_audit(table, matrix) == (0.125, (1, 3))
        assert audit_key(audit_detailed_balance(table, matrix)) == (0.125, (1, 3))

    @pytest.mark.parametrize("n", [5, 8])
    def test_witness_in_a_late_ragged_block(self, monkeypatch, n):
        # relabel a -> 2**n - 1 - a so the worst pair sits inside a late block
        # runs of 24 column-major ranks, cut inside columns; the witness is first
        # reached in run 1 of 6 (n = 5) and run 24 of 92 (n = 8), counting from 0
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 24)
        params = ModelParams(n, 3, 0.3, 0.5)
        matrix = build_matrix(params)
        probs = solve_stationary(matrix).probs[::-1]
        flipped = TransitionMatrix.from_dense(params, matrix.entries[::-1, ::-1].copy())
        table = StationaryTable(params, probs)
        audit = audit_key(audit_detailed_balance(table, flipped))
        assert audit == dense_audit(table, flipped)
        row = audit[1][0]
        assert row > 6 and row % 6 != 0, row

    @pytest.mark.parametrize("block", [24, 3 << 8], ids=["block24", "rows3"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: built_matrix(8, 3),
            lambda: built_matrix(8, 4),
            lambda: flipped_matrix(8),
            lambda: one_directional_matrix(8),
        ],
        ids=["m3", "m4", "flipped-m3", "one-directional"],
    )
    def test_rank_and_searched_mirrors_share_a_block(self, monkeypatch, make, block):
        # the cuts fall inside columns, and some block reads mirrors both ways
        matrix, table = make()
        assert mixed_blocks(matrix, block) > 0
        monkeypatch.setattr(nedpca.solver, "_BLOCK", block)
        assert audit_key(audit_detailed_balance(table, matrix)) == dense_audit(table, matrix)

    def test_audit_peak_is_near_the_stored_entries(self):
        # the densest pattern, 3**12 entries, symmetric: every mirror is read by rank
        matrix = build_matrix(ModelParams(12, 2, 0.3, 0.5))
        table = solve_stationary(matrix)
        tracemalloc.start()
        try:
            audit_detailed_balance(table, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (matrix.keys.nbytes + matrix.vals.nbytes)

    def test_residual_holds_no_per_entry_array(self):
        # 3**13 stored entries in 13 flat runs: only one run's temporaries are ever live
        matrix = build_matrix(ModelParams(13, 2, 0.3, 0.5))
        table = solve_stationary(matrix)
        tracemalloc.start()
        try:
            balance_residual(table, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * (matrix.keys.nbytes + matrix.vals.nbytes)

    def test_audit_holds_no_second_matrix(self):
        matrix = build_matrix(ModelParams(10, 3, 0.3, 0.5))
        table = solve_stationary(matrix)
        tracemalloc.start()
        try:
            audit_detailed_balance(table, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * 4**10  # half a dense P

    def test_mismatched_inputs_rejected(self):
        matrix = build_matrix(ModelParams(4, 2, 0.3, 0.5))
        table = solve_stationary(build_matrix(ModelParams(5, 2, 0.3, 0.5)))
        with pytest.raises(DimensionMismatch):
            balance_residual(table, matrix)


class TestStructureHelpers:
    def test_edge_lists_are_stochastic(self):
        params = ModelParams(3, 2, 0.3, 0.5)
        edges = transition_edges(build_matrix(params))
        assert len(edges) == 27
        totals = {}
        for alpha, beta, prob in edges:
            assert prob > 0
            totals[alpha] = totals.get(alpha, 0.0) + prob
        assert all(math.isclose(t, 1.0) for t in totals.values())

    def test_edge_count_m3(self):
        assert len(transition_edges(build_matrix(ModelParams(3, 3, 0.3, 0.5)))) == 18

    def test_one_directional_pair_generic(self):
        pair = one_directional_pair(ModelParams(5, 3, 0.3, 0.5))
        assert pair is not None
        alpha, beta = pair
        assert alpha.to_string() == "00010"
        assert beta.to_string() == "00001"
        assert transition_prob(alpha, beta, ModelParams(5, 3, 0.3, 0.5)) > 0
        assert transition_prob(beta, alpha, ModelParams(5, 3, 0.3, 0.5)) == 0

    def test_one_directional_pair_survives_certain_evaporation(self):
        assert one_directional_pair(ModelParams(4, 3, 0.3, 1.0)) is not None

    def test_one_directional_pair_degenerate_case(self):
        # wrap-around window: the forward step needs an evaporation failure
        assert one_directional_pair(ModelParams(3, 3, 0.3, 1.0)) is None
