"""Transition matrix, stationary solving, balance audits, reversibility tools."""

import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        # the stored rows are the representatives'; every other row is a rotation of one
        matrix = build_matrix(params)
        alpha = int(matrix.reps[raw % len(matrix.reps)])
        row = matrix.entries[alpha]
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


def lumped_q(matrix):
    """Q[A, B] = sum over b in B of P[a, b], a the smallest code of orbit A, from
    the stored entries with one np.add.at (no dense P)."""
    n, zero = matrix.params.n, Fraction(0) if matrix.exact else 0.0
    canon = np.array(rotation_orbits(n))
    reps, orbit = np.unique(canon, return_inverse=True)
    rows, cols = np.divmod(matrix.keys, matrix.params.n_states)
    at = np.flatnonzero(canon[rows] == rows)
    q = np.full((len(reps), len(reps)), zero, dtype=matrix.vals.dtype)
    np.add.at(q, (orbit[rows[at]], orbit[cols[at]]), matrix.vals[at])
    return q


def lumped_table(matrix, reduce):
    """The table from `reduce` on lumped_q, spread evenly over each orbit."""
    canon = np.array(rotation_orbits(matrix.params.n))
    _, orbit, sizes = np.unique(canon, return_inverse=True, return_counts=True)
    mu = reduce(lumped_q(matrix))
    return StationaryTable(matrix.params, tuple((mu[orbit] / sizes[orbit]).tolist()))


def add_at_residual(table, matrix):
    """Reference residual over every row of a FullP: one np.add.at over its stored
    entries in storage order."""
    dtype = object if matrix.exact and isinstance(table.probs[0], Fraction) else float
    pi = np.asarray(table.probs, dtype=dtype)
    inflow = np.zeros(len(pi), dtype=dtype)
    rows, cols = np.divmod(matrix.keys, len(pi))
    np.add.at(inflow, cols, matrix.vals.astype(dtype) * pi[rows])
    worst = np.max(np.abs(inflow - pi))
    return worst if dtype is object else float(worst)


# ---- The full-P reference: every row of P stored, and each check over all of it ----


@dataclass(frozen=True, eq=False)
class FullP:
    """Every row's nonzeros, as ascending keys a * 2**n + b and their values."""

    params: ModelParams
    keys: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, params, entries):
        keys = np.flatnonzero(entries)
        return cls(params, keys, entries.flat[keys])

    @property
    def exact(self):
        return self.params.exact

    @cached_property
    def entries(self):
        dense = np.full((self.params.n_states,) * 2, Fraction(0) if self.exact else 0.0, dtype=self.vals.dtype)
        dense.flat[self.keys] = self.vals
        return dense


def full_build(params):
    """Reference P: every row a stores the submasks of its vacancy mask, each the
    product of its site factors in ascending site order, as transition_prob forms it."""
    dtype, one = (object, Fraction(1)) if params.exact else (float, 1.0)
    p1, p2, n, ns = params.p1, params.p2, params.n, params.n_states
    stay, fill = np.array([1 - p1, p2], dtype=dtype), np.array([p1, 1 - p2], dtype=dtype)
    open_mask, blocked_mask = window_masks(np.arange(ns, dtype=np.int64), params)
    vacant = ((open_mask | blocked_mask)[:, None] >> np.arange(n)) & 1
    count = vacant.sum(axis=1)
    offset = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum(1 << count, out=offset[1:])
    keys, vals = np.empty(offset[-1], dtype=np.int64), np.empty(offset[-1], dtype=dtype)
    for c in range(n + 1):
        rows = np.flatnonzero(count == c)
        site = np.nonzero(vacant[rows])[1].reshape(len(rows), c)
        blocked = (blocked_mask[rows, None] >> site) & 1
        bit, s, f = 1 << site, stay[blocked], fill[blocked]
        key = np.full((len(rows), 1 << c), rows[:, None] << n)
        val = np.full((len(rows), 1 << c), one, dtype=dtype)
        for t in range(c):
            low, high = slice(0, 1 << t), slice(1 << t, 2 << t)
            np.bitwise_or(key[:, low], bit[:, t, None], out=key[:, high])
            np.multiply(val[:, low], f[:, t, None], out=val[:, high])
            val[:, low] *= s[:, t, None]
        at = offset[rows, None] + np.arange(1 << c)
        keys[at], vals[at] = key, val
    return FullP(params, keys, vals)


def rep_rows(params, entries):
    """A TransitionMatrix of a dense array's representative rows, the rows the solve
    and the certificate read."""
    reps, orbit, sizes = nedpca.solver._orbits(params.n)
    rows = entries[reps]
    at = np.flatnonzero(rows)
    row, b = np.divmod(at, params.n_states)
    return TransitionMatrix(params, reps[row] << params.n | b, rows.flat[at], reps, orbit, sizes)


def full_certificate(full):
    """Reference certificate: row 0 and column 0 each store 2**n entries."""
    keys, ns = full.keys, full.params.n_states
    return bool(np.searchsorted(keys, ns) == np.count_nonzero((keys & (ns - 1)) == 0) == ns)


def full_audit(table, full):
    """Reference audit over every stored pair, in runs of nedpca.solver._BLOCK
    column-major ranks: P[b->a] is the entry of the same rank where the pattern is
    symmetric, and is searched for where not; a front of tie candidates ascends by
    pair, each reaching further than every smaller one. Same witness rule as the
    package's audit, over all pairs instead of the representatives' rotations."""
    n, ns, keys = full.params.n, full.params.n_states, full.keys
    p = np.asarray(full.vals, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    tie = nedpca.solver._TIE_ULPS * np.finfo(float).eps
    block = nedpca.solver._BLOCK
    slack = 2 * tie * pi.max() * p.max()
    by_col = np.argsort((keys & (ns - 1)).astype(np.uint16), kind="stable")
    worst, smallest = 0.0, ns * ns
    pairs, reach = np.zeros(0, dtype=np.int64), np.zeros(0)
    for lo in range(0, len(keys), block):
        at, run = by_col[lo : lo + block], slice(lo, lo + block)
        key = keys[at]
        a, b = key >> n, key & (ns - 1)
        mirror = b << n | a
        same = keys[run] == mirror
        back = np.where(same, p[run], 0.0)
        if not same.all():
            miss = np.flatnonzero(~same)
            found = np.minimum(np.searchsorted(keys, mirror[miss]), len(keys) - 1)
            back[miss] = np.where(keys[found] == mirror[miss], p[found], 0.0)
        gap = np.abs(pi[a] * p[at] - pi[b] * back)
        worst = max(worst, float(gap.max()))
        if worst < slack:
            flow = np.flatnonzero((a != b) & ((pi[a] * p[at] > 0) | (pi[b] * back > 0)))
            if len(flow):
                a_f, b_f = a[flow], b[flow]
                smallest = min(smallest, int(np.min(np.minimum(a_f, b_f) * ns + np.maximum(a_f, b_f))))
        if worst < slack / 2:
            continue
        near = np.flatnonzero(gap >= worst - slack)
        a, b, ab, ba = a[near], b[near], p[at[near]], back[near]
        low = np.minimum(a, b) * ns + np.maximum(a, b)
        tied = gap[near] + np.where(a == b, 0.0, tie * np.maximum(pi[a] * ab, pi[b] * ba))
        fresh = tied > np.concatenate([[-1.0], reach])[np.searchsorted(pairs, low, side="right")]
        pairs, reach = np.concatenate([pairs, low[fresh]]), np.concatenate([reach, tied[fresh]])
        order = np.argsort(pairs)
        pairs, reach = pairs[order], reach[order]
        keep = (reach >= worst) & (reach > np.maximum.accumulate(np.concatenate([[-1.0], reach[:-1]])))
        pairs, reach = pairs[keep], reach[keep]
    a, b = divmod(int(pairs[0]) if worst >= slack else smallest if worst > 0 else 0, ns)
    return worst, (a, b)


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
            matrix = build_matrix(params)
            entries, reference = matrix.entries, full_width_build(params)
            assert entries.dtype == reference.dtype
            if params.exact:
                assert (entries == reference).all(), n  # Fractions rotate exactly, so every row
            else:
                assert np.array_equal(entries[matrix.reps], reference[matrix.reps]), n

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
        # the lumped residual against the full chain's: equal in Fractions. In floats the
        # two sum in other orders, so a stationary table's reads rounding on both sides,
        # and the table of p1 / 2, far from stationary, agrees to 1e-12
        for n in range(m, n_hi + 1):
            params = ModelParams(n, m, p1, p2)
            matrix, full = build_matrix(params), full_build(params)
            table = solve_stationary(matrix)
            other = StationaryTable(params, stationary_table_formula(ModelParams(n, m, p1 / 2, p2)).probs)
            if ragged:
                monkeypatch.setattr(nedpca.solver, "_BLOCK", 5 << n)
            if params.exact:
                assert balance_residual(table, matrix) == add_at_residual(table, full) == 0, n
                assert balance_residual(other, matrix) == add_at_residual(other, full) > 0, n
            else:
                assert max(balance_residual(table, matrix), add_at_residual(table, full)) < 1e-13, n
                assert balance_residual(other, matrix) == pytest.approx(add_at_residual(other, full), rel=1e-12), n

    @pytest.mark.parametrize("width", [1, 5, 7, 16], ids=lambda w: f"panel{w}")
    @pytest.mark.parametrize(
        "m, p1, p2, n_hi",
        [(2, 0.3, 0.5, 10), (3, 0.05, 0.95, 10), (4, 1e-12, 1e-12, 10), (2, Fraction(1, 3), Fraction(1, 2), 7)],
        ids=["float-0.3-0.5", "float-0.05-0.95", "float-tiny", "exact"],
    )
    def test_blocked_reduce_equals_unblocked_loop(self, monkeypatch, width, m, p1, p2, n_hi):
        # n = 2..10 has k = 3, 4, 6, 8, 14, 20, 36, 60, 108 orbits; panels of `width`
        # run in the work block while more than 2 * width orbits are left, so every
        # width meets k with no wide panel, k past it by less than a panel (5 at 14,
        # 7 at 20, 16 at 36) and several wide panels; Fractions take both paths too
        monkeypatch.setattr(nedpca.solver, "_width", lambda q: width)
        for n in range(m, n_hi + 1):
            matrix = build_matrix(ModelParams(n, m, p1, p2))
            blocked, reference = solve_stationary(matrix).probs, add_at_table(matrix, unblocked_reduce)
            if matrix.exact:
                assert blocked == reference, n
            else:
                assert np.max(np.abs(np.subtract(blocked, reference)) / reference) < 1e-13, n

    @pytest.mark.parametrize(
        "n, m, p1, p2, paths",
        [
            (8, 3, Fraction(1, 3), Fraction(1, 2), "narrow"),  # k = 36, one panel for Fractions
            (7, 2, 0.3, 0.5, "narrow"),  # k = 20 <= 2 * 16
            (8, 2, 0.3, 0.5, "wide"),  # k = 36: one wide panel of 16, then 20 on q itself
            (12, 2, 0.3, 0.5, "wide"),  # k = 352: 20 wide panels of 16, then 32
            (12, 4, 1e-12, 1e-12, "wide"),
            (14, 3, 0.3, 0.5, "wide"),  # k = 1182: width 36, 31 wide panels, then 66
        ],
        ids=["exact-k36", "float-k20", "float-k36", "float-k352", "float-tiny-k352", "float-k1182"],
    )
    def test_width_rule_equals_unblocked_loop(self, n, m, p1, p2, paths):
        q = lumped_q(build_matrix(ModelParams(n, m, p1, p2)))
        width = nedpca.solver._width(q)
        assert (len(q) > 2 * width) == (paths == "wide")
        blocked, reference = nedpca.solver._reduce(q.copy()), unblocked_reduce(q.copy())
        if q.dtype == object:
            assert (blocked == reference).all()
        else:
            assert np.max(np.abs(blocked - reference) / reference) < 1e-13

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
    blocked, and the dense view's representative rows hold the same entries in
    the same order."""

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
            # p2 < 1 stores no exact zero, so the dense rows' nonzeros are every stored entry
            dense = rep_rows(matrix.params, matrix.entries)
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
        # the byte budget: from n = 17 Q and one product temporary take 0.95 GB, at every m
        for n, m in [(17, 2), (17, 3), (17, 17)]:
            with pytest.raises(BudgetExceeded):
                build_matrix(ModelParams(n, m, 0.3, 0.5))

    def test_float_cap_refuses_before_allocating(self, monkeypatch):
        # (16, 2) fits the budget; one just above its share that depends on n alone
        # refuses the representatives' 2774555 stored entries, counted from their masks
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.empty called past the byte budget")

        budget = sum(nedpca.solver._shares(16, 0)) + 1
        monkeypatch.setattr(nedpca.solver, "BYTE_BUDGET", budget)
        monkeypatch.setattr(np, "empty", refuse)  # keys and vals
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                build_matrix(ModelParams(16, 2, 0.3, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        build, solve, audit = nedpca.solver._shares(16, 2774555)
        assert str(info.value) == (
            f"n=16, m=2 needs about {build + solve + audit} bytes, over the budget {budget}:"
            f" build {build} (2774555 stored entries), solve {solve}, audit {audit}"
        )
        assert peak < 0.05 * 16 * 2774555  # the orbits and the representatives' masks alone

    @pytest.mark.parametrize("n", [17, 35, 36, 10**5])
    def test_budget_refuses_before_any_per_state_array(self, monkeypatch, n):
        # the shares that depend on n alone exceed the budget from n = 17
        for name in ("arange", "empty", "zeros", "full"):

            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"numpy.{name} called past the byte budget")

            monkeypatch.setattr(np, name, refuse)
        with pytest.raises(BudgetExceeded) as info:
            build_matrix(ModelParams(n, 3, 0.3, 0.5))
        least = sum(nedpca.solver._shares(n, 0))
        assert least > nedpca.solver.BYTE_BUDGET
        assert str(info.value) == (
            f"n={n}, m=3 needs at least {least if n < 36 else f'2**{least.bit_length() - 1}'} bytes"
            f" before any stored entry, over the budget {nedpca.solver.BYTE_BUDGET}"
        )

    def test_solve_share_counts_the_rotation_orbits(self):
        # Q, one product temporary and the scaled panel rows, 8 k (2k + b), besides the
        # per-state arrays and one run
        for n in range(1, 13):
            k = len(set(rotation_orbits(n)))
            b = nedpca.solver._width(np.zeros((k, k)))
            each = (96 << n) + nedpca.solver._RUN_BYTES
            assert nedpca.solver._shares(n, 0)[1] == 8 * k * (2 * k + b) + each

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

    @pytest.mark.parametrize("n, m", [(13, 2), (14, 3)])
    def test_each_stage_fits_its_share_of_the_budget(self, n, m):
        # (13, 2) stores the most entries below n = 14, and (14, 3) lumps 1182 orbits
        def peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        matrix, build = peak(lambda: build_matrix(ModelParams(n, m, 0.3, 0.5)))
        table, solve = peak(lambda: solve_stationary(matrix))
        _, audit = peak(lambda: audit_detailed_balance(table, matrix))
        _, residual = peak(lambda: balance_residual(table, matrix))
        shares = nedpca.solver._shares(n, len(matrix.keys))
        assert all(peak < share for peak, share in zip((build, solve, audit), shares)), (build, solve, audit)
        assert residual < nedpca.solver._RUN_BYTES

    def test_n14_m3_matches_the_closed_form(self):
        # 710647 stored entries, 1182 orbits in 31 wide panels of 36, then 66 reduced on q
        params = ModelParams(14, 3, 0.3, 0.5)
        matrix = build_matrix(params)
        table = solve_stationary(matrix)
        probs = np.asarray(table.probs)
        expected = np.asarray(stationary_table_formula(params).probs)
        assert check_irreducible_aperiodic(matrix)
        assert np.max(np.abs(probs - expected) / expected) < 1e-13
        # the closed form's own table reads 1.1e-14 here too
        assert balance_residual(table, matrix) < 1e-13
        audit = audit_detailed_balance(table, matrix)
        assert audit.max_violation > 1e-6
        assert [c.to_string() for c in audit.witness] == ["10000000000000", "00100000000000"]

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
        # the missing edge's mass moves to another stored entry of its row, in every
        # rotation of the row (6 = 0110 is a rotation of the representative 3 = 1100)
        params = ModelParams(4, 2, 0.3, 0.5)
        entries = build_matrix(params).entries.copy()
        row, col = missing
        other = next(b for b in np.flatnonzero(entries[row]) if b != col)
        for t in range(4):
            a, b, c = (ror(x, t, 4) for x in (row, col, other))
            entries[a, c] += entries[a, b]
            entries[a, b] = 0.0
        assert not check_irreducible_aperiodic(rep_rows(params, entries))
        assert not full_certificate(FullP.from_dense(params, entries))


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
        # the premise of storing only the representatives' rows, on every row built alone
        orbit = rotation_orbits(n)
        for m in range(2, n + 1):
            entries = full_width_build(ModelParams(n, m, Fraction(1, 3), Fraction(1, 2)))
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
            solve_stationary(rep_rows(params, eye))

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

    @pytest.mark.parametrize(
        "n, m, p1, p2", [(6, 2, 0.5, 1e-300), (8, 2, 0.5, 1e-300), (8, 3, 0.5, 1e-300), (10, 2, 0.9, 1e-200)]
    )
    def test_masses_past_the_float_range_answer(self, n, m, p1, p2):
        # pi(0^n) / pi(010101) is about 6e-899 at the first point: mu from mu_0 = 1 would
        # overflow, so the back-substitution rescales it as it goes
        probs = np.asarray(solve_stationary(build_matrix(ModelParams(n, m, p1, p2))).probs)
        exact = stationary_table_formula(ModelParams(n, m, Fraction(p1), Fraction(p2))).probs
        expected = np.array([float(x) for x in exact])
        assert (probs >= 0).all() and math.fsum(probs) == pytest.approx(1.0)
        big = expected > 1e-300
        assert np.max(np.abs(probs[big] - expected[big]) / expected[big]) < 1e-12

    def test_ordinary_points_never_rescale(self, monkeypatch):
        # mu stays far below the rescale threshold, so the bits are those of mu_0 = 1
        for n, m in [(10, 2), (12, 3), (13, 5)]:
            matrix = build_matrix(ModelParams(n, m, 0.3, 0.5))
            default = solve_stationary(matrix).probs
            monkeypatch.setattr(nedpca.solver, "_RESCALE", math.inf)
            assert solve_stationary(matrix).probs == default, (n, m)
            monkeypatch.undo()

    def test_float_overflow_in_the_panel_product_names_the_point(self):
        # n = 8 has 36 orbits, so the width rule gives one wide panel, orbits 20..35.
        # Orbits 34 ({127, ...}) and 35 ({255}) go to orbit 1 and every other one to
        # 0^n, while 0^n sends 1e308 to each of them: the Schur product adds both into
        # q[0, 1] in one sum, and the sum overflows
        params = ModelParams(8, 2, 0.3, 0.5)
        sevens = [ror(127, t, 8) for t in range(8)]
        entries = np.zeros((256, 256))
        entries[:, 0] = 1.0
        entries[sevens + [0, 255], 0] = 0.0
        entries[sevens + [255], 1] = 1.0
        entries[0, sevens], entries[0, 255] = 1.25e307, 1e308
        with pytest.raises(SolveFailed, match=r"overflows a float at .*n=8, m=2, p1=0\.3, p2=0\.5") as failed:
            solve_stationary(rep_rows(params, entries))
        assert str(failed.value.__context__) == "overflow encountered in matmul"

    @pytest.mark.parametrize(
        "params, dead",
        [
            (ModelParams(10, 2, 0.3, 0.5), 30),  # k = 108: wide panel 5 of 5, orbits 28..43
            (ModelParams(10, 2, 0.3, 0.5), 12),  # the rest, orbits 27..1, reduced on q itself
            (ModelParams(6, 2, Fraction(1, 3), Fraction(1, 2)), 3),  # the one Fraction panel
        ],
        ids=["float-orbit30", "float-orbit12", "exact-orbit3"],
    )
    def test_dead_orbit_in_a_late_panel_is_named(self, params, dead):
        # every state of orbit `dead` holds itself, so the orbit never reaches a lower one
        orbit = rotation_orbits(params.n)
        rep = sorted(set(orbit))[dead]
        entries = build_matrix(params).entries.copy()
        zero, one = (Fraction(0), Fraction(1)) if params.exact else (0.0, 1.0)
        for a in range(params.n_states):
            if orbit[a] == rep:
                entries[a] = zero
                entries[a, a] = one
        with pytest.raises(SolveFailed, match=rf"orbit {dead} never reaches orbits 0\.\.{dead - 1}$"):
            solve_stationary(rep_rows(params, entries))


def dense_audit(table, matrix):
    """Reference fold: the whole flow gap at once. The witness is the first pair
    a != b in row-major order whose gap is within _TIE_ULPS ulps of its larger
    product below the maximum; when the maximum is below twice the largest such
    tolerance, the first with a positive flow either way; (0, 0) if every gap is 0."""
    p = np.asarray(matrix.entries, dtype=float)
    pi = np.asarray(table.probs, dtype=float)
    x = pi[:, None] * p
    gap = np.abs(x - x.T)
    tie = nedpca.solver._TIE_ULPS * np.finfo(float).eps
    reach = gap + tie * np.maximum(x, x.T)
    np.fill_diagonal(reach, 0.0)
    worst = gap.max()
    hit = reach >= worst if worst >= 2 * tie * pi.max() * p.max() else reach > 0
    a, b = divmod(int(np.flatnonzero(hit)[0]), len(pi)) if worst > 0 else (0, 0)
    return float(worst), (a, b)


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
    """The full m = 2 reference at (0.3, 0.5) with P[a->b] dropped at each stored a < b
    with 5 | a + b, so P[b->a] has no stored mirror; and the table of the full one."""
    params = ModelParams(n, 2, 0.3, 0.5)
    entries = full_build(params).entries
    a, b = np.nonzero(np.triu(entries, 1))
    drop = (a + b) % 5 == 0
    entries[a[drop], b[drop]] = 0.0
    return FullP.from_dense(params, entries), solve_stationary(build_matrix(params))


def flipped_matrix(n):
    """The full m = 3 reference relabelled a -> 2**n - 1 - a, and its table."""
    params = ModelParams(n, 3, 0.3, 0.5)
    flipped = FullP.from_dense(params, full_build(params).entries[::-1, ::-1].copy())
    return flipped, StationaryTable(params, solve_stationary(build_matrix(params)).probs[::-1])


def built_matrix(n, m):
    params = ModelParams(n, m, 0.3, 0.5)
    return full_build(params), solve_stationary(build_matrix(params))


def audit_slack(table, full):
    """Twice the largest tie tolerance of any pair: the rounding a maximum may carry."""
    tie = nedpca.solver._TIE_ULPS * np.finfo(float).eps
    return 2 * tie * max(map(float, table.probs)) * float(full.vals.max())


def assert_audit_matches(table, matrix, full, dense=True):
    """The package's audit against the full-P reference: the same witness, and a
    maximum within the slack, since the reference also forms the gaps of each pair's
    rotations, which round apart; the reference itself is the dense fold's."""
    audit = audit_detailed_balance(table, matrix)
    worst, witness = full_audit(table, full)
    if dense:
        assert (worst, witness) == dense_audit(table, full)
    assert audit_key(audit)[1] == witness
    assert abs(audit.max_violation - worst) <= audit_slack(table, full)


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
            params = ModelParams(n, m, p1, p2)
            matrix, full = build_matrix(params), full_build(params)
            for table in (solve_stationary(matrix), stationary_table_formula(params)):
                assert_audit_matches(table, matrix, full)

    @pytest.mark.parametrize("n", [5, 8])
    @pytest.mark.parametrize("m, p1, p2", [(3, 0.3, 0.5), (2, 0.3, 0.7)])
    def test_ragged_blocks_of_three_rows(self, monkeypatch, n, m, p1, p2):
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 3 << n)  # runs of 3 * 2**n stored entries or ranks
        params = ModelParams(n, m, p1, p2)
        matrix = build_matrix(params)
        assert_audit_matches(solve_stationary(matrix), matrix, full_build(params))

    @pytest.mark.parametrize("block", [nedpca.solver._BLOCK, 4, 8, 12], ids=lambda b: f"rows{max(1, b // 4)}")
    def test_tied_maximum_keeps_the_dense_witness(self, monkeypatch, block):
        # uniform pi, so the gap is |P[a, b] - P[b, a]| / 4, exact in binary; it
        # peaks at 1/8 on the unordered pairs {1, 3} and {2, 3}, off row 0. The
        # package reads P[b->a] from the model, so this hand-built P is the reference's
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
        matrix = FullP.from_dense(params, entries)
        table = StationaryTable(params, (0.25,) * 4)
        gap = np.abs(0.25 * entries - 0.25 * entries.T)
        assert np.count_nonzero(np.triu(gap) == gap.max()) == 2
        assert dense_audit(table, matrix) == (0.125, (1, 3))
        assert full_audit(table, matrix) == (0.125, (1, 3))

    @pytest.mark.parametrize("n", [5, 8])
    def test_witness_in_a_late_ragged_block(self, monkeypatch, n):
        # relabel a -> 2**n - 1 - a so the worst pair sits inside a late block
        # runs of 24 column-major ranks, cut inside columns; the witness is first
        # reached in run 1 of 6 (n = 5) and run 24 of 92 (n = 8), counting from 0
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 24)
        flipped, table = flipped_matrix(n)
        audit = full_audit(table, flipped)
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
        # the reference's cuts fall inside columns, and some block reads mirrors both ways
        matrix, table = make()
        assert mixed_blocks(matrix, block) > 0
        monkeypatch.setattr(nedpca.solver, "_BLOCK", block)
        assert full_audit(table, matrix) == dense_audit(table, matrix)

    @pytest.mark.parametrize(
        "params, witness",
        [
            (ModelParams(11, 5, 0.9, 0.2), ("10000000000", "01111111000")),
            (ModelParams(12, 2, 1e-30, 1e-30), ("100000000000", "010000000000")),
        ],
        ids=["n11-m5", "n12-tiny"],
    )
    def test_witness_survives_the_solves_rounding(self, monkeypatch, params, witness):
        # rotations of one pair tie exactly, and each table rounds their gaps apart by a
        # few ulps of the products; the smallest tied pair is the witness of every table
        matrix = build_matrix(params)
        tables = [
            solve_stationary(matrix),
            lumped_table(matrix, unblocked_reduce),
            StationaryTable(params, tuple(map(float, stationary_table_formula(params).probs))),
        ]
        for width in (5, 7):
            monkeypatch.setattr(nedpca.solver, "_width", lambda q, width=width: width)
            tables.append(solve_stationary(matrix))
        assert len({t.probs for t in tables}) >= 3
        for table in tables:
            audit = audit_detailed_balance(table, matrix)
            assert tuple(c.to_string() for c in audit.witness) == witness
        # compared exactly, as the tie rule did before, the witness moves with the rounding
        monkeypatch.setattr(nedpca.solver, "_TIE_ULPS", 0)
        assert len({audit_key(audit_detailed_balance(t, matrix)) for t in tables}) > 1

    @pytest.mark.parametrize("n", [8, 12])
    def test_reversible_witness_is_the_smallest_flow_pair(self, monkeypatch, n):
        # p1 + p2 = 1 at m = 2 is reversible: every gap is rounding, under the tie slack,
        # and the witness is 0^n -> 0^(n-1)1, the smallest pair with a flow, for every table
        params = ModelParams(n, 2, 0.3, 0.7)
        matrix, full = build_matrix(params), full_build(params)
        tables = [
            solve_stationary(matrix),
            lumped_table(matrix, unblocked_reduce),
            StationaryTable(params, tuple(map(float, stationary_table_formula(params).probs))),
        ]
        for width in (5, 7):
            monkeypatch.setattr(nedpca.solver, "_width", lambda q, width=width: width)
            tables.append(solve_stationary(matrix))
        for table in tables:
            audit = audit_detailed_balance(table, matrix)
            assert audit.max_violation < 1e-16
            assert_audit_matches(table, matrix, full, dense=n < 12)
            assert audit_key(audit)[1] == (0, 1)

    @pytest.mark.parametrize("block", [24, nedpca.solver._BLOCK])
    def test_late_violation_after_rounding_only_runs(self, monkeypatch, block):
        # a reversible matrix with one late pair's backward entry halved: the reference's
        # runs before it hold rounding alone, below half the slack, and take no tie candidates
        monkeypatch.setattr(nedpca.solver, "_BLOCK", block)
        params = ModelParams(8, 2, 0.3, 0.7)
        table = solve_stationary(build_matrix(params))
        entries = full_build(params).entries
        a, b = np.argwhere(np.triu((entries > 0) & (entries.T > 0), 1))[-1]  # the last such pair, a < b
        entries[b, a] /= 2
        broken = FullP.from_dense(params, entries)
        audit = full_audit(table, broken)
        assert audit == dense_audit(table, broken)
        assert audit[0] > 1e-6 and audit[1] == (a, b)

    def test_audit_peak_is_near_the_stored_entries(self, monkeypatch):
        # the densest pattern: one gap per stored entry, and one run's temporaries at a time
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 1 << 12)
        matrix = build_matrix(ModelParams(12, 2, 0.3, 0.5))
        table = solve_stationary(matrix)
        tracemalloc.start()
        try:
            audit_detailed_balance(table, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (matrix.keys.nbytes + matrix.vals.nbytes)

    def test_residual_holds_no_per_entry_array(self, monkeypatch):
        # the representatives' 130203 entries at (13, 2) in 32 flat runs: only one run's
        # temporaries are ever live
        monkeypatch.setattr(nedpca.solver, "_BLOCK", 1 << 12)
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

    @pytest.mark.parametrize("p1, p2", [(0.3, 0.5), (Fraction(1, 3), Fraction(1, 2))], ids=["float", "exact"])
    def test_table_not_constant_on_orbits_is_refused(self, p1, p2):
        # states 1 = 100000 and 3 = 110000 swap their masses, so neither orbit is constant:
        # the lumped checks read each orbit once and would answer for another table
        params = ModelParams(6, 3, p1, p2)
        matrix = build_matrix(params)
        probs = list(solve_stationary(matrix).probs)
        probs[1], probs[3] = probs[3], probs[1]
        swapped = StationaryTable(params, tuple(probs))
        for check in (balance_residual, audit_detailed_balance):
            with pytest.raises(DimensionMismatch, match=rf"not constant on rotation orbits at .*n=6, m=3"):
                check(swapped, matrix)


class TestFullReference:
    """The certificate, the residual and the audit, which read only the
    representatives' rows, against the same checks on every row of P."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "p1, p2, n_hi",
        [(0.3, 0.5, 10), (0.3, 0.7, 10), (0.9, 0.2, 10), (Fraction(1, 3), Fraction(1, 2), 9)],
        ids=["float-0.3-0.5", "balanced-0.3-0.7", "float-0.9-0.2", "exact"],
    )
    def test_checks_equal_the_full_reference(self, m, p1, p2, n_hi):
        # the residual of a stationary table is rounding on both sides in floats, so the
        # table of p1 / 2, far from stationary, is compared too
        for n in range(m, n_hi + 1):
            params = ModelParams(n, m, p1, p2)
            matrix, full = build_matrix(params), full_build(params)
            assert check_irreducible_aperiodic(matrix) is full_certificate(full) is True, n
            other = StationaryTable(params, stationary_table_formula(ModelParams(n, m, p1 / 2, p2)).probs)
            for table in (solve_stationary(matrix), stationary_table_formula(params), other):
                residual, reference = balance_residual(table, matrix), add_at_residual(table, full)
                if params.exact:
                    assert residual == reference, n
                elif table is other:
                    assert residual == pytest.approx(reference, rel=1e-12), n
                else:
                    assert max(residual, reference) < 1e-13, n
                assert_audit_matches(table, matrix, full, dense=False)


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
