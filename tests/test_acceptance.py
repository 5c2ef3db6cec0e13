"""Acceptance gate: all ten end-to-end criteria at full production size.

Each criterion prints its one-line verdict even under pytest's capture, so
the run log always carries the complete scoreboard. All ten are expected
to pass; the module docstring of nedpca.acceptance explains the reversibility
map behind criterion 5 and the balanced-line partition function behind
criterion 6. Set NEDPCA_ACCEPTANCE_LEVEL=quick to run the reduced sweeps
instead (for example on a laptop). TestFailureDetails breaks one input of a
criterion at a time, so the verdict text of a red gate is checked too.
"""

import os
from fractions import Fraction

import pytest

import nedpca.acceptance as acceptance
from nedpca import ParamError
from nedpca.acceptance import run_level

LEVEL = os.environ.get("NEDPCA_ACCEPTANCE_LEVEL", "full")


@pytest.fixture(scope="module")
def results():
    return run_level(LEVEL)


@pytest.mark.parametrize("index", range(1, 11))
def test_criterion(index, results, capsys):
    res = results[index - 1]
    with capsys.disabled():
        print()
        print(res.line())
    assert res.passed, res.detail


def test_run_level_rejects_unknown_levels():
    with pytest.raises(ParamError, match="level must be 'quick' or 'full', got 'medium'"):
        run_level("medium")


class TestFailureDetails:
    def test_criterion_02_names_the_wrong_z(self, monkeypatch):
        monkeypatch.setattr(acceptance, "partition_formula", lambda params: Fraction(5))
        res = acceptance.criterion_02()
        assert not res.passed
        assert res.detail == "Z ok=False formula ok=True solver ok=True; got Z=5"

    def test_criterion_05_lists_points_off_the_map(self, monkeypatch):
        witness = acceptance.one_directional_pair

        def lose_one_witness(params):
            if (params.n, params.p1, params.p2) == (4, 0.5, 0.6):
                return None
            return witness(params)

        monkeypatch.setattr(acceptance, "one_directional_pair", lose_one_witness)
        res = acceptance.criterion_05()
        assert not res.passed
        assert res.detail.endswith("; 1 m=3 point(s) off the expected map: (n=4,p1=0.5,p2=0.6)")

    def test_criterion_10_names_the_first_mismatch(self, monkeypatch):
        advance = acceptance._advance

        def corrupt_one_step(code, params, u, kernel):
            trajectory = advance(code, params, u, kernel)
            if kernel == "bitparallel" and params.n == 16:
                trajectory[515] ^= 1
            return trajectory

        monkeypatch.setattr(acceptance, "_advance", corrupt_one_step)
        res = acceptance.criterion_10(reduced=True)
        assert not res.passed
        assert res.detail.startswith("kernel mismatch at n=16 step 515;")
        assert "merged summaries identical" in res.detail
