import pytest

from specpot import spectral
from specpot.errors import ConfigError
from specpot.verify import SUITE_ORDER, SUITES, run_suite, suite_gap_critical, suite_thm12


def test_registry_names():
    expected = {"thm11", "thm12", "circle-critical", "no-local-min-λ2",
                "gap-critical", "gap-no-min"}
    assert expected <= set(SUITES)
    assert "no-local-min-l2" in SUITES  # ascii alias
    assert set(SUITE_ORDER) == expected


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="thm99"):
        run_suite("thm99", 0)


def test_suite_result_shape():
    out = suite_gap_critical(3)
    assert out["suite"] == "gap-critical"
    assert isinstance(out["passed"], bool)
    for check in out["checks"]:
        assert {"name", "passed", "measured", "tolerance"} <= set(check)


def test_suite_deterministic_in_seed():
    import json

    a = suite_gap_critical(5)
    b = suite_gap_critical(5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_gap_no_min_stops_on_an_unproven_cluster():
    # at seed 24 the gap(2,3) run reaches lambda_3 - lambda_2 = 2.06e-6, just
    # above the cluster tolerance: lambda_3 then lies within solver accuracy
    # of lambda_2's cluster edge, so no count proves that cluster complete and
    # the run stops on "cluster_unproven" instead of raising
    assert run_suite("gap-no-min", 24)["passed"]


@pytest.mark.parametrize("suite, solves", [(suite_thm12, 4), (suite_gap_critical, 2)])
def test_one_solve_per_potential(suite, solves, monkeypatch):
    # thm12 reads lambda_1..lambda_5 and f_1 from one solve at each of its 4
    # potentials; gap-critical solves the zero potential once per mesh
    calls = []
    solve = spectral.eigensolve

    def counted(grid, H, k, potential=None, start=None):
        calls.append(k)
        return solve(grid, H, k, potential, start)

    monkeypatch.setattr(spectral, "eigensolve", counted)
    assert suite(7)["passed"]
    assert len(calls) == solves
