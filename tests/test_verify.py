import pytest

from specpot import banded, spectral, verify
from specpot.errors import ConfigError
from specpot.verify import (
    SUITE_ORDER,
    SUITES,
    run_suite,
    suite_gap_critical,
    suite_thm11,
    suite_thm12,
)


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

    def counted(grid, H, k, **kwargs):
        calls.append(k)
        return solve(grid, H, k, **kwargs)

    monkeypatch.setattr(spectral, "eigensolve", counted)
    assert suite(7)["passed"]
    assert len(calls) == solves


def test_thm11_sweep_solves_in_groups(monkeypatch):
    # each domain's 50 random potentials and its constant potential take one
    # batched first solve per group of banded.group_size and one Sturm count
    # each, and no single solve. One cold solve per potential would make 102
    # single solves.
    groups, singles, counts = [], [], []
    solve, count = banded.lowest_pairs, banded.count_below

    def recorded(bands, k, seed, start=None):
        (groups if bands.ndim == 3 else singles).append(len(bands))
        return solve(bands, k, seed, start)

    def counted(bands, x):
        counts.append(x)
        return count(bands, x)

    class SweepDone(Exception):
        pass

    def optimizer_reached(*args, **kwargs):
        raise SweepDone

    monkeypatch.setattr(banded, "lowest_pairs", recorded)
    monkeypatch.setattr(banded, "count_below", counted)
    monkeypatch.setattr(verify, "run_optimizers", optimizer_reached)
    with pytest.raises(SweepDone):
        suite_thm11(7)
    size = banded.group_size(verify.N_1D, 2)
    per_domain = [size] * (51 // size) + ([51 % size] if 51 % size else [])
    assert groups == 2 * per_domain
    assert len(per_domain) == 7
    assert singles == []
    assert len(counts) == 102


def test_thm11_ascents_solve_in_lockstep(monkeypatch):
    # each grid's five ascents run in lockstep: every round's requests take
    # one batched first attempt, 5 rounds on each grid, and no request is
    # solved alone. One solve per request would make 49 single solves.
    groups, singles, inside = [], [], []
    solve, lockstep = banded.lowest_pairs, verify.run_optimizers

    def recorded(bands, k, seed, start=None):
        if inside:
            (groups if bands.ndim == 3 else singles).append(len(bands))
        return solve(bands, k, seed, start)

    def entered(*args, **kwargs):
        inside.append(1)
        try:
            return lockstep(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(banded, "lowest_pairs", recorded)
    monkeypatch.setattr(verify, "run_optimizers", entered)
    assert suite_thm11(7)["passed"]
    assert len(groups) == 10
    assert max(groups) <= 5
    assert sum(groups) == 49
    assert singles == []
