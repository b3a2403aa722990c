import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specpot import banded, cli, optimize, spectral
from specpot.domain import (BoundaryCondition, Circle, Interval, Potential, build_grid,
                            laplacian_modes, mean_value)
from specpot.errors import ConfigError, SolverError
from specpot.optimize import (
    MAX_BOUND,
    ConstraintSpec,
    IterateRecord,
    OptimizeResult,
    ObjectiveSpec,
    Schedule,
    project_feasible,
    refute_local_min,
    run_optimizer,
    subgradient_direction,
)
from specpot.certificates import CertificateStatus, criticality_certificate
from specpot.perturbation import make_direction, one_sided_derivatives
from specpot.spectral import detect_cluster, solve_spectrum, spectrum_with_complete_cluster
from specpot.verify import _random_fourier

SMALL_CIRCLE = build_grid(Circle(), 32, BoundaryCondition.CLOSED)


def bisection_projection(grid, values, constraint):
    """Reference projection: bisection on the shift mu over the bracket
    [-B - max v, B - min v], on which the clipped mean runs from -B to B."""
    B, c = constraint.bound_B, constraint.mean_c
    lo, hi = -B - np.max(values), B - np.min(values)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if mean_value(grid, np.clip(values + mu, -B, B)) < c:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 1e-16 * max(1.0, B):
            break
    return np.clip(values + 0.5 * (lo + hi), -B, B)


class TestSpecs:
    def test_objective_validation(self):
        with pytest.raises(ConfigError):
            ObjectiveSpec("eigenvalue", 0)
        with pytest.raises(ConfigError):
            ObjectiveSpec("gap", 2, 2)
        with pytest.raises(ConfigError):
            ObjectiveSpec("eigenvalue", 1, 3)
        with pytest.raises(ConfigError):
            ObjectiveSpec("eigenvalue", 1, sense="grow")

    def test_constraint_validation(self):
        with pytest.raises(ConfigError):
            ConstraintSpec(2.0, 1.0)
        ConstraintSpec(1.0, 1.0)  # B = |c| is the degenerate but valid box

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            Schedule("warp")
        with pytest.raises(ConfigError):
            Schedule("polyak")
        Schedule("polyak", target=0.0)

    def test_non_positive_step_rejected(self):
        for s0 in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError, match="step must be positive"):
                Schedule("constant", s0=s0)
        Schedule("constant", s0=1e-3)

    def test_iteration_counts_validated(self):
        q0 = Potential.zero(SMALL_CIRCLE)
        args = (SMALL_CIRCLE, ObjectiveSpec("eigenvalue", 1), ConstraintSpec(0.0, 1.0), q0)
        for max_iters in (0, -5):
            with pytest.raises(ConfigError, match="iters must be at least 1"):
                run_optimizer(*args, max_iters=max_iters)
        with pytest.raises(ConfigError, match="cert_every must be >= 0"):
            run_optimizer(*args, max_iters=2, cert_every=-3)


class TestProjectFeasible:
    def test_feasible_unchanged(self, circle_grid):
        con = ConstraintSpec(0.5, 2.0)
        q = Potential.constant(circle_grid, 0.5)
        out = project_feasible(circle_grid, q, con)
        assert np.max(np.abs(out.values - q.values)) <= 1e-12

    def test_clip_and_recenter(self, circle_grid):
        c, B = 0.3, 1.0
        con = ConstraintSpec(c, B)
        q = Potential.from_values(circle_grid, c + 2 * B * np.cos(circle_grid.coords))
        out = project_feasible(circle_grid, q, con)
        assert abs(mean_value(circle_grid, out.values) - c) <= 1e-10
        assert np.max(np.abs(out.values)) <= B + 1e-12

    def test_degenerate_box(self, circle_grid):
        con = ConstraintSpec(1.0, 1.0)
        rng = np.random.default_rng(0)
        out = project_feasible(circle_grid, Potential.from_values(circle_grid, rng.uniform(-3, 3, 256)), con)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-7
        assert abs(out.mean - 1.0) <= 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        v=arrays(np.float64, 32, elements=st.floats(-10, 10)),
        c_frac=st.floats(-1, 1),
        B=st.floats(0.1, 5),
    )
    @example(v=0.3 + 2.0 * np.cos(SMALL_CIRCLE.coords), c_frac=0.3, B=1.0)
    def test_exact_projection(self, v, c_frac, B):
        # KKT conditions of the projection onto {mean = c, |q| <= B}: one
        # shift mu for every entry left strictly inside the box
        g = SMALL_CIRCLE
        c = c_frac * B
        con = ConstraintSpec(c, B)
        out = project_feasible(g, v, con).values
        assert abs(mean_value(g, out) - c) <= 1e-12
        assert np.max(np.abs(out)) <= B
        inside = np.abs(out) < B
        if inside.any():
            shifts = (out - v)[inside]
            assert np.max(shifts) - np.min(shifts) <= 1e-12
        again = project_feasible(g, out, con).values
        assert np.max(np.abs(again - out)) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        u=arrays(np.float64, 32, elements=st.floats(-3, 3)),
        c_frac=st.one_of(st.floats(-1, 1), st.sampled_from([-1.0, 1.0])),
        B=st.one_of(st.floats(0.1, 5), st.just(MAX_BOUND)),
    )
    @example(u=np.zeros(32), c_frac=0.5, B=1.0)
    @example(u=np.where(np.arange(32) % 2, 2.0, -2.5), c_frac=0.1, B=1.0)   # every entry clipped
    @example(u=np.full(32, 3.0), c_frac=-1.0, B=MAX_BOUND)
    @example(u=np.linspace(-3, 3, 32), c_frac=1.0, B=MAX_BOUND)
    def test_matches_bisection(self, u, c_frac, B):
        # the breakpoint search and the bisection it replaced find the same
        # projection; v spans up to 3 B, so inputs outside the box are common
        g = SMALL_CIRCLE
        con = ConstraintSpec(c_frac * B, B)
        v = B * u
        out = project_feasible(g, v, con).values
        assert np.max(np.abs(out)) <= B
        assert abs(mean_value(g, out) - con.mean_c) <= 1e-15 * max(1.0, B)
        assert np.max(np.abs(out - bisection_projection(g, v, con))) <= 1e-12 * max(1.0, B)


class TestSubgradientDirection:
    def test_dirichlet_matches_explicit(self, dirichlet_zero_spec, dirichlet_grid):
        # steepest ascent of lambda_1 is proportional to V f1^2 - 1
        u = subgradient_direction(dirichlet_zero_spec, ObjectiveSpec("eigenvalue", 1),
                                  detect_cluster(dirichlet_zero_spec, 1), None)
        f1 = dirichlet_zero_spec.eigenvector(1)
        explicit = dirichlet_grid.volume * f1**2 - 1.0
        cosine = dirichlet_grid.inner(u.values, explicit) / (
            np.sqrt(dirichlet_grid.inner(u.values, u.values))
            * np.sqrt(dirichlet_grid.inner(explicit, explicit))
        )
        assert cosine == pytest.approx(1.0, abs=1e-12)
        assert dirichlet_grid.inner(u.values * f1, f1) > 0

    def test_vanishes_at_constant(self, neumann_grid):
        spec = solve_spectrum(neumann_grid, Potential.constant(neumann_grid, 0.4), 7)
        u = subgradient_direction(spec, ObjectiveSpec("eigenvalue", 1), detect_cluster(spec, 1),
                                  None)
        assert u.sup_norm <= 1e-10

    def test_gap_direction_ascends_when_simple(self, dirichlet_zero_spec):
        # both eigenvalues simple: the direction is the exact gap gradient
        from specpot.perturbation import gap_one_sided_derivatives

        u = subgradient_direction(dirichlet_zero_spec, ObjectiveSpec("gap", 1, 2),
                                  detect_cluster(dirichlet_zero_spec, 1),
                                  detect_cluster(dirichlet_zero_spec, 2))
        d = gap_one_sided_derivatives(dirichlet_zero_spec, 1, 2, u)
        assert d.right > 1e-6
        assert d.left == pytest.approx(d.right, abs=1e-12)

    def test_gap_direction_critical_at_zero(self, circle_zero_spec):
        # q = 0 is critical for the ground gap: the chosen branch direction
        # has one-sided derivatives of opposite signs
        from specpot.perturbation import gap_one_sided_derivatives

        u = subgradient_direction(circle_zero_spec, ObjectiveSpec("gap", 1, 2),
                                  detect_cluster(circle_zero_spec, 1),
                                  detect_cluster(circle_zero_spec, 2))
        d = gap_one_sided_derivatives(circle_zero_spec, 1, 2, u)
        assert d.right <= 1e-12 and d.left >= -1e-12

    def test_uses_the_clusters_it_is_given(self, circle_zero_spec, monkeypatch):
        # the optimizer holds the clusters of i and j; the direction must not
        # detect them again
        spec = circle_zero_spec
        c1, c2 = detect_cluster(spec, 1), detect_cluster(spec, 2)

        def refuse(*args):
            raise AssertionError("detect_cluster called")

        monkeypatch.setattr(optimize, "detect_cluster", refuse)
        for objective, ci, cj in ((ObjectiveSpec("eigenvalue", 2), c2, None),
                                  (ObjectiveSpec("gap", 1, 2), c1, c2)):
            u = subgradient_direction(spec, objective, ci, cj)
            assert u.values.shape == (spec.grid.n_nodes,)


class TestRunOptimizer:
    def test_circle_max_lambda1(self, circle_grid, monkeypatch, tmp_path):
        con = ConstraintSpec(0.0, 2.0)
        obj = ObjectiveSpec("eigenvalue", 1, sense="maximize")
        raw = Potential.fourier(circle_grid, (0.4, -0.3), (0.2,)).values
        q0 = Potential.from_values(circle_grid, 0.6 * raw / np.max(np.abs(raw)))
        projected = []
        project = optimize.project_feasible

        def recorded(grid, q, constraint):
            projected.append(project(grid, q, constraint))
            return projected[-1]

        monkeypatch.setattr(optimize, "project_feasible", recorded)
        result = run_optimizer(circle_grid, obj, con, q0, Schedule("polyak", target=0.0),
                               max_iters=300, cert_every=0)
        assert np.max(np.abs(result.potential.values)) <= 1e-2
        assert result.objective >= -1e-4
        # feasibility held at every iterate: the first is q0's projection and
        # each later one an accepted candidate, and the projection returned
        # every candidate, the rejected ones too
        assert len(projected) >= result.iterations
        for pot in projected:
            assert abs(mean_value(circle_grid, pot.values) - con.mean_c) <= 1e-10
            assert np.max(np.abs(pot.values)) - con.bound_B <= 1e-12
        # upper bound respected throughout
        objs = [r.objective for r in result.log]
        assert max(objs) <= 0.0 + 1e-9
        # monotone ascent on the (always simple) ground state
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        # the run stops on target at a recorded iterate: one record per
        # iterate, none repeated at an iteration that never ran
        assert result.stop_reason == "target"
        assert [r.iteration for r in result.log] == list(range(1, result.iterations + 1))
        monkeypatch.setattr(cli, "run_optimizer", lambda *args, **kwargs: result)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[domain]\nkind=circle\nlength=6.283185307179586\nnodes=256\nbc=closed\n"
                       "\n[potential]\npreset=zero\n"
                       "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\n"
                       "bound=2.0\n")
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "iterates.csv").read_text().strip().splitlines()[1:]
        values = [row.split(",", 1)[1] for row in rows]
        assert len(rows) == result.iterations
        assert len(set(values)) == len(values)

    def test_polyak_ascent_stops_at_target(self, circle_grid):
        # lambda_1 <= mean(q) = 0 with equality only at constants: a Polyak
        # run knows its optimal value and stops when it gets there
        con = ConstraintSpec(0.0, 2.0)
        obj = ObjectiveSpec("eigenvalue", 1, sense="maximize")
        raw = Potential.fourier(circle_grid, (0.4, -0.3), (0.2,)).values
        q0 = Potential.from_values(circle_grid, 0.6 * raw / np.max(np.abs(raw)))
        result = run_optimizer(circle_grid, obj, con, q0, Schedule("polyak", target=0.0),
                               max_iters=300, cert_every=0)
        assert result.stop_reason == "target"
        assert abs(result.log[-1].objective) <= 1e-12
        assert result.iterations < 300
        assert not result.aborted

    @pytest.mark.parametrize("domain", ["circle_grid", "neumann_grid"])
    def test_candidate_solves_start_warm(self, domain, request, monkeypatch):
        # each candidate is solved from the eigenvectors of the iterate it
        # steps from, without the shift-invert steps of a cold solve: these
        # thm11-style ascents take 5 iterations and pay 2.0-2.4 shifted solves
        # per eigensolve, the cold first solve included, where solves from the
        # seeded block pay 4.1-5.0. The start is a function of the run alone,
        # so two runs agree bit for bit.
        grid = request.getfixturevalue(domain)
        counts = {"solves": 0, "shifted": 0}
        solve, shifted = spectral.eigensolve, banded.shifted_solve

        def counted_solve(*args, **kwargs):
            counts["solves"] += 1
            return solve(*args, **kwargs)

        def counted_shifted(*args, **kwargs):
            counts["shifted"] += 1
            return shifted(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigensolve", counted_solve)
        monkeypatch.setattr(banded, "shifted_solve", counted_shifted)
        sines = (0.2, -0.4) if domain == "circle_grid" else ()
        raw = Potential.fourier(grid, (0.5, -0.3, 0.2), sines).values
        q0 = Potential.from_values(grid, 0.8 * raw / np.max(np.abs(raw)))
        first, second = (run_optimizer(grid, ObjectiveSpec("eigenvalue", 1), ConstraintSpec(0.0, 2.0),
                                       q0, Schedule("polyak", target=0.0), max_iters=400,
                                       cert_every=0) for _ in range(2))
        assert first.stop_reason == "target"
        assert counts["shifted"] <= 2.5 * counts["solves"]
        assert [dataclasses.astuple(r) for r in first.log] == [
            dataclasses.astuple(r) for r in second.log]
        assert first.potential.values.tobytes() == second.potential.values.tobytes()

    def test_gap_candidate_solves_start_warm(self, circle_grid, monkeypatch):
        # gap-no-min's gap(2, 3) Polyak minimization at seed 7: 17 iterations,
        # a first solve from the Laplacian's modes and 16 warm candidate
        # solves. Work is counted in shifted-solve columns (right-hand sides),
        # since a narrower block may take a step more: 3 + 2 pairs per solve
        # take 19 shifted solves of 128 columns (23 of 153 when the first
        # solve took shift-invert steps from a seeded block).
        counts = {"solves": 0, "columns": 0}
        starts = []
        solve, shifted, lowest = spectral.eigensolve, banded.shifted_solve, banded.lowest_pairs

        def counted_solve(*args, **kwargs):
            counts["solves"] += 1
            return solve(*args, **kwargs)

        def counted_shifted(shifted_diag, off, rhs, *args, **kwargs):
            counts["columns"] += rhs.shape[0] * rhs.shape[2]
            return shifted(shifted_diag, off, rhs, *args, **kwargs)

        def counted_lowest(bands, k, seed, start=None):
            starts.append(start)
            return lowest(bands, k, seed, start)

        monkeypatch.setattr(spectral, "eigensolve", counted_solve)
        monkeypatch.setattr(banded, "shifted_solve", counted_shifted)
        monkeypatch.setattr(banded, "lowest_pairs", counted_lowest)
        constraint = ConstraintSpec(0.0, 2.0)
        rng = np.random.default_rng([7, 16])
        q0 = project_feasible(circle_grid, _random_fourier(circle_grid, rng, 0.05), constraint)
        result = run_optimizer(circle_grid, ObjectiveSpec("gap", 2, 3, sense="minimize"),
                               constraint, q0, Schedule("polyak", target=0.0), max_iters=200)
        assert result.objective <= 1e-3
        assert len(starts) == counts["solves"]
        modes = laplacian_modes(circle_grid, 7).tobytes()   # 5 pairs and 2 guard columns
        assert [start.tobytes() == modes for start in starts] == [True] + [False] * (
            counts["solves"] - 1)
        assert counts["columns"] <= 135

    @pytest.mark.parametrize("kind, reason", [("polyak", "target"), ("sqrt", "stagnation"),
                                              ("constant", "stagnation")])
    def test_only_polyak_stops_at_target(self, kind, reason):
        # at the constant potential lambda_1 already equals the target; only
        # a Polyak run reads it, while the sqrt and constant runs, handed the
        # same target, stop because the ascent direction vanishes there
        con = ConstraintSpec(0.0, 1.0)
        obj = ObjectiveSpec("eigenvalue", 1, sense="maximize")
        schedule = Schedule(kind, s0=None if kind == "polyak" else 0.1, target=0.0)
        result = run_optimizer(SMALL_CIRCLE, obj, con, Potential.zero(SMALL_CIRCLE), schedule,
                               max_iters=20, cert_every=0)
        assert result.stop_reason == reason
        assert result.iterations == 1

    def test_dirichlet_ascent_saturates(self):
        g = build_grid(Interval(np.pi), 128, BoundaryCondition.DIRICHLET)
        con = ConstraintSpec(0.0, 10.0)
        obj = ObjectiveSpec("eigenvalue", 1, sense="maximize")
        result = run_optimizer(g, obj, con, Potential.zero(g),
                               Schedule("constant", s0=2.0), max_iters=120, cert_every=0)
        objs = [r.objective for r in result.log]
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        assert result.objective > objs[0] + 1.0
        assert result.stop_reason in ("max_iters", "stagnation")
        assert result.box_saturated_fraction > 0.05

    def test_gap_minimization_reaches_zero(self, circle_grid):
        con = ConstraintSpec(0.0, 2.0)
        obj = ObjectiveSpec("gap", 2, 3, sense="minimize")
        q0 = Potential.fourier(circle_grid, (0.03, 0.05), (0.02,))
        result = run_optimizer(circle_grid, obj, con, q0, Schedule("polyak", target=0.0),
                               max_iters=100, cert_every=0)
        assert result.objective <= 1e-3
        assert result.stop_reason in ("gap_degenerate", "stagnation", "certificate")

    def test_polyak_gap_run_merges_before_target(self, circle_grid):
        # the clusters of 2 and 3 merge (within the cluster tolerance) long
        # before the gap reaches TARGET_TOL, so a gap run never stops on target
        con = ConstraintSpec(0.0, 2.0)
        obj = ObjectiveSpec("gap", 2, 3, sense="minimize")
        q0 = Potential.fourier(circle_grid, (0.03, 0.05), (0.02,))
        result = run_optimizer(circle_grid, obj, con, q0, Schedule("polyak", target=0.0),
                               max_iters=100)
        assert result.stop_reason in ("gap_degenerate", "certificate")
        assert result.objective > optimize.TARGET_TOL

    def test_unproven_cluster_stops(self, monkeypatch):
        # the direction needs the whole eigenspace of i's cluster: when no count
        # proves it complete, the run records the iterate and stops, not raises
        def unproven(spec, i):
            return dataclasses.replace(detect_cluster(spec, i), complete=False)

        monkeypatch.setattr(optimize, "detect_cluster", unproven)
        obj = ObjectiveSpec("gap", 2, 3, sense="minimize")
        q0 = Potential.fourier(SMALL_CIRCLE, (0.03, 0.05), (0.02,))
        result = run_optimizer(SMALL_CIRCLE, obj, ConstraintSpec(0.0, 2.0), q0,
                               Schedule("polyak", target=0.0), max_iters=20)
        assert result.stop_reason == "cluster_unproven"
        assert (result.iterations, len(result.log), result.aborted) == (1, 1, False)

    def test_certificate_stop_at_constant(self, circle_grid):
        # starting exactly at the maximizer: the certificate fires immediately
        con = ConstraintSpec(0.3, 2.0)
        obj = ObjectiveSpec("eigenvalue", 1, sense="maximize")
        result = run_optimizer(circle_grid, obj, con, Potential.constant(circle_grid, 0.3),
                               max_iters=60, cert_every=5)
        assert result.stop_reason in ("certificate", "stagnation")
        if result.stop_reason == "certificate":
            assert any(r.cert_residual is not None and r.cert_residual <= 1e-8
                       for r in result.log)

    def test_maximizer_endpoint_degeneracy(self, circle_grid):
        # a feasible-certificate stop for Maximize lambda_2 away from the box
        # carries a multiplicity >= 2 cluster (the maximizer is degenerate)
        con = ConstraintSpec(0.0, 2.0)
        obj = ObjectiveSpec("eigenvalue", 2, sense="maximize")
        result = run_optimizer(circle_grid, obj, con, Potential.zero(circle_grid),
                               max_iters=10, cert_every=1)
        assert result.stop_reason == "certificate"
        assert result.box_saturated_fraction < 0.01
        spec = solve_spectrum(circle_grid, result.potential, 8)
        from specpot.spectral import detect_cluster

        assert detect_cluster(spec, 2).multiplicity >= 2

    def test_infeasible_start_rejected(self, circle_grid):
        con = ConstraintSpec(0.0, 1.0)
        obj = ObjectiveSpec("eigenvalue", 1)
        with pytest.raises(ConfigError):
            run_optimizer(circle_grid, obj, con, Potential.constant(circle_grid, 3.0), None, 5)

    def test_log_csv_columns(self, tmp_path, monkeypatch):
        # the optimize command writes one iterates.csv row per log record
        log = [IterateRecord(1, 0.5, 0.1, 1), IterateRecord(2, 0.6, 0.05, 2, 3e-9)]
        result = OptimizeResult(Potential.zero(SMALL_CIRCLE), log, "max_iters", 1, 0.6, 0.0)
        monkeypatch.setattr(cli, "run_optimizer", lambda *args, **kwargs: result)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[domain]\nkind=circle\nlength=6.283185307179586\nnodes=32\nbc=closed\n"
                       "\n[potential]\npreset=zero\n"
                       "\n[task]\ntarget=eigenvalue\nindex=1\nsense=maximize\nmean=0.0\n"
                       "bound=1.0\n")
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "iterates.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,objective,step,mult_i,residual"
        assert lines[1] == "1,0.5,0.1,1,"
        assert lines[2] == "2,0.6,0.05,2,3e-09"


class TestOptimizerExits:
    """Each way a run can end early, reached from an input that takes it."""

    GRID = build_grid(Circle(), 64, BoundaryCondition.CLOSED)

    def run(self, schedule, max_iters):
        return run_optimizer(self.GRID, ObjectiveSpec("eigenvalue", 1), ConstraintSpec(0.0, 1.0),
                             Potential.fourier(self.GRID, (0.3,)), schedule, max_iters,
                             cert_every=0)

    @staticmethod
    def fail_on_call(monkeypatch, call):
        calls = []
        solve = optimize.spectrum_with_complete_cluster

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == call:
                raise SolverError("injected")
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimize, "spectrum_with_complete_cluster", failing)

    def test_first_solve_fails(self, monkeypatch):
        self.fail_on_call(monkeypatch, 1)
        result = self.run(Schedule("constant", s0=0.05), 20)
        assert (result.stop_reason, result.iterations, result.log) == ("solver_error", 0, [])
        assert np.isnan(result.objective)
        assert result.aborted

    def test_candidate_solve_fails(self, monkeypatch):
        # call 1 is the first solve, call 2 the candidate of iteration 1
        self.fail_on_call(monkeypatch, 3)
        result = self.run(Schedule("constant", s0=0.05), 20)
        assert (result.stop_reason, result.iterations, len(result.log)) == ("solver_error", 2, 2)
        assert result.aborted

    def test_window_stagnation(self):
        # steps of 1e-13 move lambda_1 by far less than STAGNATION_TOL, so the
        # first full window of 50 records after the first stops the run
        result = self.run(Schedule("constant", s0=1e-13), 100)
        assert (result.stop_reason, result.iterations, len(result.log)) == ("stagnation", 51, 51)

    def test_zero_step_stagnation(self, monkeypatch):
        monkeypatch.setattr(optimize, "_step_size", lambda *args: 0.0)
        result = self.run(Schedule("constant", s0=0.05), 20)
        assert (result.stop_reason, result.iterations, len(result.log)) == ("stagnation", 1, 1)

    def test_no_candidate_accepted(self, tmp_path):
        # lambda_2 of this circle run falls at every one of the 9 halvings of
        # the sqrt step at iteration 23; its direction and step are nonzero
        # and the window is not full, so the rejected line search stops it
        body = ("[domain]\nkind=circle\nlength=6.283185307179586\nnodes=128\nbc=closed\n"
                "\n[potential]\npreset=fourier\ncoeffs=0.4\n"
                "\n[task]\ntarget=eigenvalue\nindex=2\nsense=maximize\nmean=0.0\nbound=1.0\n"
                "cert_every=5\niters=60\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        payload = json.loads((tmp_path / "o" / "report.json").read_text())["payload"]
        assert (payload["stop_reason"], payload["iterations"]) == ("stagnation", 23)
        assert not payload["aborted"]


class TestNewtonMetric:
    """Polyak lambda_1 ascents on closed and Neumann grids step along L g,
    L = -Laplacian_h; every other run keeps the plain subgradient step."""

    def test_torus_ascent_reaches_target(self, torus_grid):
        # the plain step takes 49 iterations from this start
        x, y = torus_grid.coords.T
        raw = np.cos(x) + 0.5 * np.sin(y) + 0.3 * np.cos(x + y)
        q0 = Potential.from_values(torus_grid, 0.8 * 2.0 * raw / np.max(np.abs(raw)))
        result = run_optimizer(torus_grid, ObjectiveSpec("eigenvalue", 1), ConstraintSpec(0.0, 2.0),
                               q0, Schedule("polyak", target=0.0), max_iters=400, cert_every=0)
        assert result.stop_reason == "target"
        assert result.iterations <= 10

    def test_dirichlet_ascent_stays_plain(self, dirichlet_grid, monkeypatch):
        # L is no model of lambda_1 under Dirichlet (the box is active at the
        # optimum): a metric run crawls to max_iters at 1.4996. The plain run
        # reaches the target in 39 iterations and 41 shifted solves of 191
        # columns (right-hand sides) in all; 1 + 6 pairs per solve would take
        # 35 shifted solves of 274 columns.
        columns = []
        shifted = banded.shifted_solve

        def counted(shifted_diag, off, rhs, *args, **kwargs):
            columns.append(rhs.shape[0] * rhs.shape[2])
            return shifted(shifted_diag, off, rhs, *args, **kwargs)

        monkeypatch.setattr(banded, "shifted_solve", counted)
        result = run_optimizer(dirichlet_grid, ObjectiveSpec("eigenvalue", 1),
                               ConstraintSpec(0.0, 2.0), Potential.zero(dirichlet_grid),
                               Schedule("polyak", target=1.5), max_iters=400, cert_every=0)
        assert result.stop_reason == "target"
        assert result.iterations <= 39
        assert sum(columns) <= 200

    @pytest.mark.parametrize("objective, schedule, grid", [
        (ObjectiveSpec("gap", 2, 3, sense="minimize"), Schedule("polyak", target=0.0), SMALL_CIRCLE),
        (ObjectiveSpec("eigenvalue", 2), Schedule("polyak", target=1.0), SMALL_CIRCLE),
        (ObjectiveSpec("eigenvalue", 1, sense="minimize"), Schedule("polyak", target=-1.0),
         SMALL_CIRCLE),
        (ObjectiveSpec("eigenvalue", 1), Schedule("sqrt"), SMALL_CIRCLE),
        (ObjectiveSpec("eigenvalue", 1), Schedule("constant", s0=0.05), SMALL_CIRCLE),
        (ObjectiveSpec("eigenvalue", 1), Schedule("polyak", target=1.5),
         build_grid(Interval(np.pi), 32, BoundaryCondition.DIRICHLET)),
    ], ids=["gap", "lambda2", "minimize", "sqrt", "constant", "dirichlet"])
    def test_other_runs_never_build_the_metric(self, objective, schedule, grid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("metric built")

        monkeypatch.setattr(optimize, "assemble", refuse)
        raw = Potential.fourier(grid, (0.3, -0.2, 0.1), (0.2,)).values
        q0 = Potential.from_values(grid, raw - np.mean(raw))
        first, second = (run_optimizer(grid, objective, ConstraintSpec(0.0, 2.0), q0, schedule,
                                       max_iters=30, cert_every=0) for _ in range(2))
        assert first.stop_reason != "solver_error"
        assert [dataclasses.astuple(r) for r in first.log] == [
            dataclasses.astuple(r) for r in second.log]
        assert first.potential.values.tobytes() == second.potential.values.tobytes()

    def test_rejected_metric_step_falls_back_to_plain(self, monkeypatch):
        # A metric whose direction is nearly orthogonal to g gets a huge
        # clipped step along which the concave lambda_1 falls at every
        # halving. The run then takes the plain step at that iterate and
        # never asks the metric again, so its log is the one of a run whose
        # metric is never used (negative curvature).
        grid = SMALL_CIRCLE
        calls = []

        class Poor:
            def __matmul__(self, g):
                calls.append(1)
                mode = np.sin(3.0 * grid.coords)
                return mode - g * grid.inner(mode, g) / grid.inner(g, g) + 1e-8 * g

        class Negative:
            def __matmul__(self, g):
                return -g

        raw = Potential.fourier(grid, (0.4, -0.3), (0.2,)).values
        q0 = Potential.from_values(grid, 0.6 * raw / np.max(np.abs(raw)))
        results = []
        for metric in (Poor(), Negative()):
            monkeypatch.setattr(optimize, "assemble", lambda grid, q, metric=metric: metric)
            results.append(run_optimizer(grid, ObjectiveSpec("eigenvalue", 1),
                                         ConstraintSpec(0.0, 2.0), q0,
                                         Schedule("polyak", target=0.0), max_iters=400,
                                         cert_every=0))
        fallback, plain = results
        assert len(calls) == 1
        assert fallback.stop_reason == plain.stop_reason == "target"
        assert [dataclasses.astuple(r) for r in fallback.log] == [
            dataclasses.astuple(r) for r in plain.log]


class TestRefuteLocalMin:
    def test_circle_constant_witness(self, circle_grid):
        result = refute_local_min(circle_grid, Potential.zero(circle_grid), 2,
                                  probe_budget=50, seed=3)
        assert result.found
        assert result.derivative <= -1e-6

    def test_witness_descends(self, circle_grid):
        result = refute_local_min(circle_grid, Potential.zero(circle_grid), 2,
                                  probe_budget=50, seed=3)
        base = solve_spectrum(circle_grid, Potential.zero(circle_grid), 4).eigenvalue(2)
        q = Potential.from_values(circle_grid, 1e-3 * result.witness.values)
        assert solve_spectrum(circle_grid, q, 4).eigenvalue(2) < base

    def test_last_of_cluster_no_descent(self, circle_grid):
        # lambda_3 = lambda_2 at q = 0: a local minimum is allowed, so the
        # search must come back empty-handed
        result = refute_local_min(circle_grid, Potential.zero(circle_grid), 3,
                                  probe_budget=30, seed=3)
        assert not result.found
        assert result.witness is None

    def test_every_candidate_counted(self, circle_grid):
        # at q = 0 the certificate of the cluster {2, 3} is feasible, so the
        # search tries only the 3 probes, each on both sides, and finds no
        # descent for i = 3
        result = refute_local_min(circle_grid, Potential.zero(circle_grid), 3,
                                  probe_budget=3, seed=3)
        assert not result.found
        assert result.candidates_tried == 3

    @pytest.mark.parametrize("coeffs", [(0.0,), (0.5, -0.2, 0.3)])
    @pytest.mark.parametrize("bc, indices", [("dirichlet", range(1, 6)), ("neumann", (2, 3))])
    def test_negated_separating_direction_never_descends_backwards(
            self, dirichlet_grid, neumann_grid, coeffs, bc, indices):
        # every branch slope of M(u) is at least the margin along the
        # separating direction u, so along the refuter's first candidate -u
        # every left derivative is at most -margin: -(-u) never descends,
        # and the refuter needs no flag to skip that side
        grid = dirichlet_grid if bc == "dirichlet" else neumann_grid
        q = Potential.fourier(grid, coeffs)
        for i in indices:
            spec, cluster = spectrum_with_complete_cluster(grid, q, i)
            cert = criticality_certificate(spec, cluster)
            assert cert.status is CertificateStatus.INFEASIBLE
            minus_u = make_direction(grid, -cert.separating_direction.values, normalize=True)
            for index in range(cluster.first_index, cluster.last_index + 1):
                left = one_sided_derivatives(spec, index, minus_u).left
                assert left <= -cert.margin + 1e-12

    def test_random_neumann_witness(self, neumann_grid):
        q = Potential.fourier(neumann_grid, (0.5, -0.2, 0.3))
        result = refute_local_min(neumann_grid, q, 2, probe_budget=200, seed=4)
        assert result.found
        assert result.derivative <= -1e-6

    def test_confirmation_reuses_the_spectrum_at_q(self, neumann_grid, monkeypatch):
        # the first candidate (the separating direction of the infeasible
        # certificate) is confirmed: one solve at q, then one per line-search
        # point, and no second solve at q
        calls = []

        def counted(grid, q, i, start=None):
            calls.append(i)
            return spectrum_with_complete_cluster(grid, q, i, start)

        monkeypatch.setattr(optimize, "spectrum_with_complete_cluster", counted)
        q = Potential.fourier(neumann_grid, (0.5, -0.2, 0.3))
        result = refute_local_min(neumann_grid, q, 2, probe_budget=200, seed=4)
        assert result.found and result.candidates_tried == 1
        assert len(calls) == 1 + optimize.LINE_SEARCH_POINTS

    def test_line_search_starts_warm(self, neumann_grid, monkeypatch):
        # each line-search point lies 1e-3 along u from a potential just
        # solved, so its solve starts from that spectrum: the whole refutation
        # (a cold solve at q, then three warm points) pays 8 shifted solves,
        # where four cold solves pay 20
        calls = []
        shifted = banded.shifted_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return shifted(*args, **kwargs)

        monkeypatch.setattr(banded, "shifted_solve", counted)
        q = Potential.fourier(neumann_grid, (0.5, -0.2, 0.3))
        result = refute_local_min(neumann_grid, q, 2, probe_budget=200, seed=4)
        assert result.found
        assert len(calls) <= 10

    def test_index_guard(self, circle_grid):
        with pytest.raises(ValueError):
            refute_local_min(circle_grid, Potential.zero(circle_grid), 1)
