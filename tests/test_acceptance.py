"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 4..10 reuse a single `verify` run shared across tests;
criterion 11 performs the second run for the determinism comparison.
"""
import json

import numpy as np
import pytest

from specpot.domain import BoundaryCondition, Circle, Interval, Potential, build_grid
from specpot.perturbation import (
    cluster_matrix,
    one_sided_derivatives,
    sample_probes,
)
from specpot.spectral import detect_cluster, solve_spectrum
from specpot.verify import run_all

SEED = 20260808


@pytest.fixture(scope="module")
def verify_all_first():
    return run_all(SEED)


def _suite(result, name):
    return next(s for s in result["suites"] if s["suite"] == name)


def _announce(number, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:>2} [{status}] {title}{': ' + detail if detail else ''}")


def _assert_suite(number, title, suite):
    lines = []
    for c in suite["checks"]:
        mark = "ok" if c["passed"] else "FAILED"
        measured = "" if c["measured"] is None else f" measured={c['measured']:.3e}"
        lines.append(f"    [{mark}] {c['name']}{measured}")
    _announce(number, title, suite["passed"])
    for line in lines:
        print(line)
    assert suite["passed"], f"criterion {number}: {title}"


def test_criterion_1_discretization_oracle():
    worst_fd = 0.0
    worst_cont = 0.0
    n = 256
    specs = []
    for kind, bc, fd_modes, continuum in (
        (Circle(2 * np.pi), BoundaryCondition.CLOSED,
         [0, 1, 1, 2, 2, 3], [0.0, 1.0, 1.0, 4.0, 4.0, 9.0]),
        (Interval(np.pi), BoundaryCondition.DIRICHLET,
         [1, 2, 3, 4, 5, 6], [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]),
        (Interval(np.pi), BoundaryCondition.NEUMANN,
         [0, 1, 2, 3, 4, 5], [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]),
    ):
        grid = build_grid(kind, n, bc)
        h = grid.spacing[0]
        spec = solve_spectrum(grid, Potential.zero(grid), 6)
        if bc is BoundaryCondition.CLOSED:
            exact = 4 / h**2 * np.sin(np.pi * np.array(fd_modes) / n) ** 2
        else:
            exact = 4 / h**2 * np.sin(np.array(fd_modes) * np.pi / (2 * n)) ** 2
        fd_err = np.max(np.abs(spec.eigenvalues - exact) / (1 + np.abs(exact)))
        cont_err = np.max(np.abs(spec.eigenvalues - continuum) / (1 + np.abs(continuum)))
        worst_fd = max(worst_fd, fd_err)
        worst_cont = max(worst_cont, cont_err)
        specs.append((bc.value, fd_err, cont_err))
    ok = worst_fd <= 1e-9 and worst_cont <= 1e-3
    _announce(1, "discretization matches FD closed form and continuum", ok,
              f"fd_rel={worst_fd:.2e} (tol 1e-9), continuum_rel={worst_cont:.2e} (tol 1e-3)")
    assert worst_fd <= 1e-9
    assert worst_cont <= 1e-3


def test_criterion_2_first_variation_formula():
    rng = np.random.default_rng(SEED)
    circle = build_grid(Circle(2 * np.pi), 256, BoundaryCondition.CLOSED)
    dirichlet = build_grid(Interval(np.pi), 256, BoundaryCondition.DIRICHLET)
    worst = 0.0
    checked = 0
    draws = 0
    while checked < 20 and draws < 80:
        draws += 1
        if checked % 2 == 0:
            grid, i = circle, 1
            q = Potential.fourier(grid, rng.standard_normal(3), rng.standard_normal(3))
        else:
            grid, i = dirichlet, int(rng.integers(1, 5))
            q = Potential.fourier(grid, rng.standard_normal(3))
        (u,) = sample_probes(grid, 1, int(rng.integers(1e9)), "fourier")
        spec = solve_spectrum(grid, q, i + 2)   # as many pairs as a 1-D index-i solve
        formula = one_sided_derivatives(spec, i, u).right
        if abs(formula) < 0.05:
            continue  # conditioning guard: relative error needs a nonvanishing scale

        def quotient(t):
            plus = solve_spectrum(grid, Potential.from_values(grid, q.values + t * u.values), i + 2)
            minus = solve_spectrum(grid, Potential.from_values(grid, q.values - t * u.values), i + 2)
            return (plus.eigenvalue(i) - minus.eigenvalue(i)) / (2 * t)

        coarse = quotient(1e-4)
        richardson = (4 * quotient(5e-5) - coarse) / 3
        worst = max(worst, abs(formula - coarse) / abs(formula),
                    abs(formula - richardson) / abs(formula))
        checked += 1
    ok = checked == 20 and worst <= 1e-6
    _announce(2, "first-variation formula vs central FD with Richardson check", ok,
              f"pairs={checked}, worst_rel={worst:.2e} (tol 1e-6)")
    assert checked == 20
    assert worst <= 1e-6


def test_criterion_3_cluster_matrix_diagonalization():
    grid = build_grid(Circle(2 * np.pi), 256, BoundaryCondition.CLOSED)
    spec = solve_spectrum(grid, Potential.zero(grid), 8)
    cl = detect_cluster(spec, 2)
    worst_off = 0.0
    worst_ratio = 0.0
    base = spec.eigenvalue(2)
    for k in range(20):
        (u,) = sample_probes(grid, 1, SEED + k, "fourier")
        M = cluster_matrix(spec, cl, u)
        _, vecs = np.linalg.eigh(M)
        rotated = vecs.T @ M @ vecs
        worst_off = max(worst_off, abs(rotated[0, 1]))
        d = one_sided_derivatives(spec, 2, u)
        constants = {}
        for t in (1e-3, 5e-4):
            lam = solve_spectrum(grid, Potential.from_values(grid, t * u.values), 8).eigenvalue(2)
            constants[t] = abs(lam - base - t * d.right) / t**2
        if constants[1e-3] > 1e-6:
            ratio = constants[5e-4] / constants[1e-3]
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    ok = worst_off <= 1e-10 and worst_ratio <= 1.0
    _announce(3, "branch eigenbasis diagonalizes, prediction error is O(t^2)", ok,
              f"worst_offdiag={worst_off:.2e} (tol 1e-10), C-ratio dev={worst_ratio:.2f}")
    assert worst_off <= 1e-10
    assert worst_ratio <= 1.0


def test_criterion_4_constant_maximizes_lambda1(verify_all_first):
    _assert_suite(4, "lambda_1 bound and ascent to the constant potential",
                  _suite(verify_all_first, "thm11"))


def test_criterion_5_dirichlet_no_critical(verify_all_first):
    _assert_suite(5, "Dirichlet: infeasible certificates with verified separation",
                  _suite(verify_all_first, "thm12"))


def test_criterion_6_and_7_criticality_characterization(verify_all_first):
    _assert_suite(6, "constant potentials critical on the circle; simple "
                  "Neumann eigenvalue not critical (criteria 6 and 7)",
                  _suite(verify_all_first, "circle-critical"))


def test_criterion_8_no_local_minimizers(verify_all_first):
    _assert_suite(8, "strict descent direction found for lambda_2 everywhere",
                  _suite(verify_all_first, "no-local-min-λ2"))


def test_criterion_9_gap_certificates(verify_all_first):
    _assert_suite(9, "gap certificates on the circle with mesh stability",
                  _suite(verify_all_first, "gap-critical"))


def test_criterion_10_gap_minimization(verify_all_first):
    _assert_suite(10, "gap minimization reaches zero; no false interior stalls",
                  _suite(verify_all_first, "gap-no-min"))


def test_criterion_11_determinism(verify_all_first):
    second = run_all(SEED)
    first_text = json.dumps(verify_all_first, sort_keys=True)
    second_text = json.dumps(second, sort_keys=True)
    ok = first_text == second_text and verify_all_first["passed"]
    _announce(11, "verify all is deterministic for a fixed seed", ok,
              f"payload bytes equal: {first_text == second_text}")
    assert first_text == second_text
    assert verify_all_first["passed"]
