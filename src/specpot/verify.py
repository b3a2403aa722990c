"""One-shot verification suites reproducing each theorem's numerical signature.

Each suite returns a dict with a list of named checks (measured value and
tolerance included) and an overall pass flag; the CLI turns these into exit
codes and reports. All randomness is drawn from generators seeded by the
caller, so a suite is a pure function of (name, seed).
"""
from __future__ import annotations

import numpy as np

from .certificates import (
    CertificateStatus,
    criticality_certificate,
    full_criticality_report,
    gap_certificate,
)
from .domain import BoundaryCondition, Circle, Interval, Potential, build_grid
from .errors import ConfigError
from .optimize import (
    ConstraintSpec,
    ObjectiveSpec,
    Schedule,
    project_feasible,
    refute_local_min,
    run_optimizer,
)
from .perturbation import (
    gap_one_sided_derivatives,
    make_direction,
    mixed_probe_suite,
    one_sided_derivatives,
)
from .reports import verdict
from .spectral import (
    detect_cluster,
    solve_spectra,
    spectrum_with_complete_cluster,
)

N_1D = 256


def _circle(n: int = N_1D):
    return build_grid(Circle(2.0 * np.pi), n, BoundaryCondition.CLOSED)


def _interval(bc: BoundaryCondition, n: int = N_1D):
    return build_grid(Interval(np.pi), n, bc)


def _random_fourier(grid, rng, amplitude: float = 0.8) -> Potential:
    """Random smooth potential from the domain's natural low mode family.

    Interval domains use cosine modes only: sine modes have a corner in their
    even-periodic extension whose slowly decaying cosine tail makes gradient
    runs crawl without changing what the experiments verify."""
    cos_coeffs = amplitude * rng.standard_normal(3)
    sin_coeffs = (amplitude * rng.standard_normal(3)
                  if isinstance(grid.kind, Circle) else ())
    return Potential.fourier(grid, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs)


def suite_thm11(seed: int) -> dict:
    """Closed/Neumann: lambda_1(q) <= mean(q), equality only at constants, and
    ascent runs converge to the constant potential.

    Each domain's 50 random potentials and one constant are drawn first, in
    one stream, and solved together by ``solve_spectra`` (batched first
    solves, each checked by its own Sturm count)."""
    checks = []
    rng = np.random.default_rng([seed, 11])
    domains = [("circle", _circle()), ("neumann", _interval(BoundaryCondition.NEUMANN))]
    for label, grid in domains:
        worst_gap = -np.inf
        min_slack = np.inf
        potentials = [Potential.from_values(grid, rng.uniform(-3.0, 3.0, grid.n_nodes))
                      for _ in range(50)]
        c = float(rng.uniform(-1.0, 1.0))
        *lam1, lam_const = [spec.eigenvalue(1) for spec in solve_spectra(
            grid, potentials + [Potential.constant(grid, c)], 2)]
        for q, lam in zip(potentials, lam1):
            worst_gap = max(worst_gap, lam - q.mean)
            min_slack = min(min_slack, q.mean - lam)
        checks.append(verdict(f"{label}: max lambda1 - mean over 50 random q", worst_gap <= 1e-9,
                              worst_gap, 1e-9))
        checks.append(verdict(f"{label}: strict slack for nonconstant q", min_slack > 1e-9,
                              min_slack, 1e-9))
        checks.append(verdict(f"{label}: equality at constant potential", abs(lam_const - c) <= 1e-9,
                              abs(lam_const - c), 1e-9))

    constraint = ConstraintSpec(0.0, 2.0)
    objective = ObjectiveSpec("eigenvalue", 1, sense="maximize")
    worst_sup = 0.0
    worst_lam = np.inf
    for label, grid in domains:
        for _ in range(5):
            # Scale the start inside the box rather than clip a too-large
            # draw: the ascent's Newton metric models lambda_1 off the box faces.
            raw = _random_fourier(grid, rng, 1.0).values
            q0 = Potential.from_values(grid, 0.4 * constraint.bound_B * raw / np.max(np.abs(raw)))
            result = run_optimizer(grid, objective, constraint, q0,
                                   Schedule("polyak", target=0.0), max_iters=400,
                                   cert_every=0)
            worst_sup = max(worst_sup, float(np.max(np.abs(result.potential.values))))
            worst_lam = min(worst_lam, result.objective)
    checks.append(verdict("optimizer: worst ||q - c||_inf over 10 starts", worst_sup <= 1e-2,
                          worst_sup, 1e-2))
    checks.append(verdict("optimizer: worst lambda1 over 10 starts", worst_lam >= -1e-4,
                          worst_lam, 1e-4))
    return _suite_result("thm11", checks)


def suite_thm12(seed: int) -> dict:
    """Dirichlet: no critical potential for any of lambda_1..lambda_5; the
    certificate must produce a verified definite separating direction."""
    checks = []
    rng = np.random.default_rng([seed, 12])
    grid = _interval(BoundaryCondition.DIRICHLET)
    potentials = [("zero", Potential.zero(grid))]
    potentials += [(f"random{t}", _random_fourier(grid, rng)) for t in range(1, 4)]
    worst_margin = np.inf
    all_infeasible = True
    for label, q in potentials:
        spec, _ = spectrum_with_complete_cluster(grid, q, 5)   # one solve serves i = 1..5
        for i in range(1, 6):
            cert = criticality_certificate(spec, detect_cluster(spec, i))
            all_infeasible &= cert.status is CertificateStatus.INFEASIBLE
            if cert.margin is not None:
                worst_margin = min(worst_margin, cert.margin)
        f1 = spec.eigenvector(1)
        explicit = make_direction(grid, grid.volume * f1**2 - 1.0)
        derivative = one_sided_derivatives(spec, 1, explicit).right
        checks.append(verdict(f"explicit ascent direction positive at i=1 ({label})",
                              derivative > 1e-6, derivative, 1e-6))
    checks.append(verdict("all 20 certificates infeasible", all_infeasible, None, None))
    checks.append(verdict("worst definiteness margin", worst_margin >= 1e-8, worst_margin, 1e-8))
    return _suite_result("thm12", checks)


def suite_circle_critical(seed: int) -> dict:
    """Constant potentials on the circle are critical for the first cluster
    above the ground state (feasible certificate, unit frame, recovered
    potential); a simple second Neumann eigenvalue is not critical."""
    checks = []
    grid = _circle()
    q = Potential.constant(grid, 0.3)
    spec, _ = spectrum_with_complete_cluster(grid, q, 2)
    report = full_criticality_report(spec, 2, probes=200, seed=seed)
    checks.append(verdict("circle const: certificate feasible",
                          report.certificate.status is CertificateStatus.FEASIBLE, None, None))
    checks.append(verdict("circle const: multiplicity 2", report.multiplicity == 2,
                          report.multiplicity, 2))
    checks.append(verdict("circle const: certificate residual",
                          report.certificate.residual <= 1e-8, report.certificate.residual, 1e-8))
    checks.append(verdict("circle const: frame squares sum to 1",
                          (report.frame_residual or np.inf) <= 1e-8, report.frame_residual, 1e-8))
    checks.append(verdict("circle const: recovered potential deviation",
                          (report.recovered_deviation or np.inf) <= 1e-3,
                          report.recovered_deviation, 1e-3))
    checks.append(verdict("circle const: all 200 probes critical",
                          report.probes_critical == report.probes_total,
                          report.probes_critical, report.probes_total))
    checks.append(verdict("circle const: verdict critical", report.verdict == "critical", None, None))

    grid_n = _interval(BoundaryCondition.NEUMANN)
    spec_n, _ = spectrum_with_complete_cluster(grid_n, Potential.zero(grid_n), 2)
    report_n = full_criticality_report(spec_n, 2, probes=60, seed=seed + 1)
    f2 = spec_n.eigenvector(2)
    nonconstancy = float(np.max(f2**2) - np.min(f2**2))
    checks.append(verdict("neumann i=2: certificate infeasible",
                          report_n.certificate.status is CertificateStatus.INFEASIBLE, None, None))
    checks.append(verdict("neumann i=2: verdict not critical",
                          report_n.verdict == "not critical", None, None))
    checks.append(verdict("neumann i=2: eigenfunction square nonconstant (1x1 oracle)",
                          nonconstancy > 0.1, nonconstancy, 0.1))
    return _suite_result("circle-critical", checks)


def suite_no_local_min(seed: int) -> dict:
    """lambda_2 admits no local minimizers: a strict one-sided descent
    direction exists at every tested potential."""
    checks = []
    rng = np.random.default_rng([seed, 14])
    derivatives = []
    found_all = True
    count = 0
    for label, grid in (("circle", _circle()), ("neumann", _interval(BoundaryCondition.NEUMANN))):
        potentials = [Potential.constant(grid, float(rng.uniform(-0.5, 0.5)))]
        potentials += [_random_fourier(grid, rng) for _ in range(4)]
        for q in potentials:
            result = refute_local_min(grid, q, 2, probe_budget=200,
                                      seed=int(rng.integers(2**31)))
            count += 1
            found_all &= result.found
            if result.found:
                derivatives.append(result.derivative)
    worst = max(derivatives) if derivatives else 0.0
    checks.append(verdict(f"descent witness found at all {count} potentials", found_all, None, None))
    checks.append(verdict("worst witness one-sided derivative", worst <= -1e-6, worst, 1e-6))
    return _suite_result("no-local-min-λ2", checks)


def suite_gap_critical(seed: int) -> dict:
    """Gap criticality certificates on the circle at q = 0: (1,2) feasible
    with both cone elements constant; (2,4) decided stably across meshes."""
    checks = []
    # one solve per mesh; a count proves the cluster of 4, the top index read
    spectra = [spectrum_with_complete_cluster(g, Potential.zero(g), 4)[0]
               for g in (_circle(), _circle(2 * N_1D))]
    spec = spectra[0]
    cert12 = gap_certificate(spec, detect_cluster(spec, 1), detect_cluster(spec, 2))
    checks.append(verdict("gap(1,2): feasible",
                          cert12.status is CertificateStatus.FEASIBLE, None, None))
    checks.append(verdict("gap(1,2): residual", cert12.residual <= 1e-8, cert12.residual, 1e-8))
    if cert12.grams is not None:
        min_eig = min(float(np.linalg.eigvalsh(G)[0]) for G in cert12.grams)
        checks.append(verdict("gap(1,2): grams psd", min_eig >= -1e-10, min_eig, 1e-10))

    statuses = []
    residuals = []
    for s in spectra:
        cert = gap_certificate(s, detect_cluster(s, 2), detect_cluster(s, 4))
        statuses.append(cert.status)
        residuals.append(cert.residual)
    decided = all(s is not CertificateStatus.UNDECIDED for s in statuses)
    checks.append(verdict("gap(2,4): decided at both meshes", decided, None, None))
    checks.append(verdict("gap(2,4): mesh statuses agree", statuses[0] is statuses[1], None, None))
    checks.append(verdict("gap(2,4): worst residual", max(residuals) <= 1e-8, max(residuals), 1e-8))
    return _suite_result("gap-critical", checks)


def suite_gap_no_min(seed: int) -> dict:
    """Gap minimization: the consecutive gap (2,3) is driven to zero, and the
    ground gap (1,2) never stalls at an interior point admitting descent."""
    checks = []
    rng = np.random.default_rng([seed, 16])
    grid = _circle()
    constraint = ConstraintSpec(0.0, 2.0)

    q0 = project_feasible(grid, _random_fourier(grid, rng, 0.05), constraint)
    result = run_optimizer(grid, ObjectiveSpec("gap", 2, 3, sense="minimize"), constraint, q0,
                           Schedule("polyak", target=0.0), max_iters=200)
    checks.append(verdict("gap(2,3) minimization reaches zero gap", result.objective <= 1e-3,
                          result.objective, 1e-3))

    q0b = project_feasible(grid, _random_fourier(grid, rng, 0.8), constraint)
    result_b = run_optimizer(grid, ObjectiveSpec("gap", 1, 2, sense="minimize"), constraint, q0b,
                             max_iters=120)
    # the first record holds the gap at the start; a run whose first solve failed has none
    start_gap = result_b.log[0].objective if result_b.log else np.nan
    final_gap = result_b.objective
    stalled_interior = (result_b.stop_reason == "stagnation"
                        and final_gap > 1e-3
                        and result_b.box_saturated_fraction < 0.01)
    false_minimum = False
    if stalled_interior:
        false_minimum = _gap_descent_exists(grid, result_b.potential, 1, 2, seed)
    checks.append(verdict("gap(1,2): progress from start", final_gap < start_gap,
                          final_gap - start_gap, 0.0))
    checks.append(verdict("gap(1,2): no interior stall admitting descent", not false_minimum,
                          None, None))
    return _suite_result("gap-no-min", checks)


def _gap_descent_exists(grid, q: Potential, i: int, j: int, seed: int) -> bool:
    spec, _ = spectrum_with_complete_cluster(grid, q, j)
    for u in mixed_probe_suite(grid, 60, seed + 99):
        d = gap_one_sided_derivatives(spec, i, j, u)
        if d.right < -1e-6 or d.left > 1e-6:
            return True
    return False


def _suite_result(name: str, checks: list[dict]) -> dict:
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


SUITES = {
    "thm11": suite_thm11,
    "thm12": suite_thm12,
    "circle-critical": suite_circle_critical,
    "no-local-min-λ2": suite_no_local_min,
    "no-local-min-l2": suite_no_local_min,   # ascii alias
    "gap-critical": suite_gap_critical,
    "gap-no-min": suite_gap_no_min,
}

SUITE_ORDER = ["thm11", "thm12", "circle-critical", "no-local-min-λ2",
               "gap-critical", "gap-no-min"]


def run_suite(name: str, seed: int) -> dict:
    if name == "all":
        return run_all(seed)
    if name not in SUITES:
        known = ", ".join(SUITE_ORDER + ["all"])
        raise ConfigError(f"unknown suite {name!r}; known suites: {known}")
    return SUITES[name](seed)


def run_all(seed: int) -> dict:
    suites = [SUITES[name](seed) for name in SUITE_ORDER]
    return {
        "suite": "all",
        "passed": all(s["passed"] for s in suites),
        "suites": suites,
    }
