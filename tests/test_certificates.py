import numpy as np
import pytest

from specpot import certificates
from specpot.certificates import (
    DEFINITENESS_MARGIN,
    FEASIBILITY_TOL,
    Certificate,
    CertificateStatus,
    _separate,
    criticality_certificate,
    extract_frame,
    full_criticality_report,
    gap_certificate,
)
from specpot.domain import BoundaryCondition, Circle, Potential, Torus2D, build_grid
from specpot.errors import IncompleteClusterError
from specpot.optimize import ObjectiveSpec, subgradient_direction
from specpot.perturbation import (
    gap_one_sided_derivatives,
    mixed_probe_suite,
    one_sided_derivatives,
)
from specpot.spectral import Cluster, SpectralData, detect_cluster, solve_spectrum


@pytest.fixture
def decisions(monkeypatch):
    """Gram block sizes of each closed-form decision the test makes."""
    calls = []
    decide = certificates._decide
    monkeypatch.setattr(certificates, "_decide",
                        lambda A, b, sizes, nodes: calls.append(sizes) or decide(A, b, sizes, nodes))
    return calls


class TestCriticalityCertificate:
    def test_circle_cluster_feasible_pi_identity(self, circle_zero_spec):
        # unique solution G = pi * I from cos^2 + sin^2 = 1
        cl = detect_cluster(circle_zero_spec, 2)
        cert = criticality_certificate(circle_zero_spec, cl)
        assert cert.status is CertificateStatus.FEASIBLE
        assert cert.residual <= 1e-8
        (gram,) = cert.grams
        assert np.max(np.abs(gram - np.pi * np.eye(2))) <= 1e-6
        assert cert.separating_direction is None

    def test_constant_eigenfunction_feasible(self, neumann_zero_spec, neumann_grid):
        cl = detect_cluster(neumann_zero_spec, 1)
        cert = criticality_certificate(neumann_zero_spec, cl)
        assert cert.status is CertificateStatus.FEASIBLE
        (gram,) = cert.grams
        assert gram.shape == (1, 1)
        assert gram[0, 0] == pytest.approx(neumann_grid.volume, abs=1e-6)

    def test_dirichlet_ground_state_infeasible(self, dirichlet_zero_spec, dirichlet_grid):
        cl = detect_cluster(dirichlet_zero_spec, 1)
        cert = criticality_certificate(dirichlet_zero_spec, cl)
        assert cert.status is CertificateStatus.INFEASIBLE
        assert cert.margin >= 1e-8
        u = cert.separating_direction
        f1 = dirichlet_zero_spec.eigenvector(1)
        # positive-definite orientation: strictly positive derivative
        assert dirichlet_grid.inner(u.values * f1, f1) > 1e-8

    def test_neumann_second_infeasible(self, neumann_zero_spec):
        cl = detect_cluster(neumann_zero_spec, 2)
        cert = criticality_certificate(neumann_zero_spec, cl)
        assert cert.status is CertificateStatus.INFEASIBLE
        assert cert.margin >= 1e-8

    def test_duality_exclusivity(self, circle_zero_spec, dirichlet_zero_spec, neumann_zero_spec):
        instances = [
            (circle_zero_spec, 2),
            (neumann_zero_spec, 1),
            (neumann_zero_spec, 2),
            (dirichlet_zero_spec, 1),
            (dirichlet_zero_spec, 3),
        ]
        for spec, i in instances:
            cl = detect_cluster(spec, i)
            cert = criticality_certificate(spec, cl)
            if cert.status is CertificateStatus.FEASIBLE:
                frame = extract_frame(cert, spec, cl)
                total = np.sum([f**2 for f in frame], axis=0)
                assert np.max(np.abs(total - 1.0)) <= 1e-8
                assert cert.separating_direction is None
            elif cert.status is CertificateStatus.INFEASIBLE:
                assert cert.grams is None
                assert cert.separating_direction is not None

    def test_torus_constant_critical(self, torus_grid):
        # homogeneous domain: the multiplicity-4 cluster above the ground
        # state admits a unit frame (the feasible set is a segment of Grams,
        # so only structure is asserted, not a unique matrix)
        spec = solve_spectrum(torus_grid, Potential.constant(torus_grid, 0.1), 8)
        cl = detect_cluster(spec, 2)
        assert cl.multiplicity == 4
        cert = criticality_certificate(spec, cl)
        assert cert.status is CertificateStatus.FEASIBLE
        assert cert.residual <= 1e-8
        frame = extract_frame(cert, spec, cl)
        total = np.sum([f**2 for f in frame], axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-8

    def test_monotone_escape(self, dirichlet_grid, dirichlet_zero_spec):
        # positive definite direction: lambda_1(q + t u) strictly increases
        cl = detect_cluster(dirichlet_zero_spec, 1)
        cert = criticality_certificate(dirichlet_zero_spec, cl)
        u = cert.separating_direction
        values = [dirichlet_zero_spec.eigenvalue(1)]
        for t in (1e-3, 2e-3, 3e-3):
            q = Potential.from_values(dirichlet_grid, t * u.values)
            values.append(solve_spectrum(dirichlet_grid, q, 3).eigenvalue(1))
        diffs = np.diff(values)
        assert np.all(diffs > 0)


class TestExtractFrame:
    def test_requires_feasible(self, dirichlet_zero_spec):
        cl = detect_cluster(dirichlet_zero_spec, 1)
        cert = criticality_certificate(dirichlet_zero_spec, cl)
        with pytest.raises(ValueError):
            extract_frame(cert, dirichlet_zero_spec, cl)

    def test_rank_one_gram(self, circle_zero_spec):
        # synthetic rank-1 feasibility output: single combined function
        cl = detect_cluster(circle_zero_spec, 2)
        w = np.array([0.6, 0.8])
        cert = Certificate(CertificateStatus.FEASIBLE, (np.outer(w, w),), 0.0)
        frame = extract_frame(cert, circle_zero_spec, cl)
        assert len(frame) == 1
        F = circle_zero_spec.basis(cl)
        assert np.max(np.abs(np.abs(frame[0]) - np.abs(F @ w))) <= 1e-12

    def test_unit_partition(self, circle_zero_spec):
        cl = detect_cluster(circle_zero_spec, 2)
        cert = criticality_certificate(circle_zero_spec, cl)
        frame = extract_frame(cert, circle_zero_spec, cl)
        total = np.sum([f**2 for f in frame], axis=0)
        assert np.max(np.abs(total - 1.0)) <= cert.residual + 1e-10


class TestSeparatingDirection:
    def test_constant_eigenfunction_fails_verification(self, neumann_zero_spec, neumann_grid):
        # 1x1 feasible case (constant eigenfunction): no separation can exist,
        # any candidate residual must fail the definiteness check
        cl = detect_cluster(neumann_zero_spec, 1)
        rng = np.random.default_rng(3)
        assert _separate(neumann_zero_spec, rng.standard_normal(neumann_grid.n_nodes),
                         cl) == (CertificateStatus.UNDECIDED, None, None)

    def test_constant_residual_fails(self, dirichlet_zero_spec, dirichlet_grid):
        cl = detect_cluster(dirichlet_zero_spec, 1)
        assert _separate(dirichlet_zero_spec, np.full(dirichlet_grid.n_nodes, 0.4),
                         cl) == (CertificateStatus.UNDECIDED, None, None)


class TestGapCertificate:
    def test_circle_first_gap_feasible(self, circle_zero_spec):
        ci = detect_cluster(circle_zero_spec, 1)
        cj = detect_cluster(circle_zero_spec, 2)
        cert = gap_certificate(circle_zero_spec, ci, cj)
        assert cert.status is CertificateStatus.FEASIBLE
        assert cert.residual <= 1e-8
        assert not cert.degenerate
        gram_i, gram_j = cert.grams
        assert np.linalg.eigvalsh(gram_i)[0] >= -1e-10
        assert np.linalg.eigvalsh(gram_j)[0] >= -1e-10
        assert np.trace(gram_i) == pytest.approx(1.0, abs=1e-8)
        assert np.trace(gram_j) > 1e-8

    def test_pointwise_match_and_scale_invariance(self, circle_zero_spec):
        ci = detect_cluster(circle_zero_spec, 1)
        cj = detect_cluster(circle_zero_spec, 2)
        cert = gap_certificate(circle_zero_spec, ci, cj)
        Fi = circle_zero_spec.basis(ci)
        Fj = circle_zero_spec.basis(cj)
        gram_i, gram_j = cert.grams
        side_i = np.einsum("na,ab,nb->n", Fi, gram_i, Fi)
        side_j = np.einsum("na,ab,nb->n", Fj, gram_j, Fj)
        assert np.max(np.abs(side_i - side_j)) <= 1e-8
        for s in (0.5, 2.0):
            assert np.max(np.abs(s * side_i - s * side_j)) <= s * 1e-8
            assert np.linalg.eigvalsh(s * gram_i)[0] >= -1e-10

    def test_degenerate_shortcut(self, circle_zero_spec, decisions):
        ci = detect_cluster(circle_zero_spec, 2)
        cj = detect_cluster(circle_zero_spec, 3)
        cert = gap_certificate(circle_zero_spec, ci, cj)
        assert cert.status is CertificateStatus.FEASIBLE
        assert cert.degenerate
        assert decisions == []
        assert np.trace(cert.grams[0]) == pytest.approx(1.0)

    def test_mesh_stability_gap_2_4(self):
        statuses = []
        for n in (128, 256):
            g = build_grid(Circle(2 * np.pi), n, BoundaryCondition.CLOSED)
            spec = solve_spectrum(g, Potential.zero(g), 10)
            cert = gap_certificate(spec, detect_cluster(spec, 2), detect_cluster(spec, 4))
            statuses.append(cert.status)
        assert statuses[0] is statuses[1]
        assert statuses[0] is not CertificateStatus.UNDECIDED

    def test_dirichlet_first_gap_decided_stably(self):
        from specpot.domain import Interval

        statuses = []
        for n in (128, 256):
            g = build_grid(Interval(np.pi), n, BoundaryCondition.DIRICHLET)
            spec = solve_spectrum(g, Potential.zero(g), 8)
            cert = gap_certificate(spec, detect_cluster(spec, 1), detect_cluster(spec, 2))
            statuses.append(cert.status)
            assert cert.status is not CertificateStatus.UNDECIDED
            if cert.status is CertificateStatus.INFEASIBLE:
                assert cert.margin >= 1e-8
        assert statuses[0] is statuses[1]


def _sign_indefinite_spec():
    """Hand-made 64-node circle data whose pair (sqrt(1 + h^2), h) has
    1 = f_1^2 - f_2^2: the node equations have the unique, indefinite Gram
    diag(1, -1), so the least-squares residual vanishes and only the dual
    candidate can separate."""
    grid = build_grid(Circle(2 * np.pi), 64, BoundaryCondition.CLOSED)
    h = 0.8 * np.cos(grid.coords) + 0.3 * np.sin(2 * grid.coords)
    F = np.column_stack([np.ones(64), np.sqrt(1 + h**2), h])
    spec = SpectralData(np.array([0.0, 1.0, 1.0]), F, grid, None)
    return spec, Cluster(1, 1, 0.0, 1e-6, True), Cluster(2, 2, 1.0, 1e-6, True)


class TestDualCandidate:
    # margin the Dykstra iteration reached after 1000 iterations on both instances
    DYKSTRA_MARGIN = 1.26141500508

    def test_criticality_infeasible_in_one_solve(self, decisions):
        spec, _, pair = _sign_indefinite_spec()
        cert = criticality_certificate(spec, pair)
        assert cert.status is CertificateStatus.INFEASIBLE
        assert cert.margin == pytest.approx(self.DYKSTRA_MARGIN, abs=1e-9)
        assert decisions == [(2,)]

    def test_gap_infeasible_in_one_solve(self, decisions):
        spec, constant, pair = _sign_indefinite_spec()
        cert = gap_certificate(spec, constant, pair)
        assert cert.status is CertificateStatus.INFEASIBLE
        assert cert.margin == pytest.approx(self.DYKSTRA_MARGIN, abs=1e-9)
        assert decisions == [(1, 2)]


def _near_constant_spec(eps):
    """Hand-made 64-node circle data: the constant 1 at lambda = 0 and the
    simple f = sqrt((1 + eps cos x) / V) at lambda = 1. The node equations
    miss by ~eps, and the separating direction ~cos x has margin ~eps / 2
    on both certificates."""
    grid = build_grid(Circle(2 * np.pi), 64, BoundaryCondition.CLOSED)
    f = np.sqrt((1 + eps * np.cos(grid.coords)) / grid.volume)
    spec = SpectralData(np.array([0.0, 1.0]), np.column_stack([np.ones(64), f]), grid, None)
    return spec, Cluster(1, 1, 0.0, 1e-6, True), Cluster(2, 1, 1.0, 1e-6, True)


class TestUndecided:
    # at eps = 1.5e-8 the residual exceeds FEASIBILITY_TOL while the margin
    # stays below DEFINITENESS_MARGIN; doubling eps separates
    @pytest.mark.parametrize("certificate", ["criticality", "gap"])
    def test_residual_without_margin_is_undecided(self, certificate, decisions):
        for eps, status in ((1.5e-8, CertificateStatus.UNDECIDED),
                            (3e-8, CertificateStatus.INFEASIBLE)):
            spec, constant, f = _near_constant_spec(eps)
            decisions.clear()
            if certificate == "criticality":
                cert = criticality_certificate(spec, f)
            else:
                cert = gap_certificate(spec, constant, f)
            assert cert.grams is None
            assert cert.status is status
            assert cert.residual == pytest.approx(eps, rel=1e-6)
            assert cert.residual > FEASIBILITY_TOL
            assert len(decisions) == 1
            if status is CertificateStatus.UNDECIDED:
                assert cert.separating_direction is None
                assert cert.margin is None
            else:
                assert cert.margin == pytest.approx(eps / 2, rel=1e-6)
                assert cert.margin >= DEFINITENESS_MARGIN


class TestFullReport:
    def test_circle_constant_critical(self, circle_grid):
        q = Potential.constant(circle_grid, 0.25)
        spec = solve_spectrum(circle_grid, q, 8)
        report = full_criticality_report(spec, 2, probes=40, seed=5)
        assert report.verdict == "critical"
        assert report.multiplicity == 2
        assert report.position == "first"
        assert report.sufficiency_applicable
        assert report.probes_critical == report.probes_total == 40
        assert report.frame_residual <= 1e-8
        assert report.recovered_deviation <= 1e-3

    def test_dirichlet_not_critical(self, dirichlet_zero_spec):
        report = full_criticality_report(dirichlet_zero_spec, 1, probes=20, seed=5)
        assert report.verdict == "not critical"
        assert report.certificate.separating_direction is not None
        assert report.recovered_deviation is None

    def test_neumann_second_not_critical(self, neumann_zero_spec):
        report = full_criticality_report(neumann_zero_spec, 2, probes=20, seed=5)
        assert report.verdict == "not critical"
        assert report.position == "simple"

    def test_report_dict_roundtrip(self, neumann_zero_spec):
        import json

        report = full_criticality_report(neumann_zero_spec, 2, probes=10, seed=5)
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_torus_interior_and_last_positions(self):
        # q = 0.2 on a 16 x 16 torus: lambda_2..lambda_5 are one 4-fold
        # cluster, so i = 3 sits inside it and i = 5 at its top
        grid = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 16, BoundaryCondition.CLOSED)
        spec = solve_spectrum(grid, Potential.constant(grid, 0.2), 8)
        interior = full_criticality_report(spec, 3, probes=20, seed=3)
        assert interior.multiplicity == 4
        assert interior.position == "interior"
        assert not interior.sufficiency_applicable
        assert interior.certificate.status is CertificateStatus.FEASIBLE
        assert interior.verdict == "feasible (necessary condition only)"
        last = full_criticality_report(spec, 5, probes=20, seed=3)
        assert last.position == "last"
        assert last.sufficiency_applicable
        assert last.verdict == "critical"
        assert last.probes_critical == last.probes_total == 20
        assert last.frame_residual <= 1e-8

    def test_frame_implies_probe_criticality(self, circle_grid):
        # a feasible certificate forces every probe to be sign-indefinite
        q = Potential.constant(circle_grid, -0.7)
        spec = solve_spectrum(circle_grid, q, 8)
        cl = detect_cluster(spec, 2)
        cert = criticality_certificate(spec, cl)
        assert cert.status is CertificateStatus.FEASIBLE
        for u in mixed_probe_suite(circle_grid, 30, 9):
            assert one_sided_derivatives(spec, 2, u).opposite_signs


def test_unproven_cluster_refused(circle_grid):
    # 3 pairs end in the double eigenvalue 1, so no count covers its cluster:
    # every operation on that eigenspace refuses it
    spec = solve_spectrum(circle_grid, Potential.zero(circle_grid), 3)
    cluster = detect_cluster(spec, 3)
    assert not cluster.complete
    (u,) = mixed_probe_suite(circle_grid, 1, 0)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        criticality_certificate(spec, cluster)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        gap_certificate(spec, detect_cluster(spec, 1), cluster)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        full_criticality_report(spec, 2, probes=5)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        one_sided_derivatives(spec, 2, u)
    # 2 pairs end in one copy of the double eigenvalue 1: lambda_2 looks
    # simple, but its derivative needs the whole eigenspace
    spec = solve_spectrum(circle_grid, Potential.zero(circle_grid), 2)
    assert detect_cluster(spec, 2).multiplicity == 1
    assert not detect_cluster(spec, 2).complete
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        one_sided_derivatives(spec, 2, u)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        gap_one_sided_derivatives(spec, 1, 2, u)
    with pytest.raises(IncompleteClusterError, match="not proven complete"):
        subgradient_direction(spec, ObjectiveSpec("eigenvalue", 2), detect_cluster(spec, 2), None)


def test_grams_exactly_symmetric(torus_grid, circle_zero_spec):
    # the 4-fold cluster above the ground state on the constant torus and the
    # (1,2) gap on the circle at q = 0: every Gram, and its row-major list,
    # equals its transpose bit for bit
    torus_spec = solve_spectrum(torus_grid, Potential.constant(torus_grid, 0.1), 8)
    torus = criticality_certificate(torus_spec, detect_cluster(torus_spec, 2))
    gap = gap_certificate(circle_zero_spec, detect_cluster(circle_zero_spec, 1),
                          detect_cluster(circle_zero_spec, 2))
    for cert, sizes in ((torus, [4]), (gap, [1, 2])):
        assert cert.status is CertificateStatus.FEASIBLE
        assert [G.shape[0] for G in cert.grams] == sizes
        for G, row in zip(cert.grams, cert.to_dict()["grams_row_major"]):
            assert np.array_equal(G, G.T)
            listed = np.reshape(row, G.shape)
            assert np.array_equal(listed, listed.T)
