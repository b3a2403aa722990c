"""Closed-form certificate decisions against Dykstra's alternating projections.

The reference below is the iterative decision the closed form replaced: two-set
Dykstra iteration (Boyle & Dykstra 1986) between the psd cone and the affine
flat of least-squares solutions, with a stall detector, followed by the same
separating-direction verification. It is kept here only as a test oracle.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpot.certificates import (
    FEASIBILITY_TOL,
    CertificateStatus,
    _basis_rows,
    _separate,
    criticality_certificate,
    gap_certificate,
)
from specpot.domain import BoundaryCondition, Circle, Interval, Potential, build_grid
from specpot.perturbation import cluster_matrix
from specpot.spectral import detect_cluster, spectrum_with_complete_cluster

MAX_ITERATIONS = 50_000
STALL_WINDOW = 500
STALL_REL_IMPROVEMENT = 1e-6
PSD_TOL = -1e-10

GRIDS = {
    "circle": build_grid(Circle(2.0 * np.pi), 64, BoundaryCondition.CLOSED),
    "neumann": build_grid(Interval(np.pi), 64, BoundaryCondition.NEUMANN),
    "dirichlet": build_grid(Interval(np.pi), 64, BoundaryCondition.DIRICHLET),
}


def _psd_project(s, m):
    """Eigenvalue-clipping projection of one raveled Gram block onto the psd cone."""
    w, V = np.linalg.eigh(s.reshape(m, m))
    return ((V * np.clip(w, 0.0, None)) @ V.T).ravel()


class _Flat:
    """Orthogonal projector onto the least-squares solutions of A s = b."""

    def __init__(self, A, b):
        self.A = A
        self.N = A.T @ A
        self.rhs = A.T @ b
        w, V = np.linalg.eigh(self.N)
        cutoff = max(w[-1], 0.0) * 1e-13
        inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
        self.pinv = (V * inv) @ V.T

    def project(self, s):
        return s + self.pinv @ (self.rhs - self.N @ s)


def _dykstra(flat, psd_project, sup_residual):
    x = flat.project(np.zeros(flat.A.shape[1]))
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    best = best_at_checkpoint = np.inf
    for it in range(1, MAX_ITERATIONS + 1):
        y = psd_project(x + p)
        p = x + p - y
        xn = flat.project(y + q)
        q = y + q - xn
        x = xn
        res = sup_residual(y)
        if res <= FEASIBILITY_TOL:
            return True, y
        best = min(best, res)
        if it % STALL_WINDOW == 0:
            if best_at_checkpoint - best <= STALL_REL_IMPROVEMENT * best + 1e-14:
                return False, y
            best_at_checkpoint = best
    return False, y


def oracle_criticality(spec, cluster):
    """(status, gram, direction values, margin) by Dykstra's iteration."""
    m = cluster.multiplicity
    A = _basis_rows(spec.basis(cluster))
    b = np.ones(A.shape[0])
    flat = _Flat(A, b)
    feasible, y = _dykstra(flat, lambda s: _psd_project(s, m),
                           lambda s: float(np.max(np.abs(b - A @ s))))
    G = y.reshape(m, m)
    if feasible and np.linalg.eigvalsh(G)[0] >= PSD_TOL:
        return CertificateStatus.FEASIBLE, G, None, None
    status, u, _ = _separate(spec, b - A @ y, cluster)
    if status is CertificateStatus.UNDECIDED:
        return CertificateStatus.UNDECIDED, None, None, None
    margin = float(np.min(np.abs(np.linalg.eigvalsh(cluster_matrix(spec, cluster, u)))))
    return CertificateStatus.INFEASIBLE, None, u.values, margin


def oracle_gap(spec, ci, cj):
    """(status, (gram_i, gram_j), direction values, margin) by Dykstra's iteration."""
    mi, mj = ci.multiplicity, cj.multiplicity
    di = mi * mi
    Ai, Aj = _basis_rows(spec.basis(ci)), _basis_rows(spec.basis(cj))
    n = Ai.shape[0]
    A = np.zeros((n + 1, di + Aj.shape[1]))
    A[:n, :di] = Ai
    A[:n, di:] = -Aj
    A[n, :di] = np.eye(mi).ravel()
    b = np.zeros(n + 1)
    b[n] = 1.0
    flat = _Flat(A, b)
    feasible, y = _dykstra(
        flat,
        lambda s: np.concatenate([_psd_project(s[:di], mi), _psd_project(s[di:], mj)]),
        lambda s: float(np.max(np.abs((b - A @ s)[:n]))),
    )
    Gi, Gj = y[:di].reshape(mi, mi), y[di:].reshape(mj, mj)
    if (feasible and min(np.linalg.eigvalsh(Gi)[0], np.linalg.eigvalsh(Gj)[0]) >= PSD_TOL
            and np.trace(Gi) > 1e-8 and np.trace(Gj) > 1e-8):
        return CertificateStatus.FEASIBLE, (Gi, Gj), None, None
    status, u, _ = _separate(spec, A[:n] @ y, cj, ci)
    if status is CertificateStatus.UNDECIDED:
        return CertificateStatus.UNDECIDED, None, None, None
    mu = np.linalg.eigvalsh(cluster_matrix(spec, ci, u))
    nu = np.linalg.eigvalsh(cluster_matrix(spec, cj, u))
    margin = float(min(abs(nu[0] - mu[-1]), abs(nu[-1] - mu[0])))
    return CertificateStatus.INFEASIBLE, None, u.values, margin


coefficients = st.lists(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                        min_size=0, max_size=3)


def _potential(grid, cos_coeffs, sin_coeffs):
    if not cos_coeffs and not sin_coeffs:
        return Potential.zero(grid)
    return Potential.fourier(grid, cos_coeffs, sin_coeffs)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GRIDS)), coefficients, coefficients, st.integers(1, 5))
@example("circle", [], [], 2)    # cos^2 + sin^2 = 1 on a multiplicity-2 cluster
@example("neumann", [], [], 1)   # constant eigenfunction
def test_criticality_matches_dykstra(name, cos_coeffs, sin_coeffs, i):
    grid = GRIDS[name]
    spec, cluster = spectrum_with_complete_cluster(grid, _potential(grid, cos_coeffs, sin_coeffs), i)
    cert = criticality_certificate(spec, cluster)
    status, gram, direction, margin = oracle_criticality(spec, cluster)
    assert cert.status is status
    if status is CertificateStatus.FEASIBLE:
        (found,) = cert.grams
        assert np.max(np.abs(found - gram)) <= 1e-12
    elif status is CertificateStatus.INFEASIBLE:
        assert np.max(np.abs(cert.separating_direction.values - direction)) <= 1e-10
        assert abs(cert.margin - margin) <= 1e-10
        A = _basis_rows(spec.basis(cluster))
        r = 1.0 - A @ _Flat(A, np.ones(A.shape[0])).project(np.zeros(A.shape[1]))
        if np.max(np.abs(r)) > FEASIBILITY_TOL:
            # the centered residual restricts to a multiple of the identity
            slopes = np.linalg.eigvalsh(cluster_matrix(spec, cluster, cert.separating_direction))
            assert slopes[-1] - slopes[0] <= 1e-10 * abs(slopes[0])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GRIDS)), coefficients, coefficients, st.integers(1, 5))
@example("circle", [], [], 3)    # two multiplicity-2 clusters at q = 0
def test_gap_matches_dykstra(name, cos_coeffs, sin_coeffs, i):
    grid = GRIDS[name]
    spec, cj = spectrum_with_complete_cluster(grid, _potential(grid, cos_coeffs, sin_coeffs), i + 1)
    ci = detect_cluster(spec, i)
    cert = gap_certificate(spec, ci, cj)
    if cert.degenerate:
        return
    status, grams, direction, margin = oracle_gap(spec, ci, cj)
    assert cert.status is status
    if status is CertificateStatus.FEASIBLE:
        assert len(cert.grams) == 2
        for found, gram in zip(cert.grams, grams):
            assert np.max(np.abs(found - gram)) <= 1e-12
    elif status is CertificateStatus.INFEASIBLE:
        assert np.max(np.abs(cert.separating_direction.values - direction)) <= 1e-10
        assert abs(cert.margin - margin) <= 1e-10
