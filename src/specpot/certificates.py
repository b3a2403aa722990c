"""Criticality certificates via positive-semidefinite feasibility.

A potential is critical for lambda_i exactly when the constant function 1 is
a sum of squares of eigenfunctions from the i-th eigenspace. Over a fixed
orthonormal basis f_1..f_m that cone is { sum_ab G_ab f_a f_b : G psd }, so
criticality becomes a feasibility problem, linear in the Gram matrix G:

    find G >= 0  with  sum_ab G_ab f_a(x) f_b(x) = 1 at every node x.

The gap analogue asks for two psd Grams with matching pointwise sums, plus a
trace normalization that rules out the zero pair. Both are one problem, with
one Gram block or two, decided in closed form by ``_certify`` into one
``Certificate``. The unknown stacks each block's G.ravel(); as each node row
f f^T is symmetric, antisymmetric directions are null directions of A, and
<vec S, vec T> = tr(ST) on symmetric blocks. Each Gram block of the min-norm
least-squares point s* is factored once, for its psd projection (eigenvalue
clipping) and its bottom eigenpair. The projection is the witness when it
meets the node equations. Otherwise a candidate direction is built: the
residual r = b - A s* when it is nonzero (its restricted form is a negative
multiple of the identity once centered), else, when s* is not psd, the node
values A pinv vec(v v^T) of its bottom eigenvector v. The candidate is kept
only if its margin, the lowest branch slope of the upper cluster minus the
highest of the lower one (none for criticality, so the margin is the lowest
slope), is verifiably positive; failing that the instance is Undecided.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .domain import Potential
from .perturbation import (
    ProbeDirection,
    cluster_matrix,
    make_direction,
    mixed_probe_suite,
    one_sided_derivatives,
)
from .spectral import (
    Cluster,
    SpectralData,
    detect_cluster,
    recover_potential,
)

FEASIBILITY_TOL = 1e-8
DEFINITENESS_MARGIN = 1e-8


class CertificateStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNDECIDED = "undecided"


@dataclass(frozen=True, eq=False)
class Certificate:
    """One cone-feasibility decision. A feasible one holds its psd Gram
    witness per eigenspace, ``grams``: (G,) for criticality, (G_i, G_j) for
    a gap. An infeasible one holds a separating direction and its margin."""

    status: CertificateStatus
    grams: tuple[np.ndarray, ...] | None
    residual: float
    separating_direction: ProbeDirection | None = None
    margin: float | None = None
    degenerate: bool = False         # equal eigenvalues: a gap decided without a solve

    @property
    def iterations(self) -> int:  # least-squares solves; read by perfbench's tracer only
        return 0 if self.degenerate else 1

    def to_dict(self, direction_csv: str | None = None) -> dict:
        """The certificate.json and gap_certificate.json payload."""
        grams = None if self.grams is None else [G.ravel().tolist() for G in self.grams]
        return {
            "status": self.status.value,
            "grams_row_major": grams,
            "residual": float(self.residual),
            "margin": None if self.margin is None else float(self.margin),
            "degenerate": self.degenerate,
            "separating_direction_csv": direction_csv,
        }


def _basis_rows(F: np.ndarray) -> np.ndarray:
    """Matrix A with A @ G.ravel() = sum_ab G_ab f_a(x) f_b(x) per node row."""
    n, m = F.shape
    return (F[:, :, None] * F[:, None, :]).reshape(n, m * m)


def _blocks(sizes: tuple[int, ...]):
    """(slice, m) of each m x m block of a stacked vector of raveled Grams."""
    start = 0
    for m in sizes:
        yield slice(start, start + m * m), m
        start += m * m


def _decide(A: np.ndarray, b: np.ndarray, sizes: tuple[int, ...],
            nodes: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Closed-form decision data for: find s with A s = b and every Gram
    block of s psd. Each block of the min-norm least-squares point s* is
    factored once, for its psd projection and its bottom eigenpair. Returns
    the block-wise projection y (the witness when it meets the equations),
    its residual over the first ``nodes`` rows, and a separating candidate
    on those rows: the residual r = b - A s* when it is nonzero, else
    A pinv vec(v v^T) for the bottom eigenvector v of the block of s*
    holding the most negative eigenvalue."""
    w, V = np.linalg.eigh(A.T @ A)
    cutoff = max(w[-1], 0.0) * 1e-13  # eigenvalues of A^T A at or below count as null
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    pinv = (V * inv) @ V.T
    s = pinv @ (A.T @ b)
    y = np.empty_like(s)
    e = np.zeros_like(s)
    lowest = np.inf
    for sl, m in _blocks(sizes):
        vals, vecs = np.linalg.eigh(s[sl].reshape(m, m))
        P = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        y[sl] = ((P + P.T) / 2).ravel()   # symmetric bit for bit, unlike P
        if vals[0] < lowest:
            lowest = vals[0]
            e[:] = 0.0
            e[sl] = np.outer(vecs[:, 0], vecs[:, 0]).ravel()
    # the residual counts the node rows only; a trace row only normalizes
    res = float(np.max(np.abs((b - A @ y)[:nodes])))
    r = b - A @ s
    candidate = r if float(np.max(np.abs(r))) > FEASIBILITY_TOL else A @ (pinv @ e)
    return y, res, candidate[:nodes]


def _separate(spec: SpectralData, candidate: np.ndarray, upper: Cluster,
              lower: Cluster | None = None
              ) -> tuple[CertificateStatus, ProbeDirection | None, float | None]:
    """Verify a separating candidate: u, the candidate made mean-zero with
    sup-norm 1, or else -u, is a separating direction when its margin, the
    lowest branch slope of ``upper`` minus the highest of ``lower`` (0.0
    without a lower cluster), is at least DEFINITENESS_MARGIN. Returns
    (INFEASIBLE, direction, margin), or (UNDECIDED, None, None) if neither
    sign qualifies or the candidate has no mean-zero part."""
    try:
        u = make_direction(spec.grid, candidate, normalize=True)
    except ValueError:
        return CertificateStatus.UNDECIDED, None, None
    for v in (u, ProbeDirection(-u.values, 1.0)):
        top = 0.0 if lower is None else np.linalg.eigvalsh(cluster_matrix(spec, lower, v))[-1]
        margin = float(np.linalg.eigvalsh(cluster_matrix(spec, upper, v))[0] - top)
        if margin >= DEFINITENESS_MARGIN:
            return CertificateStatus.INFEASIBLE, v, margin
    return CertificateStatus.UNDECIDED, None, None


def _certify(spec: SpectralData, A: np.ndarray, b: np.ndarray, upper: Cluster,
             lower: Cluster | None = None) -> Certificate:
    """Find s with A s = b and each Gram block psd, ``lower``'s (a gap only)
    then ``upper``'s. A gap witness also needs positive traces; a criticality
    witness has trace equal to the volume, which may be tiny."""
    sizes = (upper.multiplicity,) if lower is None else (lower.multiplicity, upper.multiplicity)
    y, res, candidate = _decide(A, b, sizes, spec.grid.n_nodes)
    grams = tuple(y[sl].reshape(m, m) for sl, m in _blocks(sizes))
    if res <= FEASIBILITY_TOL and (lower is None or min(map(np.trace, grams)) > 1e-8):
        return Certificate(CertificateStatus.FEASIBLE, grams, res)
    status, u, margin = _separate(spec, candidate, upper, lower)
    return Certificate(status, None, res, separating_direction=u, margin=margin)


def criticality_certificate(spec: SpectralData, cluster: Cluster) -> Certificate:
    """Decide whether 1 lies in the sum-of-squares cone of the cluster's
    eigenspace, returning a psd Gram witness or a separating direction."""
    A = _basis_rows(spec.basis(cluster))
    return _certify(spec, A, np.ones(A.shape[0]), cluster)


def extract_frame(cert: Certificate, spec: SpectralData, cluster: Cluster) -> list[np.ndarray]:
    """Eigenfunction frame f~_p = sqrt(gamma_p) sum_a (v_p)_a f_a from a
    feasible criticality certificate; the squares of the frame sum to 1
    within the certificate residual."""
    if cert.status is not CertificateStatus.FEASIBLE:
        raise ValueError("frame extraction requires a feasible certificate")
    F = spec.basis(cluster)
    gamma, V = np.linalg.eigh(cert.grams[0])
    frame = []
    for p in range(len(gamma)):
        # tr G is the domain's volume, so the cut is relative to the largest
        if gamma[p] > 1e-12 * gamma[-1]:
            frame.append(np.sqrt(gamma[p]) * (F @ V[:, p]))
    return frame


def gap_certificate(spec: SpectralData, cluster_i: Cluster, cluster_j: Cluster) -> Certificate:
    """Decide whether the sum-of-squares cones of two eigenspaces intersect
    nontrivially (pointwise-equal psd Gram forms, i-side trace normalized)."""
    Ai = _basis_rows(spec.basis(cluster_i))
    Aj = _basis_rows(spec.basis(cluster_j))
    if cluster_i.first_index == cluster_j.first_index:
        # Equal eigenvalues: the gap vanishes identically and the shared
        # eigenspace intersects itself; no solve needed.
        m = cluster_i.multiplicity
        G = np.eye(m) / m
        return Certificate(CertificateStatus.FEASIBLE, (G, G.copy()), 0.0, degenerate=True)

    n, di = Ai.shape
    # Node rows enforce pointwise equality; the last row pins trace(G_i) = 1
    # (the w-orthonormal basis makes the integral of the i-side form equal its
    # trace), excluding the trivial zero pair.
    A = np.zeros((n + 1, di + Aj.shape[1]))
    A[:n, :di] = Ai
    A[:n, di:] = -Aj
    A[n, :di] = np.eye(cluster_i.multiplicity).ravel()
    b = np.zeros(n + 1)
    b[n] = 1.0
    return _certify(spec, A, b, cluster_j, cluster_i)


@dataclass(frozen=True, eq=False)
class CriticalityReport:
    """Aggregate verdict for one eigenvalue index at one potential."""

    index: int
    eigenvalue: float
    cluster_first: int
    multiplicity: int
    position: str                    # simple | first | last | interior
    sufficiency_applicable: bool     # criterion is if-and-only-if at first/last
    certificate: Certificate
    probes_total: int
    probes_critical: int
    frame_residual: float | None
    recovered_deviation: float | None
    verdict: str
    frame: list[np.ndarray] | None       # of a feasible certificate; not in to_dict()
    recovered: Potential | None          # potential recovered from the frame

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "eigenvalue": self.eigenvalue,
            "cluster_first": self.cluster_first,
            "multiplicity": self.multiplicity,
            "position": self.position,
            "sufficiency_applicable": self.sufficiency_applicable,
            "certificate_status": self.certificate.status.value,
            "certificate_residual": self.certificate.residual,
            "certificate_margin": self.certificate.margin,
            "probes_total": self.probes_total,
            "probes_critical": self.probes_critical,
            "frame_residual": self.frame_residual,
            "recovered_deviation": self.recovered_deviation,
            "verdict": self.verdict,
        }


def full_criticality_report(spec: SpectralData, i: int, *, probes: int = 200,
                            seed: int = 0) -> CriticalityReport:
    """Combine cluster structure, the cone certificate, a randomized probe
    suite and, when feasible, the recovered potential into one record;
    IncompleteClusterError when the cluster is not proven complete."""
    cluster = detect_cluster(spec, i)
    r = cluster.rank_of(i)
    m = cluster.multiplicity
    if m == 1:
        position = "simple"
    elif r == 0:
        position = "first"
    elif r == m - 1:
        position = "last"
    else:
        position = "interior"
    sufficiency = position != "interior"

    cert = criticality_certificate(spec, cluster)
    suite = mixed_probe_suite(spec.grid, probes, seed)
    critical_count = sum(1 for u in suite if one_sided_derivatives(spec, i, u).opposite_signs)

    frame_residual = None
    recovered_deviation = None
    frame = recovered = None
    if cert.status is CertificateStatus.FEASIBLE:
        frame = extract_frame(cert, spec, cluster)
        total = np.sum([f**2 for f in frame], axis=0)
        frame_residual = float(np.max(np.abs(total - 1.0)))
        recovered = recover_potential(spec.grid, frame, cluster.value)
        if spec.potential is not None:
            recovered_deviation = float(np.max(np.abs(recovered.values - spec.potential.values)))
        verdict = "critical" if sufficiency else "feasible (necessary condition only)"
    elif cert.status is CertificateStatus.INFEASIBLE:
        verdict = "not critical"
    else:
        verdict = "undecided"
    return CriticalityReport(
        index=i,
        eigenvalue=spec.eigenvalue(i),
        cluster_first=cluster.first_index,
        multiplicity=m,
        position=position,
        sufficiency_applicable=sufficiency,
        certificate=cert,
        probes_total=len(suite),
        probes_critical=critical_count,
        frame_residual=frame_residual,
        recovered_deviation=recovered_deviation,
        verdict=verdict,
        frame=frame,
        recovered=recovered,
    )
