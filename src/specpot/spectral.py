"""Operator assembly, dense eigensolves, cluster detection, potential recovery.

The operator is H = -Laplacian_h + diag(q). Eigenpairs are computed with a
full dense symmetric decomposition (robust and deterministic at desk scale)
and the eigenvectors are returned orthonormal in the weighted inner product
<f, g>_w of the grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Circle, DomainGrid, Interval, Potential, Torus2D
from .errors import SolverError

CLUSTER_TOL_REL = 1e-6
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Ascending low eigenvalues with w-orthonormal eigenvectors.

    ``eigenvectors[:, i]`` is the eigenfunction of ``eigenvalues[i]``;
    indices into the spectrum are 1-based in the public operations, matching
    the usual numbering lambda_1 <= lambda_2 <= ...
    """

    eigenvalues: np.ndarray   # (K,)
    eigenvectors: np.ndarray  # (n, K)
    grid: DomainGrid
    potential: Potential | None

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def eigenvalue(self, i: int) -> float:
        self._check_index(i)
        return float(self.eigenvalues[i - 1])

    def eigenvector(self, i: int) -> np.ndarray:
        self._check_index(i)
        return self.eigenvectors[:, i - 1]

    def basis(self, cluster: "Cluster") -> np.ndarray:
        """(n, m) block of eigenvectors spanning the cluster's eigenspace."""
        lo = cluster.first_index - 1
        return self.eigenvectors[:, lo : lo + cluster.multiplicity]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.count:
            raise IndexError(f"eigenvalue index {i} out of range 1..{self.count}")


@dataclass(frozen=True)
class Cluster:
    """Maximal run of consecutive eigenvalues equal within tolerance."""

    first_index: int      # 1-based
    multiplicity: int
    value: float
    tol_used: float
    truncated: bool

    @property
    def last_index(self) -> int:
        return self.first_index + self.multiplicity - 1

    def rank_of(self, i: int) -> int:
        """0-based position of spectrum index i inside the cluster."""
        if not self.first_index <= i <= self.last_index:
            raise IndexError(f"index {i} not in cluster {self.first_index}..{self.last_index}")
        return i - self.first_index

    def contains(self, i: int) -> bool:
        return self.first_index <= i <= self.last_index


def assemble(grid: DomainGrid, q: Potential | np.ndarray) -> np.ndarray:
    """H = -Laplacian_h + diag(q), symmetric."""
    values = q.values if isinstance(q, Potential) else q
    values = grid.check_vector(values)
    return grid.laplacian + np.diag(values)


def eigensolve(grid: DomainGrid, H: np.ndarray, k: int, potential: Potential | None = None) -> SpectralData:
    """Lowest k eigenpairs of a symmetric operator matrix, w-orthonormalized.

    Degenerate blocks come out in whatever basis the dense solver picks; each
    column's sign is fixed so the largest-magnitude entry is positive.
    """
    n = grid.n_nodes
    if H.shape != (n, n):
        raise SolverError(f"operator shape {H.shape} does not match grid size {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    try:
        evals, evecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigendecomposition failed: {exc}") from exc
    evals = evals[:k]
    # Uniform weights: Euclidean-orthonormal columns become w-orthonormal
    # after scaling by 1/sqrt(w).
    vecs = evecs[:, :k] / np.sqrt(grid.weights[0])
    peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    vecs *= np.where(peaks < 0, -1.0, 1.0)

    residuals = H @ vecs - vecs * evals
    norms = np.sqrt(np.sum(grid.weights[:, None] * residuals**2, axis=0))
    worst = float(np.max(norms / (1.0 + np.abs(evals))))
    if worst > RESIDUAL_TOL:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return SpectralData(evals.copy(), vecs, grid, potential)


def solve_spectrum(grid: DomainGrid, q: Potential, k: int) -> SpectralData:
    """Assemble and solve in one step."""
    return eigensolve(grid, assemble(grid, q), k, potential=q)


def detect_cluster(spec: SpectralData, i: int, tol_rel: float = CLUSTER_TOL_REL) -> Cluster:
    """Cluster of eigenvalues within tol_rel*(1+|lambda_i|) of lambda_i.

    The cluster is flagged truncated when it reaches the last computed
    eigenvalue while more of the spectrum exists; callers needing a complete
    cluster must then re-solve with larger k.
    """
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    spec._check_index(i)
    lam = spec.eigenvalues
    center = lam[i - 1]
    tol = tol_rel * (1.0 + abs(center))
    lo = i - 1
    while lo > 0 and abs(lam[lo - 1] - center) <= tol:
        lo -= 1
    hi = i - 1
    while hi < spec.count - 1 and abs(lam[hi + 1] - center) <= tol:
        hi += 1
    truncated = hi == spec.count - 1 and spec.count < spec.grid.n_nodes
    return Cluster(lo + 1, hi - lo + 1, float(center), tol, truncated)


def spectrum_with_complete_cluster(
    grid: DomainGrid,
    q: Potential,
    i: int,
    tol_rel: float = CLUSTER_TOL_REL,
    k_start: int | None = None,
) -> tuple[SpectralData, Cluster]:
    """Solve with enough eigenpairs that the cluster containing i is complete.

    Doubles k until the cluster detaches from the truncation boundary; at
    k = n the whole spectrum is visible and the cluster is complete by
    definition, so the loop always terminates.
    """
    k = min(grid.n_nodes, max(i + 6, k_start or 0))
    while True:
        spec = solve_spectrum(grid, q, k)
        cluster = detect_cluster(spec, i, tol_rel)
        if not cluster.truncated:
            return spec, cluster
        k = min(grid.n_nodes, 2 * k)


def discrete_gradient(grid: DomainGrid, f) -> np.ndarray:
    """Second-order gradient of a node function: central differences with
    periodic wrap on closed domains, one-sided stencils at interval ends.

    Returns shape (n,) in 1-D and (n, 2) on the torus.
    """
    v = grid.check_vector(f)
    if isinstance(grid.kind, Circle):
        h = grid.spacing[0]
        return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * h)
    if isinstance(grid.kind, Interval):
        h = grid.spacing[0]
        g = np.empty_like(v)
        g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        g[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        g[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        return g
    assert isinstance(grid.kind, Torus2D)
    n = int(round(np.sqrt(grid.n_nodes)))
    hx, hy = grid.spacing
    field = v.reshape(n, n)  # row j = y_j, column i = x_i
    gx = (np.roll(field, -1, axis=1) - np.roll(field, 1, axis=1)) / (2.0 * hx)
    gy = (np.roll(field, -1, axis=0) - np.roll(field, 1, axis=0)) / (2.0 * hy)
    return np.column_stack([gx.ravel(), gy.ravel()])


def gradient_squared(grid: DomainGrid, f) -> np.ndarray:
    g = discrete_gradient(grid, f)
    if g.ndim == 1:
        return g**2
    return (g**2).sum(axis=1)


FRAME_SUM_TOL = 1e-6


def recover_potential(grid: DomainGrid, frame, value: float) -> Potential:
    """Recover the potential from an eigenfunction frame with sum f_p^2 = 1.

    For such a frame the potential satisfies q = lambda - sum_p |grad f_p|^2
    pointwise; the discrete gradients reproduce it to O(h^2).
    """
    rows = [grid.check_vector(f) for f in frame]
    if not rows:
        raise ValueError("frame must contain at least one function")
    total = np.sum([f**2 for f in rows], axis=0)
    dev = float(np.max(np.abs(total - 1.0)))
    if dev > FRAME_SUM_TOL:
        raise ValueError(
            f"frame squares sum to 1 within {dev:.3e}, above the {FRAME_SUM_TOL:.0e} tolerance"
        )
    q = float(value) - np.sum([gradient_squared(grid, f) for f in rows], axis=0)
    return Potential.from_values(grid, q)
