"""One-sided eigenvalue derivatives under mean-zero potential perturbations.

The analytic branches through lambda_i have slopes equal to the eigenvalues
mu_1 <= ... <= mu_m of the multiplication matrix M_ab = <u f_a, f_b>_w over a
basis of lambda_i's whole m-dimensional eigenspace; a simple eigenvalue is the
1 x 1 case, so any unproven cluster is refused (IncompleteClusterError), a
simple-looking one too. Sorting selects the one-sided derivatives: if i sits
at 0-based rank r inside its cluster,

    right derivative = mu_{r+1},    left derivative = mu_{m-r}.

For r = 0 this is (min, max) and for r = m-1 it is (max, min), the two cases
with an exact variational meaning; interior ranks use the same sorted rule,
which is validated against finite differences but is an extension flagged in
reports.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .domain import Circle, DomainGrid, Potential, Torus2D, fourier_mode, project_mean_zero
from .errors import DegenerateGapError
from .spectral import Cluster, SpectralData, detect_cluster, spectrum_with_complete_cluster

SIGN_PRODUCT_TOL = 1e-12
ROUNDING_REL = 64 * float(np.finfo(float).eps)   # centering error relative to max |values|


@dataclass(frozen=True, eq=False)
class ProbeDirection:
    """Mean-zero direction in potential space (tangent to the mean constraint)."""

    values: np.ndarray
    sup_norm: float


@dataclass(frozen=True)
class DirectionalDerivative:
    left: float
    right: float

    @property
    def opposite_signs(self) -> bool:
        """True when the one-sided derivatives have opposite signs (or vanish)."""
        scale = max(abs(self.left), abs(self.right), 1.0)
        return self.left * self.right <= SIGN_PRODUCT_TOL * scale**2


def make_direction(grid: DomainGrid, values, normalize: bool = False) -> ProbeDirection:
    """Project node values onto the mean-zero tangent space; optionally rescale
    to sup-norm 1. Normalizing fails (ValueError) when the projection is at
    rounding level, as for a constant, rather than scaling rounding up to 1."""
    v = grid.check_vector(values)
    u = project_mean_zero(grid, v)
    sup = float(np.max(np.abs(u)))
    if normalize:
        if sup <= ROUNDING_REL * float(np.max(np.abs(v))):
            raise ValueError("cannot normalize a zero direction")
        u = u / sup
        sup = 1.0
    return ProbeDirection(u, sup)


def cluster_matrix(spec: SpectralData, cluster: Cluster, u: ProbeDirection) -> np.ndarray:
    """Symmetric m x m matrix <u f_a, f_b>_w on the cluster's eigenspace; its
    ascending eigenvalues are the branch slopes."""
    F = spec.basis(cluster)
    weighted = F * (spec.grid.weight * u.values)[:, None]
    M = weighted.T @ F
    return (M + M.T) / 2.0


def one_sided_derivatives(spec: SpectralData, i: int, u: ProbeDirection) -> DirectionalDerivative:
    """Left/right derivatives of t -> lambda_i(q + t*u) at t = 0."""
    cluster = detect_cluster(spec, i)
    slopes = np.linalg.eigvalsh(cluster_matrix(spec, cluster, u))
    r = cluster.rank_of(i)
    m = cluster.multiplicity
    return DirectionalDerivative(left=float(slopes[m - 1 - r]), right=float(slopes[r]))


def gap_one_sided_derivatives(spec: SpectralData, i: int, j: int,
                              u: ProbeDirection) -> DirectionalDerivative:
    """One-sided derivatives of the gap lambda_j - lambda_i along u.

    Both indices get their sorted-branch one-sided derivatives independently
    and the sides are differenced; when i is last of its cluster and j first
    of its, this reduces to the extremal rule right = min - max, left = max -
    min over the two branch sets.
    """
    ci = detect_cluster(spec, i)
    cj = detect_cluster(spec, j)
    if ci.first_index == cj.first_index:
        raise DegenerateGapError(
            f"indices {i} and {j} share one eigenvalue cluster (gap is identically zero there)"
        )
    di = one_sided_derivatives(spec, i, u)
    dj = one_sided_derivatives(spec, j, u)
    return DirectionalDerivative(left=dj.left - di.left, right=dj.right - di.right)


class ProbeSuite:
    """Deterministic pseudo-random mean-zero probes, sup-normalized to 1,
    drawn one at a time as they are reached.

    The suite holds only its parts, (count, seed, style) each, so its memory
    is one probe's, not count probes'. Every pass draws each part in order
    from a fresh generator seeded with the part's seed, so passes repeat
    bit for bit. Styles: "fourier" (random low-order modes), "spike"
    (localized bumps), "noise" (white noise per node).
    """

    def __init__(self, grid: DomainGrid, parts: list[tuple[int, int, str]]):
        for count, _, style in parts:
            if count < 1:
                raise ValueError("count must be >= 1")
            if style not in ("fourier", "spike", "noise"):
                raise ValueError(f"unknown probe style {style!r}")
        self.grid = grid
        # a SeedSequence rejects a bad seed here and seeds the same stream as the int
        self.parts = [(count, np.random.SeedSequence(seed), style) for count, seed, style in parts]

    def __len__(self) -> int:
        return sum(count for count, _, _ in self.parts)

    def __iter__(self) -> Iterator[ProbeDirection]:
        grid = self.grid
        for count, seed, style in self.parts:
            rng = np.random.default_rng(seed)
            modes = _fourier_modes(grid) if style == "fourier" else None
            # no style draws a constant: normal coefficients on independent
            # modes, white noise, a bump 0.05-0.2 L wide
            for _ in range(count):
                yield make_direction(grid, project_mean_zero(grid, _draw_probe(grid, rng, style, modes)),
                                     normalize=True)


def sample_probes(grid: DomainGrid, count: int, seed: int, style: str = "fourier") -> ProbeSuite:
    """``count`` probes of one style from ``seed``, drawn lazily; count < 1 or
    an unknown style raises ValueError here, not when the probes are drawn."""
    return ProbeSuite(grid, [(count, seed, style)])


def _fourier_modes(grid: DomainGrid) -> list[np.ndarray]:
    """The low-order modes a fourier probe combines, in the order its
    coefficients are drawn: cos then sin of k = 1..4 in 1-D, of each
    (kx, ky) in 0..2 x 0..2 but (0, 0) on the torus."""
    if grid.ndim == 1:
        return [fourier_mode(grid, k, kind) for k in range(1, 5) for kind in ("cos", "sin")]
    assert isinstance(grid.kind, Torus2D)
    lx, ly = grid.kind.length_x, grid.kind.length_y
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    modes = []
    for kx in range(0, 3):
        for ky in range(0, 3):
            if kx == 0 and ky == 0:
                continue
            phase = 2.0 * np.pi * (kx * x / lx + ky * y / ly)
            modes += [np.cos(phase), np.sin(phase)]
    return modes


def _draw_probe(grid: DomainGrid, rng: np.random.Generator, style: str,
                modes: list[np.ndarray] | None) -> np.ndarray:
    if style == "noise":
        return rng.standard_normal(grid.n_nodes)
    if style == "spike":
        if grid.ndim == 1:
            ell = grid.volume
            center = rng.uniform(0.0, ell)
            width = rng.uniform(0.05, 0.2) * ell
            d = np.abs(grid.coords - center)
            if isinstance(grid.kind, Circle):
                d = np.minimum(d, ell - d)
            return np.exp(-((d / width) ** 2))
        assert isinstance(grid.kind, Torus2D)
        lx, ly = grid.kind.length_x, grid.kind.length_y
        cx, cy = rng.uniform(0.0, lx), rng.uniform(0.0, ly)
        width = rng.uniform(0.05, 0.2) * min(lx, ly)
        dx = np.abs(grid.coords[:, 0] - cx)
        dy = np.abs(grid.coords[:, 1] - cy)
        dx = np.minimum(dx, lx - dx)
        dy = np.minimum(dy, ly - dy)
        return np.exp(-((dx**2 + dy**2) / width**2))
    # fourier: one standard normal coefficient per mode
    values = np.zeros(grid.n_nodes)
    for mode in modes:
        values += rng.standard_normal() * mode
    return values


def mixed_probe_suite(grid: DomainGrid, count: int, seed: int) -> ProbeSuite:
    """``count`` probes mixing the three styles, deterministic in the seed and
    drawn lazily: count - 2 (count // 3) fourier, then count // 3 spike and
    count // 3 noise probes. count < 1 raises ValueError here."""
    seeds = np.random.SeedSequence(seed).generate_state(3)
    per = count // 3
    parts = [(count - 2 * per, int(seeds[0]), "fourier")]
    if per:
        parts += [(per, int(seeds[1]), "spike"), (per, int(seeds[2]), "noise")]
    return ProbeSuite(grid, parts)


def fd_eigenvalue_derivative(grid: DomainGrid, q: Potential, i: int, u: ProbeDirection,
                             t: float = 1e-4) -> float:
    """Central finite-difference quotient (lambda_i(q+tu) - lambda_i(q-tu)) / 2t."""
    def value(shift: float) -> float:
        shifted = Potential.from_values(grid, q.values + shift * u.values)
        return spectrum_with_complete_cluster(grid, shifted, i)[0].eigenvalue(i)

    return (value(t) - value(-t)) / (2.0 * t)

