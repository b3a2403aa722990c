"""Model domains: uniform grids, discrete Laplacians, mean-value operations.

Three flat domains are supported: a circle of given circumference (periodic),
an interval with Dirichlet or Neumann ends, and a flat rectangular 2-torus.
All grids are uniform and carry a diagonal quadrature with one weight w for
every node (h in 1-D, hx*hy on the torus), so n*w = V, the domain volume, the
discrete L2 inner product is  <a, b>_w = w sum_x a(x) b(x)  and the mean
value is the plain average of the node values.
Interval grids are cell-centered (nodes at midpoints (j+1/2)h): with the
ghost-node reflection closures this gives symmetric Laplacians with exact
closed-form spectra (4/h^2) sin^2(k*pi/(2n)) and, in the Neumann case, an
exactly preserved constant kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionError

MIN_NODES = 8
MAX_NODES = 4096          # 1-D: banded storage and solves are O(n) per pair; the ceiling keeps
                          # the Sturm count's Python loop and k = n requests at desk scale
MAX_TORUS_NODES = 16384   # 128x128: the torus keeps only per-axis factors and is solved sparse


class BoundaryCondition(str, Enum):
    CLOSED = "closed"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True)
class Circle:
    circumference: float = 2.0 * np.pi


@dataclass(frozen=True)
class Interval:
    length: float = float(np.pi)


@dataclass(frozen=True)
class Torus2D:
    length_x: float = 2.0 * np.pi
    length_y: float = 2.0 * np.pi


DomainKind = Circle | Interval | Torus2D


@dataclass(frozen=True, eq=False)
class DomainGrid:
    """Uniform discretization of a model domain.

    Treated as immutable after construction; safe to share read-only.
    ``laplacian`` holds minus the discrete Laplacian, which is symmetric and
    positive semidefinite (positive definite under Dirichlet). In 1-D it is
    held as its two bands, shape (2, n): the diagonal, then the
    off-diagonal with ``[1][i]`` coupling nodes i and i + 1 and ``[1][n-1]``
    the circle's wrap coupling of nodes n - 1 and 0 (zero on the interval);
    see ``banded``. On the torus it is the stack (2, 2, m) of the x- and
    y-axis circle bands of the m x m grid, whose Kronecker sum
    ``spectral.assemble`` forms as a sparse matrix. ``weight`` is the
    quadrature weight of every node.
    """

    kind: DomainKind
    bc: BoundaryCondition
    n_nodes: int
    coords: np.ndarray        # (n,) in 1-D, (n, 2) on the torus
    spacing: tuple[float, ...]
    weight: float             # of every node: h in 1-D, hx * hy on the torus
    volume: float
    laplacian: np.ndarray     # (2, n) bands in 1-D, (2, 2, m) per-axis bands on the torus

    @property
    def ndim(self) -> int:
        return 1 if self.coords.ndim == 1 else self.coords.shape[1]

    def check_vector(self, u) -> np.ndarray:
        v = np.asarray(u, dtype=float)
        if v.shape != (self.n_nodes,):
            raise DimensionError(
                f"expected a vector of length {self.n_nodes}, got shape {v.shape}"
            )
        return v

    def inner(self, a, b) -> float:
        """Discrete L2(w) inner product w sum_x a(x) b(x)."""
        return float(np.dot(self.weight * np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def _circle_bands(n: int, h: float) -> np.ndarray:
    return np.stack([np.full(n, 2.0), np.full(n, -1.0)]) / h**2


def _interval_bands(n: int, h: float, bc: BoundaryCondition) -> np.ndarray:
    bands = _circle_bands(n, h)
    bands[1, n - 1] = 0.0   # no wrap
    # Ghost-node reflection at the cell-centered boundary: u_ghost = -u_0 for
    # Dirichlet (value 0 at the wall), u_ghost = u_0 for Neumann (zero flux).
    corner = 3.0 if bc is BoundaryCondition.DIRICHLET else 1.0
    bands[0, [0, n - 1]] = corner / h**2
    return bands


def _spacing(length: float, n: int) -> float:
    """Node spacing h = length / n; ConfigError unless h > 0 and h^4 and 1/h^4
    are finite and nonzero: then so are the Laplacian's scales 1/h^2 and the
    squares 1/w^2 = 1/h^4 of w-normalized torus eigenfunctions that the
    certificates sum. numpy float64 overflows h^4 to inf where float raises."""
    h = length / n
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        h4 = np.float64(h) ** 4
        inv_h4 = 1.0 / h4
    if not (h > 0.0 and 0.0 < h4 < np.inf and inv_h4 < np.inf):
        raise ConfigError(f"length {length!r} over {n} nodes gives spacing h = {h:.3g}: "
                          "it must be positive, with finite nonzero h^4 and 1/h^4")
    return h


def build_grid(kind: DomainKind, n_nodes: int, bc: BoundaryCondition) -> DomainGrid:
    """Build a uniform grid with its quadrature weight and discrete Laplacian.

    ``n_nodes`` is the node count in 1-D and the per-axis node count on the
    torus; the total may not exceed MAX_NODES in 1-D or MAX_TORUS_NODES on
    the torus. The boundary condition must
    match the domain: closed for circle and torus, Dirichlet or Neumann for
    the interval.
    """
    bc = BoundaryCondition(bc)
    if isinstance(kind, (Circle, Torus2D)) and bc is not BoundaryCondition.CLOSED:
        raise ConfigError(f"{type(kind).__name__} requires closed boundary, got {bc.value!r}")
    if isinstance(kind, Interval) and bc is BoundaryCondition.CLOSED:
        raise ConfigError("Interval requires dirichlet or neumann boundary conditions")
    if int(n_nodes) != n_nodes or n_nodes < MIN_NODES:
        raise ConfigError(f"n_nodes must be an integer >= {MIN_NODES}, got {n_nodes}")
    n = int(n_nodes)
    if isinstance(kind, Torus2D):
        total, limit = n * n, MAX_TORUS_NODES
    else:
        total, limit = n, MAX_NODES
    if total > limit:
        raise ConfigError(f"grid has {total} nodes, above the limit of {limit}")

    if isinstance(kind, Circle):
        ell = float(kind.circumference)
        h = _spacing(ell, n)
        coords = h * np.arange(n)
        return DomainGrid(kind, bc, n, coords, (h,), h, ell, _circle_bands(n, h))

    if isinstance(kind, Interval):
        ell = float(kind.length)
        h = _spacing(ell, n)
        coords = h * (np.arange(n) + 0.5)
        return DomainGrid(kind, bc, n, coords, (h,), h, ell, _interval_bands(n, h, bc))

    lx, ly = float(kind.length_x), float(kind.length_y)
    hx, hy = _spacing(lx, n), _spacing(ly, n)
    x = hx * np.arange(n)
    y = hy * np.arange(n)
    # Node index = j * n + i for node (x_i, y_j): x varies fastest.
    xx, yy = np.meshgrid(x, y)
    coords = np.column_stack([xx.ravel(), yy.ravel()])
    lap = np.stack([_circle_bands(n, hx), _circle_bands(n, hy)])
    return DomainGrid(kind, bc, total, coords, (hx, hy), hx * hy, lx * ly, lap)


def mean_value(grid: DomainGrid, u) -> float:
    """Mean (1/V) w sum_x u(x) of a node-sampled function: with one weight
    for every node, the plain average of its values (the bits of ``v.mean()``,
    without its call overhead)."""
    return float(grid.check_vector(u).sum() / grid.n_nodes)


def project_mean_zero(grid: DomainGrid, u) -> np.ndarray:
    """Remove the mean component: u - mean(u). Idempotent and linear."""
    v = grid.check_vector(u)
    return v - mean_value(grid, v)


@dataclass(frozen=True, eq=False)
class Potential:
    """Node-sampled potential with its cached mean value."""

    values: np.ndarray
    mean: float

    @classmethod
    def from_values(cls, grid: DomainGrid, values) -> "Potential":
        v = grid.check_vector(values).copy()
        if not np.all(np.isfinite(v)):
            raise ConfigError("potential values must be finite")
        return cls(v, mean_value(grid, v))

    @classmethod
    def zero(cls, grid: DomainGrid) -> "Potential":
        return cls(np.zeros(grid.n_nodes), 0.0)

    @classmethod
    def constant(cls, grid: DomainGrid, c: float) -> "Potential":
        return cls(np.full(grid.n_nodes, float(c)), float(c))

    @classmethod
    def fourier(cls, grid: DomainGrid, cos_coeffs=(), sin_coeffs=()) -> "Potential":
        """Low-order trigonometric potential from mode coefficients (1-D domains)."""
        values = np.zeros(grid.n_nodes)
        for k, a in enumerate(cos_coeffs, start=1):
            values += float(a) * fourier_mode(grid, k, "cos")
        for k, b in enumerate(sin_coeffs, start=1):
            values += float(b) * fourier_mode(grid, k, "sin")
        return cls.from_values(grid, values)


def fourier_mode(grid: DomainGrid, k: int, kind: str = "cos") -> np.ndarray:
    """k-th trigonometric mode on a 1-D grid: period ell on the circle,
    half-period cosines/sines k*pi*x/ell on the interval."""
    if grid.ndim != 1:
        raise ConfigError("fourier modes are only defined for 1-D domains here")
    periods = 2.0 if isinstance(grid.kind, Circle) else 1.0   # half periods on the interval
    theta = periods * np.pi * k * grid.coords / grid.volume
    return np.cos(theta) if kind == "cos" else np.sin(theta)


def laplacian_modes(grid: DomainGrid, p: int) -> np.ndarray:
    """The p lowest eigenvectors of -Laplacian_h on a 1-D grid, (n, p)
    Euclidean-orthonormal columns in ascending order of their eigenvalues,
    read-only and built once per domain kind, boundary condition, n and p:
    they do not depend on the grid's length.

    On the circle these are the DFT modes: the constant, then cos and sin of
    2 pi m j / n for m = 1, 2, ..., ending at even n with the Nyquist mode
    (-1)^j, eigenvalues (4/h^2) sin^2(pi m / n). On the cell-centered
    interval they are the DCT-II cos(pi m (j + 1/2) / n), m = 0..n-1, under
    Neumann and the DST-II sin(pi m (j + 1/2) / n), m = 1..n, under
    Dirichlet, eigenvalues (4/h^2) sin^2(pi m / (2n)) (Strang, "The Discrete
    Cosine Transform", SIAM Review 41, 1999). Each angle is an integer
    multiple of pi / (2n), reduced modulo 2 pi before it is scaled, so every
    entry is exact to a few eps at any n; sin x is taken as cos(x - pi/2).
    """
    return _modes(isinstance(grid.kind, Circle), grid.bc, grid.n_nodes, p)


@lru_cache(maxsize=8)
def _modes(circle: bool, bc: BoundaryCondition, n: int, p: int) -> np.ndarray:
    j = np.arange(n)[:, None]
    column = np.arange(p)
    if circle:
        m = (column + 1) // 2   # 0, 1, 1, 2, 2, ...: cos in odd columns, sin in even ones
        quarters = 4 * j * m - n * ((column % 2 == 0) & (column > 0))
    else:
        dirichlet = bc is BoundaryCondition.DIRICHLET
        quarters = (2 * j + 1) * (column + dirichlet) - n * dirichlet
    modes = np.cos(quarters % (4 * n) * (np.pi / (2 * n)))
    modes /= np.linalg.norm(modes, axis=0)
    modes.flags.writeable = False
    return modes


_GRID_KEYS = {"kind", "length", "nodes", "bc"}


def grid_from_mapping(mapping: dict[str, str]) -> DomainGrid:
    """Build a grid from string key/value pairs (kind, length, nodes, bc)."""
    unknown = sorted(set(mapping) - _GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown grid key {unknown[0]!r}")
    missing = sorted(_GRID_KEYS - set(mapping))
    if missing:
        raise ConfigError(f"missing grid key {missing[0]!r}")

    kind_name = mapping["kind"].strip().lower()
    lengths = [s.strip() for s in mapping["length"].split(",")]
    try:
        lengths = [float(s) for s in lengths]
    except ValueError as exc:
        raise ConfigError(f"bad length value {mapping['length']!r}") from exc
    if not all(np.isfinite(lengths)):
        raise ConfigError(f"bad length value {mapping['length']!r}")
    try:
        nodes = int(mapping["nodes"])
    except ValueError as exc:
        raise ConfigError(f"bad nodes value {mapping['nodes']!r}") from exc
    try:
        bc = BoundaryCondition(mapping["bc"].strip().lower())
    except ValueError as exc:
        raise ConfigError(f"bad bc value {mapping['bc']!r}") from exc

    if kind_name == "circle":
        if len(lengths) != 1:
            raise ConfigError("circle takes a single length")
        kind: DomainKind = Circle(lengths[0])
    elif kind_name == "interval":
        if len(lengths) != 1:
            raise ConfigError("interval takes a single length")
        kind = Interval(lengths[0])
    elif kind_name == "torus":
        if len(lengths) == 1:
            kind = Torus2D(lengths[0], lengths[0])
        elif len(lengths) == 2:
            kind = Torus2D(lengths[0], lengths[1])
        else:
            raise ConfigError("torus takes one or two lengths")
    else:
        raise ConfigError(f"unknown domain kind {mapping['kind']!r}")
    return build_grid(kind, nodes, bc)

