import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specpot import domain
from specpot.domain import (
    BoundaryCondition,
    Circle,
    Interval,
    Potential,
    Torus2D,
    build_grid,
    fourier_mode,
    grid_from_mapping,
    laplacian_modes,
    mean_value,
    project_mean_zero,
)
from specpot.banded import EPS, BandedOperator, _norm_bound
from specpot.errors import ConfigError, DimensionError
from specpot.spectral import assemble


# Closed-form finite-difference spectra, written out independently of the
# library: circle (4/h^2) sin^2(pi k / n), cell-centered interval
# (4/h^2) sin^2(k pi / (2n)) with k from 1 (Dirichlet) or 0 (Neumann).
def circle_fd_eigs(n, ell):
    h = ell / n
    return np.sort(4.0 / h**2 * np.sin(np.pi * np.arange(n) / n) ** 2)


def interval_fd_eigs(n, ell, bc):
    h = ell / n
    ks = np.arange(1, n + 1) if bc == "dirichlet" else np.arange(0, n)
    return np.sort(4.0 / h**2 * np.sin(ks * np.pi / (2 * n)) ** 2)


def rel_err(a, b):
    return np.abs(a - b) / (1.0 + np.abs(b))


def dense_laplacian(g):
    """-Laplacian_h as a dense matrix. The grids store only bands (1-D) or
    per-axis factors (torus), so the matrix is the operator assembled at q = 0."""
    return assemble(g, Potential.zero(g)).toarray()


class TestBuildGrid:
    def test_circle_partition(self, circle_grid):
        assert circle_grid.n_nodes == 256
        assert circle_grid.spacing[0] == pytest.approx(2 * np.pi / 256, rel=1e-15)
        assert circle_grid.volume == pytest.approx(2 * np.pi, rel=1e-15)
        assert circle_grid.n_nodes * circle_grid.weight == pytest.approx(2 * np.pi, rel=1e-13)

    def test_interval_volume_exact(self, dirichlet_grid, neumann_grid):
        for g in (dirichlet_grid, neumann_grid):
            assert g.n_nodes * g.weight == pytest.approx(np.pi, rel=1e-14)
            assert g.volume == pytest.approx(np.pi, rel=1e-15)

    def test_torus_weights(self, torus_grid):
        assert torus_grid.n_nodes == 256
        assert torus_grid.n_nodes * torus_grid.weight == pytest.approx((2 * np.pi) ** 2, rel=1e-13)

    def test_bc_compatibility(self):
        with pytest.raises(ConfigError):
            build_grid(Circle(), 16, BoundaryCondition.DIRICHLET)
        with pytest.raises(ConfigError):
            build_grid(Interval(), 16, BoundaryCondition.CLOSED)
        with pytest.raises(ConfigError):
            build_grid(Torus2D(), 16, BoundaryCondition.NEUMANN)

    def test_min_nodes(self):
        with pytest.raises(ConfigError):
            build_grid(Circle(), 4, BoundaryCondition.CLOSED)

    def test_bad_lengths(self):
        with pytest.raises(ConfigError):
            build_grid(Circle(-1.0), 16, BoundaryCondition.CLOSED)

    def test_node_ceiling(self):
        # rejected before the dense 1-D Laplacian is allocated; the torus
        # stores per-axis factors and allows 128 x 128
        with pytest.raises(ConfigError, match="4097"):
            build_grid(Circle(), 4097, BoundaryCondition.CLOSED)
        with pytest.raises(ConfigError, match="4097"):
            build_grid(Interval(), 4097, BoundaryCondition.NEUMANN)
        with pytest.raises(ConfigError, match="16641"):
            build_grid(Torus2D(), 129, BoundaryCondition.CLOSED)
        assert build_grid(Torus2D(), 128, BoundaryCondition.CLOSED).n_nodes == 16384

    def test_torus_stores_axis_factors(self):
        g = build_grid(Torus2D(2 * np.pi, np.pi), 64, BoundaryCondition.CLOSED)
        assert g.laplacian.shape == (2, 2, 64)
        assert g.laplacian.nbytes == 2 * 2 * 64 * 8
        hx, hy = g.spacing
        assert g.laplacian[0, 0, 0] == pytest.approx(2.0 / hx**2)
        assert g.laplacian[1, 0, 0] == pytest.approx(2.0 / hy**2)
        # each axis is a circle: its wrap entry couples the last node to the first
        assert g.laplacian[0, 1, -1] == pytest.approx(-1.0 / hx**2)
        assert g.laplacian[1, 1, -1] == pytest.approx(-1.0 / hy**2)

    def test_one_d_stores_bands(self):
        for kind, bc, wrap in ((Circle(), BoundaryCondition.CLOSED, -1.0),
                               (Interval(), BoundaryCondition.DIRICHLET, 0.0)):
            g = build_grid(kind, 4096, bc)
            assert g.laplacian.shape == (2, 4096)
            assert g.laplacian.nbytes == 2 * 4096 * 8
            h = g.spacing[0]
            assert g.laplacian[1, -1] * h**2 == wrap


def dense_circle_stencil(n, h):
    """The circle Laplacian as a dense n x n matrix, filled entry by entry."""
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = 2.0
    lap[idx, (idx + 1) % n] = -1.0
    lap[idx, (idx - 1) % n] = -1.0
    return lap / h**2


@pytest.mark.parametrize("lengths", [(2 * np.pi, 2 * np.pi), (2 * np.pi, np.pi)])
@pytest.mark.parametrize("m", [8, 16, 64])
def test_torus_operator_matches_dense_stencil(m, lengths):
    # the torus keeps only per-axis bands; its assembled operator must be,
    # byte for byte, the Kronecker sum of the dense axis stencils plus diag(q)
    import scipy.sparse as sp

    g = build_grid(Torus2D(*lengths), m, BoundaryCondition.CLOSED)
    q = np.random.default_rng(m).uniform(-1.0, 1.0, g.n_nodes)
    hx, hy = g.spacing
    oracle = (sp.kronsum(dense_circle_stencil(m, hx), dense_circle_stencil(m, hy), format="csc")
              + sp.diags(q)).tocsc()
    H = assemble(g, Potential.from_values(g, q))
    # the compressed arrays fix the dense matrix; at 64 x 64 forming it
    # would take two 134 MB arrays
    for name in ("indptr", "indices", "data"):
        assert getattr(H, name).tobytes() == getattr(oracle, name).tobytes()
    if m <= 16:
        assert H.toarray().tobytes() == oracle.toarray().tobytes()


class TestLaplacian:
    def test_symmetric(self, circle_grid, dirichlet_grid, neumann_grid, torus_grid):
        for g in (circle_grid, dirichlet_grid, neumann_grid, torus_grid):
            lap = dense_laplacian(g)
            assert np.array_equal(lap, lap.T)

    def test_w_self_adjoint_random_pairs(self, circle_grid, dirichlet_grid, neumann_grid, torus_grid):
        rng = np.random.default_rng(0)
        for g in (circle_grid, dirichlet_grid, neumann_grid, torus_grid):
            lap = dense_laplacian(g)
            for _ in range(50):
                u = rng.standard_normal(g.n_nodes)
                v = rng.standard_normal(g.n_nodes)
                lhs = g.inner(lap @ u, v)
                rhs = g.inner(u, lap @ v)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_circle_closed_form_spectrum(self, circle_grid):
        lam = np.linalg.eigvalsh(dense_laplacian(circle_grid))
        exact = circle_fd_eigs(256, 2 * np.pi)
        assert np.max(rel_err(lam, exact)) <= 1e-9

    def test_interval_closed_form_spectra(self, dirichlet_grid, neumann_grid):
        for g, bc in ((dirichlet_grid, "dirichlet"), (neumann_grid, "neumann")):
            lam = np.linalg.eigvalsh(dense_laplacian(g))
            exact = interval_fd_eigs(256, np.pi, bc)
            assert np.max(rel_err(lam, exact)) <= 1e-9

    def test_torus_closed_form_spectrum(self, torus_grid):
        n = 16
        one_d = 4.0 / torus_grid.spacing[0] ** 2 * np.sin(np.pi * np.arange(n) / n) ** 2
        exact = np.sort((one_d[:, None] + one_d[None, :]).ravel())
        lam = np.linalg.eigvalsh(dense_laplacian(torus_grid))
        assert np.max(rel_err(lam, exact)) <= 1e-9

    def test_constant_kernel_closed_neumann(self, circle_grid, neumann_grid, torus_grid):
        for g in (circle_grid, neumann_grid, torus_grid):
            hmin = min(g.spacing)
            lap = dense_laplacian(g)
            row_sums = lap @ np.ones(g.n_nodes)
            assert np.max(np.abs(row_sums)) <= 1e-12 / hmin**2
            assert np.linalg.eigvalsh(lap)[0] >= -1e-10

    @pytest.mark.parametrize("n", [8, 9, 64, 256])
    @pytest.mark.parametrize("bc", ["closed", "neumann", "dirichlet"])
    def test_modes_are_orthonormal_eigenvectors(self, bc, n):
        # laplacian_modes against the closed-form spectra above, in ascending
        # order: one mode, four (a block cut after the circle's first double
        # pair) and all n, the circle's Nyquist mode (-1)^j at even n included
        kind = Circle(2 * np.pi) if bc == "closed" else Interval(np.pi)
        g = build_grid(kind, n, bc)
        exact = (circle_fd_eigs(n, 2 * np.pi) if bc == "closed"
                 else interval_fd_eigs(n, np.pi, bc))
        lap = BandedOperator(g.laplacian)
        norm = float(_norm_bound(g.laplacian))
        for p in (1, 4, n):
            modes = laplacian_modes(g, p)
            assert modes.shape == (n, p)
            assert np.max(np.abs(modes.T @ modes - np.eye(p))) <= 8 * EPS * np.sqrt(n)
            residuals = np.linalg.norm(lap @ modes - modes * exact[:p], axis=0)
            assert np.max(residuals) <= 8 * EPS * norm
        if bc == "closed" and n % 2 == 0:
            assert np.array_equal(np.sign(modes[:, -1]), (-1.0) ** np.arange(n))

    @pytest.mark.parametrize("n", [8, 9, 256])
    @pytest.mark.parametrize("bc", ["closed", "neumann", "dirichlet"])
    def test_modes_are_cached_read_only(self, bc, n):
        # the modes depend on the domain kind, bc, n and p, not on the length:
        # grids of two lengths share one read-only array, equal to a fresh build
        kind = Circle if bc == "closed" else Interval
        short, long = (build_grid(kind(length), n, bc) for length in (1.0, 7.5))
        for p in (1, 4, n):
            modes = laplacian_modes(short, p)
            assert laplacian_modes(long, p) is modes
            assert not modes.flags.writeable
            with pytest.raises(ValueError):
                modes[0, 0] = 0.0
            fresh = domain._modes.__wrapped__(bc == "closed", BoundaryCondition(bc), n, p)
            assert np.array_equal(modes, fresh)

    def test_dirichlet_positive_definite(self, dirichlet_grid):
        assert np.linalg.eigvalsh(dense_laplacian(dirichlet_grid))[0] > 0.5

    def test_neumann_stencil_rows_sum_zero(self):
        # smallest allowed grid: the boundary rows are (1, -1)/h^2
        g = build_grid(Interval(np.pi), 8, BoundaryCondition.NEUMANN)
        lap = dense_laplacian(g)
        assert lap.shape == (8, 8)
        assert np.max(np.abs(lap.sum(axis=1))) == 0.0
        h = g.spacing[0]
        assert lap[0, 0] == pytest.approx(1.0 / h**2)
        assert lap[0, 1] == pytest.approx(-1.0 / h**2)


class TestMeanValue:
    def test_constant(self, circle_grid):
        assert mean_value(circle_grid, np.full(256, 3.7)) == pytest.approx(3.7, abs=1e-13)

    def test_cos_symmetry(self, circle_grid):
        u = np.cos(2 * circle_grid.coords)
        assert abs(mean_value(circle_grid, u)) <= 1e-10

    def test_linear_on_interval(self, neumann_grid):
        # oracle: (1/pi) * integral of x over [0, pi] = pi/2
        assert mean_value(neumann_grid, neumann_grid.coords) == pytest.approx(np.pi / 2, abs=1e-8)

    def test_dimension_mismatch(self, circle_grid):
        with pytest.raises(DimensionError):
            mean_value(circle_grid, np.ones(13))


class TestProjectMeanZero:
    def test_constant_to_zero(self, circle_grid):
        out = project_mean_zero(circle_grid, np.full(256, 2.5))
        assert np.max(np.abs(out)) <= 1e-12

    def test_linear_on_interval(self, neumann_grid):
        out = project_mean_zero(neumann_grid, neumann_grid.coords)
        expected = neumann_grid.coords - np.pi / 2
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_result_mean_zero(self, circle_grid):
        rng = np.random.default_rng(1)
        out = project_mean_zero(circle_grid, rng.standard_normal(256))
        assert abs(mean_value(circle_grid, out)) <= 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(u=arrays(np.float64, 64, elements=st.floats(-100, 100)))
    def test_idempotent(self, u):
        g = build_grid(Circle(), 64, BoundaryCondition.CLOSED)
        once = project_mean_zero(g, u)
        twice = project_mean_zero(g, once)
        assert np.max(np.abs(once - twice)) <= 1e-10 * max(1.0, np.max(np.abs(u)))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        u=arrays(np.float64, 64, elements=st.floats(-50, 50)),
        v=arrays(np.float64, 64, elements=st.floats(-50, 50)),
        a=st.floats(-5, 5),
    )
    def test_linear(self, u, v, a):
        g = build_grid(Circle(), 64, BoundaryCondition.CLOSED)
        lhs = project_mean_zero(g, a * u + v)
        rhs = a * project_mean_zero(g, u) + project_mean_zero(g, v)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


class TestPotential:
    def test_mean_cached(self, circle_grid):
        rng = np.random.default_rng(2)
        q = Potential.from_values(circle_grid, rng.standard_normal(256))
        assert q.mean == pytest.approx(mean_value(circle_grid, q.values), abs=1e-12)

    def test_constant_and_zero(self, circle_grid):
        assert Potential.zero(circle_grid).mean == 0.0
        assert Potential.constant(circle_grid, -1.5).mean == -1.5

    def test_fourier_mean_zero(self, circle_grid):
        q = Potential.fourier(circle_grid, cos_coeffs=(1.0, 0.5), sin_coeffs=(0.3,))
        assert abs(q.mean) <= 1e-12

    def test_fourier_rejected_on_torus(self, torus_grid):
        with pytest.raises(ConfigError):
            fourier_mode(torus_grid, 1)

    def test_nonfinite_rejected(self, circle_grid):
        values = np.zeros(256)
        values[3] = np.nan
        with pytest.raises(ConfigError):
            Potential.from_values(circle_grid, values)


class TestGridConfig:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="boundry"):
            grid_from_mapping({"kind": "circle", "length": "6.28", "nodes": "64",
                               "boundry": "closed"})

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="bc"):
            grid_from_mapping({"kind": "circle", "length": "6.28", "nodes": "64"})

    def test_non_finite_length(self):
        for length in ("nan", "inf", "6.28,inf"):
            with pytest.raises(ConfigError, match="length"):
                grid_from_mapping({"kind": "torus", "length": length, "nodes": "8", "bc": "closed"})

    def test_torus_mapping(self):
        g = grid_from_mapping({"kind": "torus", "length": "6.28,3.14", "nodes": "8", "bc": "closed"})
        assert isinstance(g.kind, Torus2D)
        assert g.n_nodes == 64
        assert g.spacing[0] != g.spacing[1]

