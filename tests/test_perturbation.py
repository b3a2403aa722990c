import tracemalloc

import numpy as np
import pytest

from specpot.domain import BoundaryCondition, Torus2D, build_grid
from specpot.domain import Potential, mean_value
from specpot.errors import DegenerateGapError
from specpot.perturbation import (
    cluster_matrix,
    fd_eigenvalue_derivative,
    gap_one_sided_derivatives,
    make_direction,
    mixed_probe_suite,
    one_sided_derivatives,
    sample_probes,
)
from specpot.spectral import detect_cluster, solve_spectrum


def central_fd(grid, q, i, u, t):
    """Independent central difference quotient built from fresh 1-D
    eigensolves of i + 2 pairs, as many as ``fd_eigenvalue_derivative``'s."""
    plus = solve_spectrum(grid, Potential.from_values(grid, q.values + t * u.values), i + 2)
    minus = solve_spectrum(grid, Potential.from_values(grid, q.values - t * u.values), i + 2)
    return (plus.eigenvalue(i) - minus.eigenvalue(i)) / (2 * t)


def first_variation(spec, i, u):
    """Simple-eigenvalue derivative <u f_i, f_i>_w, written out independently."""
    f = spec.eigenvector(i)
    return spec.grid.inner(u.values * f, f)


class TestMakeDirection:
    def test_mean_zero(self, circle_grid):
        rng = np.random.default_rng(0)
        u = make_direction(circle_grid, rng.standard_normal(256))
        assert abs(mean_value(circle_grid, u.values)) <= 1e-12

    def test_normalized(self, circle_grid):
        u = make_direction(circle_grid, np.cos(circle_grid.coords) * 7.0, normalize=True)
        assert u.sup_norm == pytest.approx(1.0)
        assert np.max(np.abs(u.values)) == pytest.approx(1.0)

    def test_zero_direction_rejected(self, circle_grid, neumann_grid, torus_grid):
        # centering a constant leaves only rounding, which must not be scaled up
        # to a unit direction
        for g in (circle_grid, neumann_grid, torus_grid):
            for c in (-2.5, 0.3, 4.2, 7.0, 1e3):
                with pytest.raises(ValueError):
                    make_direction(g, np.full(g.n_nodes, c), normalize=True)


class TestSimpleDerivative:
    def test_constant_eigenfunction_zero(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        assert abs(one_sided_derivatives(circle_zero_spec, 1, u).right) <= 1e-10

    def test_dirichlet_explicit_direction(self, dirichlet_zero_spec, dirichlet_grid):
        # V * integral(f1^4) - 1 = 3/2 - 1 = 1/2 from the closed form
        # integral of sin^4 over [0, pi] = 3 pi / 8 with f1 = sqrt(2/pi) sin
        f1 = dirichlet_zero_spec.eigenvector(1)
        u = make_direction(dirichlet_grid, dirichlet_grid.volume * f1**2 - 1.0)
        d = one_sided_derivatives(dirichlet_zero_spec, 1, u).right
        assert d > 0
        assert d == pytest.approx(0.5, abs=1e-3)

    def test_matches_finite_difference(self, circle_grid):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(30):
            q = Potential.fourier(circle_grid, rng.standard_normal(3), rng.standard_normal(3))
            (u,) = sample_probes(circle_grid, 1, int(rng.integers(1e9)), "fourier")
            spec = solve_spectrum(circle_grid, q, 7)
            d = one_sided_derivatives(spec, 1, u).right
            if abs(d) < 0.05:
                continue
            fd = central_fd(circle_grid, q, 1, u, 1e-4)
            assert abs(d - fd) <= 1e-6 * abs(d)
            checked += 1
            if checked == 10:
                break
        assert checked >= 5


class TestClusterMatrix:
    def test_circle_cos2x(self, circle_zero_spec, circle_grid):
        # analytic oracle in the basis {cos x, sin x}/sqrt(pi):
        #   (1/pi) * integral cos(2x) cos(x)^2 = +1/2
        #   (1/pi) * integral cos(2x) sin(x)^2 = -1/2, cross term 0
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        cl = detect_cluster(circle_zero_spec, 2)
        slopes = np.linalg.eigvalsh(cluster_matrix(circle_zero_spec, cl, u))
        assert slopes == pytest.approx([-0.5, 0.5], abs=1e-6)

    def test_zero_direction(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.zeros(256))
        cl = detect_cluster(circle_zero_spec, 2)
        M = cluster_matrix(circle_zero_spec, cl, u)
        assert np.max(np.abs(M)) == 0.0

    def test_symmetric(self, circle_zero_spec, circle_grid):
        (u,) = sample_probes(circle_grid, 1, 5, "noise")
        cl = detect_cluster(circle_zero_spec, 2)
        M = cluster_matrix(circle_zero_spec, cl, u)
        assert np.max(np.abs(M - M.T)) <= 1e-12

    def test_singleton_equals_simple(self, dirichlet_zero_spec, dirichlet_grid):
        (u,) = sample_probes(dirichlet_grid, 1, 6, "fourier")
        cl = detect_cluster(dirichlet_zero_spec, 1)
        M = cluster_matrix(dirichlet_zero_spec, cl, u)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(
            first_variation(dirichlet_zero_spec, 1, u), abs=1e-14
        )

    def test_branch_basis_diagonalizes(self, circle_grid):
        # the branch eigenbasis must diagonalize <u g_a, g_b>_w
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = float(rng.uniform(-1, 1))
            spec = solve_spectrum(circle_grid, Potential.constant(circle_grid, c), 6)
            cl = detect_cluster(spec, 2)
            (u,) = sample_probes(circle_grid, 1, int(rng.integers(1e9)), "noise")
            M = cluster_matrix(spec, cl, u)
            _, vecs = np.linalg.eigh(M)
            rotated = vecs.T @ M @ vecs
            off = abs(rotated[0, 1])
            assert off <= 1e-10


class TestOneSidedDerivatives:
    def test_first_of_cluster(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        d = one_sided_derivatives(circle_zero_spec, 2, u)
        assert d.left == pytest.approx(0.5, abs=1e-6)
        assert d.right == pytest.approx(-0.5, abs=1e-6)

    def test_last_of_cluster(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        d = one_sided_derivatives(circle_zero_spec, 3, u)
        assert d.left == pytest.approx(-0.5, abs=1e-6)
        assert d.right == pytest.approx(0.5, abs=1e-6)

    def test_simple_sides_equal(self, dirichlet_zero_spec, dirichlet_grid):
        (u,) = sample_probes(dirichlet_grid, 1, 8, "fourier")
        d = one_sided_derivatives(dirichlet_zero_spec, 2, u)
        assert d.left == d.right
        assert d.left == pytest.approx(first_variation(dirichlet_zero_spec, 2, u), abs=1e-14)

    def test_branch_prediction_quadratic_error(self, circle_grid, circle_zero_spec):
        # lambda_2(q + t u) = lambda_2 + t * (side derivative) + O(t^2) with a
        # stable constant under halving of t
        for seed in range(4):
            (u,) = sample_probes(circle_grid, 1, 100 + seed, "fourier")
            d = one_sided_derivatives(circle_zero_spec, 2, u)
            base = circle_zero_spec.eigenvalue(2)
            constants = {}
            for t in (1e-3, 5e-4):
                shifted = Potential.from_values(circle_grid, t * u.values)
                lam = solve_spectrum(circle_grid, shifted, 6).eigenvalue(2)
                constants[t] = abs(lam - base - t * d.right) / t**2
            if constants[1e-3] > 1e-6:  # above solver noise
                ratio = constants[5e-4] / constants[1e-3]
                assert 0.5 <= ratio <= 2.0

    def test_negative_side_prediction(self, circle_grid, circle_zero_spec):
        (u,) = sample_probes(circle_grid, 1, 321, "fourier")
        d = one_sided_derivatives(circle_zero_spec, 2, u)
        base = circle_zero_spec.eigenvalue(2)
        for t in (1e-3, 1e-4):
            shifted = Potential.from_values(circle_grid, -t * u.values)
            lam = solve_spectrum(circle_grid, shifted, 6).eigenvalue(2)
            # left derivative governs t < 0
            assert abs(lam - (base - t * d.left)) <= 10 * t**2 + 1e-10


class TestCriticalProbe:
    def test_circle_cluster_critical(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        assert one_sided_derivatives(circle_zero_spec, 2, u).opposite_signs

    def test_dirichlet_not_critical(self, dirichlet_zero_spec, dirichlet_grid):
        f1 = dirichlet_zero_spec.eigenvector(1)
        u = make_direction(dirichlet_grid, dirichlet_grid.volume * f1**2 - 1.0)
        assert not one_sided_derivatives(dirichlet_zero_spec, 1, u).opposite_signs

    def test_zero_direction_critical(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.zeros(256))
        assert one_sided_derivatives(circle_zero_spec, 1, u).opposite_signs

    def test_constants_critical_on_circle(self, circle_grid):
        spec = solve_spectrum(circle_grid, Potential.constant(circle_grid, 0.2), 8)
        probes = mixed_probe_suite(circle_grid, 60, 17)
        for i in (1, 2, 3, 4, 5):
            cl = detect_cluster(spec, i)
            rank = cl.rank_of(i)
            first_or_last = rank == 0 or rank == cl.multiplicity - 1
            assert first_or_last
            critical = [one_sided_derivatives(spec, i, u).opposite_signs for u in probes]
            assert all(critical)
            if i >= 2:
                # degeneracy necessity: an index passing every probe is degenerate
                assert cl.multiplicity >= 2


class TestGapDerivatives:
    def test_circle_composed(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        d = gap_one_sided_derivatives(circle_zero_spec, 1, 2, u)
        assert d.right == pytest.approx(-0.5, abs=1e-6)
        assert d.left == pytest.approx(0.5, abs=1e-6)

    def test_zero_direction(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.zeros(256))
        d = gap_one_sided_derivatives(circle_zero_spec, 1, 2, u)
        assert d.left == 0.0 and d.right == 0.0

    def test_same_cluster_rejected(self, circle_zero_spec, circle_grid):
        u = make_direction(circle_grid, np.cos(2 * circle_grid.coords))
        for i, j in ((2, 3), (2, 2)):
            with pytest.raises(DegenerateGapError):
                gap_one_sided_derivatives(circle_zero_spec, i, j, u)

    def test_simple_pair_matches_fd(self, dirichlet_grid):
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(20):
            q = Potential.fourier(dirichlet_grid, rng.standard_normal(3))
            (u,) = sample_probes(dirichlet_grid, 1, int(rng.integers(1e9)), "fourier")
            spec = solve_spectrum(dirichlet_grid, q, 9)
            d = gap_one_sided_derivatives(spec, 1, 2, u)
            assert d.left == pytest.approx(d.right, abs=1e-12)
            expected = first_variation(spec, 2, u) - first_variation(spec, 1, u)
            assert d.right == pytest.approx(expected, abs=1e-12)
            if abs(d.right) < 0.05:
                continue
            fd = (fd_eigenvalue_derivative(dirichlet_grid, q, 2, u, t=1e-4)
                  - fd_eigenvalue_derivative(dirichlet_grid, q, 1, u, t=1e-4))
            assert abs(d.right - fd) <= 1e-6 * abs(d.right)
            checked += 1
            if checked == 5:
                break
        assert checked >= 3


class TestSampleProbes:
    def test_deterministic(self, circle_grid):
        a = sample_probes(circle_grid, 3, 7, "fourier")
        b = sample_probes(circle_grid, 3, 7, "fourier")
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.values, ub.values)

    def test_distinct_seeds(self, circle_grid):
        (a,) = sample_probes(circle_grid, 1, 7, "noise")
        (b,) = sample_probes(circle_grid, 1, 8, "noise")
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("style", ["fourier", "spike", "noise"])
    def test_mean_zero_and_normalized(self, circle_grid, neumann_grid, torus_grid, style):
        for g in (circle_grid, neumann_grid, torus_grid):
            for u in sample_probes(g, 4, 11, style):
                assert abs(mean_value(g, u.values)) <= 1e-12
                assert np.max(np.abs(u.values)) == pytest.approx(1.0)

    def test_bad_style(self, circle_grid):
        with pytest.raises(ValueError):
            sample_probes(circle_grid, 1, 0, "plaid")

    def test_bad_count(self, circle_grid):
        with pytest.raises(ValueError):
            sample_probes(circle_grid, 0, 0, "noise")

    def test_fd_helper_consistency(self, circle_grid):
        # library helper against the locally defined quotient
        q = Potential.fourier(circle_grid, (0.4, 0.1), (0.2,))
        (u,) = sample_probes(circle_grid, 1, 3, "fourier")
        mine = central_fd(circle_grid, q, 1, u, 1e-4)
        theirs = fd_eigenvalue_derivative(circle_grid, q, 1, u, 1e-4)
        assert mine == pytest.approx(theirs, abs=1e-14)


class TestProbeSuite:
    """Probes are drawn one at a time as a pass reaches them."""

    def test_iterating_holds_one_probe(self):
        # a 200-probe list on the 64x64 torus holds 200 x 4096 doubles, 6.6 MB
        grid = build_grid(Torus2D(2.0 * np.pi, 2.0 * np.pi), 64, BoundaryCondition.CLOSED)
        tracemalloc.start()
        try:
            for _ in mixed_probe_suite(grid, 200, 7):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_passes_repeat_and_agree_with_len(self, torus_grid):
        suite = mixed_probe_suite(torus_grid, 31, 29)
        first = [u.values.tobytes() for u in suite]
        assert [u.values.tobytes() for u in suite] == first
        assert len(suite) == len(first) == 31

    def test_bad_input_raises_before_drawing(self, circle_grid):
        with pytest.raises(ValueError, match="count must be >= 1"):
            mixed_probe_suite(circle_grid, 0, 0)
        with pytest.raises(ValueError, match="unknown probe style 'plaid'"):
            sample_probes(circle_grid, 5, 0, "plaid")
