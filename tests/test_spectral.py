import tracemalloc

import numpy as np
import pytest

from specpot import spectral
from specpot.domain import BoundaryCondition, Circle, Interval, Potential, Torus2D, build_grid
from specpot.errors import ConfigError, SolverError
from specpot.spectral import (
    assemble,
    count_eigenvalues_below,
    detect_cluster,
    eigensolve,
    recover_potential,
    solve_spectrum,
    spectrum_with_complete_cluster,
)


def rel_err(a, b):
    return np.abs(a - b) / (1.0 + np.abs(b))


def banded_solve_sizes(monkeypatch) -> list[int]:
    """Records k of each 1-D banded solve from here on."""
    ks = []
    solve = spectral._lowest_pairs_banded

    def counted(grid, H, k, start=None):
        ks.append(k)
        return solve(grid, H, k, start)

    monkeypatch.setattr(spectral, "_lowest_pairs_banded", counted)
    return ks


def sparse_solve_attempts(monkeypatch) -> list[tuple[int, bool]]:
    """Records k and whether it is block Lanczos, of each torus solve from here on."""
    attempts = []
    solve = spectral._lowest_pairs_sparse

    def counted(grid, H, k, block=False):
        attempts.append((k, block))
        return solve(grid, H, k, block)

    monkeypatch.setattr(spectral, "_lowest_pairs_sparse", counted)
    return attempts


class TestAssemble:
    def test_zero_potential(self, circle_grid):
        H = assemble(circle_grid, Potential.zero(circle_grid))
        assert np.array_equal(H.bands, circle_grid.laplacian)

    def test_constant_shift(self, circle_grid):
        c = 1.3
        base = solve_spectrum(circle_grid, Potential.zero(circle_grid), 8)
        shifted = solve_spectrum(circle_grid, Potential.constant(circle_grid, c), 8)
        assert np.max(np.abs(shifted.eigenvalues - base.eigenvalues - c)) <= 1e-9

    def test_symmetry(self, circle_grid):
        rng = np.random.default_rng(0)
        H = assemble(circle_grid, Potential.from_values(circle_grid, rng.standard_normal(256)))
        dense = H.toarray()
        assert np.array_equal(dense, dense.T)


class TestEigensolve:
    def test_circle_low_spectrum(self, circle_zero_spec):
        lam = circle_zero_spec.eigenvalues
        h = 2 * np.pi / 256
        # FD closed form for the lowest modes k = 0, 1, 1, 2, 2, 3
        exact = 4 / h**2 * np.sin(np.pi * np.array([0, 1, 1, 2, 2, 3]) / 256) ** 2
        assert np.max(rel_err(lam[:6], exact)) <= 1e-9
        # continuum values k^2
        assert np.max(rel_err(lam[:6], np.array([0.0, 1, 1, 4, 4, 9]))) <= 1e-3

    def test_neumann_continuum(self):
        g = build_grid(Interval(np.pi), 128, BoundaryCondition.NEUMANN)
        spec = solve_spectrum(g, Potential.zero(g), 3)
        assert np.max(rel_err(spec.eigenvalues, np.array([0.0, 1.0, 4.0]))) <= 1e-3

    def test_dirichlet_continuum(self):
        g = build_grid(Interval(np.pi), 128, BoundaryCondition.DIRICHLET)
        spec = solve_spectrum(g, Potential.zero(g), 3)
        assert np.max(rel_err(spec.eigenvalues, np.array([1.0, 4.0, 9.0]))) <= 1e-3

    def test_w_orthonormal(self, circle_zero_spec):
        F = circle_zero_spec.eigenvectors
        g = circle_zero_spec.grid
        G = (F * g.weight).T @ F
        assert np.max(np.abs(G - np.eye(F.shape[1]))) <= 1e-10

    def test_eigen_residuals(self, circle_grid):
        rng = np.random.default_rng(3)
        q = Potential.from_values(circle_grid, rng.uniform(-2, 2, 256))
        H = assemble(circle_grid, q)
        spec = eigensolve(circle_grid, H, 8, potential=q)
        for i in range(1, 9):
            lam, f = spec.eigenvalue(i), spec.eigenvector(i)
            r = H @ f - lam * f
            res = np.sqrt(circle_grid.inner(r, r))
            assert res <= 1e-8 * (1 + abs(lam))
            # the residual the gate measured, which clusters read. Both sums
            # are roundings of size eps ||H|| here (~1.5e-12), so they agree
            # to 1e-12 (1 + |lambda|) and to 10% of each other, not to the
            # last digit
            assert abs(spec.residuals[i - 1] - res) <= min(0.1 * res, 1e-12 * (1 + abs(lam)))

    def test_constant_potential_same_eigenspaces(self, circle_grid):
        base = solve_spectrum(circle_grid, Potential.zero(circle_grid), 5)
        shifted = solve_spectrum(circle_grid, Potential.constant(circle_grid, 0.9), 5)
        # compare cluster projectors: diagonal shift preserves eigenspaces
        for block in ([0], [1, 2], [3, 4]):
            Fb = base.eigenvectors[:, block]
            Fs = shifted.eigenvectors[:, block]
            Pb = Fb @ (Fb * circle_grid.weight).T
            Ps = Fs @ (Fs * circle_grid.weight).T
            assert np.max(np.abs(Pb - Ps)) <= 1e-9

    def test_shift_equivariance_random(self, circle_grid):
        rng = np.random.default_rng(4)
        for _ in range(5):
            q = Potential.from_values(circle_grid, rng.uniform(-3, 3, 256))
            c = float(rng.uniform(-2, 2))
            qc = Potential.from_values(circle_grid, q.values + c)
            a = solve_spectrum(circle_grid, q, 6).eigenvalues
            b = solve_spectrum(circle_grid, qc, 6).eigenvalues
            assert np.max(np.abs(b - a - c)) <= 1e-9

    def test_ground_state_simple(self, circle_grid, neumann_grid):
        rng = np.random.default_rng(5)
        for g in (circle_grid, neumann_grid):
            for _ in range(10):
                q = Potential.from_values(g, rng.uniform(-3, 3, g.n_nodes))
                spec = solve_spectrum(g, q, 2)
                assert spec.eigenvalue(2) - spec.eigenvalue(1) > 0

    def test_minmax_upper_bound(self, circle_grid, neumann_grid):
        rng = np.random.default_rng(6)
        for g in (circle_grid, neumann_grid):
            for _ in range(50):
                q = Potential.from_values(g, rng.uniform(-3, 3, g.n_nodes))
                lam1 = solve_spectrum(g, q, 1).eigenvalue(1)
                assert lam1 <= q.mean + 1e-9
                assert q.mean - lam1 > 1e-9  # strict for nonconstant q
            c = float(rng.uniform(-1, 1))
            lam1 = solve_spectrum(g, Potential.constant(g, c), 1).eigenvalue(1)
            assert abs(lam1 - c) <= 1e-9

    def test_rayleigh_lower_bound(self, circle_grid):
        rng = np.random.default_rng(7)
        q = Potential.from_values(circle_grid, rng.uniform(-1, 1, 256))
        H = assemble(circle_grid, q)
        lam1 = solve_spectrum(circle_grid, q, 1).eigenvalue(1)
        for _ in range(100):
            v = rng.standard_normal(256)
            quotient = circle_grid.inner(H @ v, v) / circle_grid.inner(v, v)
            assert lam1 <= quotient + 1e-10

    def test_bad_k(self, circle_grid):
        H = assemble(circle_grid, Potential.zero(circle_grid))
        with pytest.raises(ValueError):
            eigensolve(circle_grid, H, 0)

    def test_shape_mismatch(self, circle_grid):
        with pytest.raises(SolverError):
            eigensolve(circle_grid, np.eye(10), 2)

    @pytest.mark.parametrize("fault, message", [("nan", "non-finite"),
                                                ("linalg", "did not converge"),
                                                ("rotated", "eigenpair residual")])
    @pytest.mark.parametrize("solver, grid_name", [("_lowest_pairs_banded", "circle_grid"),
                                                   ("_lowest_pairs_sparse", "torus_grid")])
    def test_solver_fault_is_a_solver_error(self, fault, message, solver, grid_name, request,
                                            monkeypatch):
        # eigensolve is every solver's one gate; a NaN in one eigenvector
        # column would pass a residual test written as "any residual above the
        # bound". A first column rotated by 1e-6 toward the top one keeps
        # every value, so the count agrees and only the residual catches it.
        grid = request.getfixturevalue(grid_name)
        solve = getattr(spectral, solver)

        def faulty(grid, H, k, **kwargs):
            if fault == "linalg":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            evals, evecs = solve(grid, H, k, **kwargs)
            if fault == "rotated":
                evecs[:, 0] = np.cos(1e-6) * evecs[:, 0] + np.sin(1e-6) * evecs[:, -1]
            else:
                evecs[:, 1] = np.nan
            return evals, evecs

        monkeypatch.setattr(spectral, solver, faulty)
        with pytest.raises(SolverError, match=message):
            eigensolve(grid, assemble(grid, Potential.zero(grid)), 4)


class TestDetectCluster:
    def test_circle_double(self, circle_zero_spec):
        cl = detect_cluster(circle_zero_spec, 2)
        assert (cl.first_index, cl.multiplicity) == (2, 2)
        assert cl.complete
        cl3 = detect_cluster(circle_zero_spec, 3)
        assert (cl3.first_index, cl3.multiplicity) == (2, 2)

    def test_simple_ground_state(self, dirichlet_zero_spec):
        cl = detect_cluster(dirichlet_zero_spec, 1)
        assert (cl.first_index, cl.multiplicity) == (1, 1)

    def test_truncation_flag(self, circle_grid):
        # the double eigenvalue 1 fills pairs 2 and 3, the last computed; the
        # solve's count stops below it, so nothing rules out a third copy
        spec = solve_spectrum(circle_grid, Potential.zero(circle_grid), 3)
        cl = detect_cluster(spec, 3)
        assert not cl.complete

    def test_complete_cluster_resolve(self, monkeypatch):
        # the 8-fold cluster 14..21 of the zero potential on the 16 x 16
        # square torus does not fit in the first solve's 20 pairs; the count
        # at its edge finds 21 eigenvalues, and the block Lanczos re-solve of
        # 27 pairs holds all 8 copies (ARPACK misses one at 27)
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 16, BoundaryCondition.CLOSED)
        attempts = sparse_solve_attempts(monkeypatch)
        spec, cl = spectrum_with_complete_cluster(g, Potential.zero(g), 14)
        assert attempts == [(20, False), (27, True)]
        assert spec.count == 27
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == (14, 8)

    def test_count_miss_then_incomplete_cluster(self, monkeypatch):
        # both retries in one request. The first attempt is ARPACK's 21 pairs
        # (seven copies of the 8-fold cluster 14..21, then lambda_22) less a
        # copy of lambda_2's 4-fold cluster: the count below lambda_22 finds
        # 21 eigenvalues where the attempt holds 19. Block Lanczos re-solves
        # 21 + 6 = 27 pairs and keeps 20, which leaves the cluster past the
        # pairs returned, so the count at its edge widens the spectrum to
        # 21 + 6 = 27, and block Lanczos at 27 ends the request on its third
        # attempt
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 16, BoundaryCondition.CLOSED)
        solve = spectral._lowest_pairs_sparse
        attempts = []

        def dropping(grid, H, k, block=False):
            attempts.append((k, block))
            if len(attempts) > 1:
                return solve(grid, H, k, block)
            evals, evecs = solve(grid, H, k + 1)
            return np.delete(evals, 1), np.delete(evecs, 1, axis=1)

        monkeypatch.setattr(spectral, "_lowest_pairs_sparse", dropping)
        spec, cl = spectrum_with_complete_cluster(g, Potential.zero(g), 14)
        assert attempts == [(20, False), (27, True), (27, True)]
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == (14, 8)
        assert spec.count == 27

    def test_tiny_side_block_basis_no_wider(self, monkeypatch):
        # the torus shift scales with -Laplacian_h's first nonzero eigenvalue,
        # so a direct 27-pair block solve of the zero torus of side 0.001
        # grows no wider a basis than on the 2 pi torus (406 of 1024 columns
        # each; a shift of 1 grew it to 1015), and its eigenvalues are the
        # 2 pi torus's scaled by (2 pi / 0.001)^2. The basis starts with
        # k + 2 columns and takes one more per solve with the factor
        solved = []
        lu = spectral._symmetric_lu

        class Counted:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, rhs):
                solved.append(1)
                return self.factor.solve(rhs)

        monkeypatch.setattr(spectral, "_symmetric_lu", lambda H, x: Counted(lu(H, x)))
        widths, scaled = [], []
        for side in (2 * np.pi, 0.001):
            g = build_grid(Torus2D(side, side), 32, BoundaryCondition.CLOSED)
            solved.clear()
            evals, _ = spectral._lowest_pairs_sparse(g, assemble(g, Potential.zero(g)), 27,
                                                     block=True)
            widths.append(min(g.n_nodes, 27 + 2 + len(solved)))
            scaled.append(evals * (side / (2 * np.pi)) ** 2)
        assert widths[1] <= widths[0] < 1024
        assert np.max(rel_err(scaled[1], scaled[0])) <= 1e-10

    def test_whole_spectrum_cluster_complete(self):
        # i + 2 reaches all 8 nodes: one solve computes the whole spectrum,
        # so every cluster is complete, the top one included
        g = build_grid(Circle(), 8, BoundaryCondition.CLOSED)
        spec, cl = spectrum_with_complete_cluster(g, Potential.zero(g), 6)
        assert spec.count == g.n_nodes
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == (6, 2)
        assert detect_cluster(spec, g.n_nodes).complete

    def test_large_norm_grid_proves_only_what_it_resolves(self, monkeypatch):
        # a circle of length 0.001 at n = 2000 has ||H|| ~ 1.6e13: lambda_1 = 1
        # comes back with an error ~4x its cluster tolerance of 2e-6, and the
        # measured residuals (~4e-3) say so, so no count proves its cluster
        # complete; more pairs cannot mend that, so the first solve's failure
        # is reported as one of accuracy. lambda_2's cluster, tolerance ~39,
        # is resolved
        g = build_grid(Circle(0.001), 2000, BoundaryCondition.CLOSED)
        q = Potential.constant(g, 1.0)
        attempts = banded_solve_sizes(monkeypatch)
        with pytest.raises(SolverError, match="does not prove the cluster of index 1") as err:
            spectrum_with_complete_cluster(g, q, 1)
        assert "residuals" in str(err.value)
        assert len(attempts) == 1
        spec, cl = spectrum_with_complete_cluster(g, q, 2)
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == (2, 2)
        assert np.sqrt(spec.count) * np.max(spec.residuals) < 1e-3 * cl.tol_used

    @pytest.mark.parametrize("bc, i, cluster", [
        (BoundaryCondition.CLOSED, 2, (2, 2)), (BoundaryCondition.CLOSED, 3, (2, 2)),
        (BoundaryCondition.NEUMANN, 2, (2, 1))])
    def test_one_d_cluster_takes_i_plus_2(self, bc, i, cluster, monkeypatch):
        # no eigenvalue of a (periodic) Jacobi matrix is more than double, so
        # one solve of i + 2 pairs proves the 1-D cluster of i complete: the
        # circle's double eigenvalue 1 from either of its indices, and the
        # simple second Neumann eigenvalue
        g = build_grid(Interval(np.pi) if bc is BoundaryCondition.NEUMANN else Circle(), 256, bc)
        ks = banded_solve_sizes(monkeypatch)
        spec, cl = spectrum_with_complete_cluster(g, Potential.constant(g, 0.3), i)
        assert ks == [i + 2]
        assert spec.count == i + 2
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == cluster

    def test_near_triple_cluster_resolved(self, monkeypatch):
        # q = 100 cos 3x has three wells on the circle: lambda_1..lambda_3 lie
        # within 4e-8 (1 + |lambda_1|) of each other, a cluster wider than the
        # 1-D headroom. The first solve's 3 pairs cannot prove it; the count
        # at its edge finds 3 eigenvalues and the re-solve takes 3 + 2 pairs.
        g = build_grid(Circle(), 256, BoundaryCondition.CLOSED)
        q = Potential.from_values(g, 100.0 * np.cos(3.0 * g.coords))
        ks = banded_solve_sizes(monkeypatch)
        spec, cl = spectrum_with_complete_cluster(g, q, 1)
        assert ks == [3, 5]
        assert cl.complete
        assert (cl.first_index, cl.multiplicity) == (1, 3)
        edge = cl.value + cl.tol_used
        assert count_eigenvalues_below(assemble(g, q), edge) == 3


class TestTorusSparse:
    def test_closed_form_spectrum_128(self):
        n, c = 128, 0.4
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), n, BoundaryCondition.CLOSED)
        spec = solve_spectrum(g, Potential.constant(g, c), 12)
        s = np.sin(np.pi * np.arange(n) / n) ** 2
        h = g.spacing[0]
        exact = np.sort(c + 4.0 / h**2 * (s[:, None] + s[None, :]).ravel())[:12]
        assert np.max(rel_err(spec.eigenvalues, exact)) <= 1e-10

    def test_operator_is_sparse(self, torus_grid):
        H = assemble(torus_grid, Potential.constant(torus_grid, 0.5))
        assert H.format == "csc"
        assert H.nnz == 5 * torus_grid.n_nodes

    def test_no_dense_operator_64(self, torus_grid):
        # a dense 4096 x 4096 operator alone would take 134 MB
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 64, BoundaryCondition.CLOSED)
        q = Potential.constant(g, 0.1)
        # load scipy first, so only the solve's own allocations are traced
        spectrum_with_complete_cluster(torus_grid, Potential.zero(torus_grid), 2)
        tracemalloc.start()
        try:
            spec, cluster = spectrum_with_complete_cluster(g, q, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cluster.multiplicity == 4
        assert peak < 50e6

    def test_k_above_half_rejected(self, torus_grid):
        q = Potential.zero(torus_grid)
        assert solve_spectrum(torus_grid, q, 128).count == 128
        with pytest.raises(ConfigError, match="at most n // 2 = 128"):
            solve_spectrum(torus_grid, q, 129)

    def test_widening_past_half_rejected(self):
        # at q = 0 on the 8 x 8 torus lambda_26..lambda_39 are one 14-fold
        # cluster (4/h^2 from three kinds of mode); the first solve's 26 + 6
        # = 32 pairs cannot hold it, and the 39 + 6 the count widens to
        # exceed 64 // 2
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 8, BoundaryCondition.CLOSED)
        with pytest.raises(ConfigError, match="at most n // 2 = 32 eigenpairs, asked for 45"):
            spectrum_with_complete_cluster(g, Potential.zero(g), 26)

    def test_edge_count_reuses_solve_count(self, monkeypatch):
        # one factorization at sigma for the solve, one for its top-cluster
        # count; the cluster's edge lies below that count, so none for it
        g = build_grid(Torus2D(2 * np.pi, 2 * np.pi), 32, BoundaryCondition.CLOSED)
        factorizations = []
        lu = spectral._symmetric_lu

        def counted(H, x):
            factorizations.append(x)
            return lu(H, x)

        monkeypatch.setattr(spectral, "_symmetric_lu", counted)
        spec, cluster = spectrum_with_complete_cluster(g, Potential.constant(g, 0.3), 2)
        assert (cluster.first_index, cluster.multiplicity) == (2, 4)
        assert len(factorizations) == 2

    def test_count_disagreement_raises(self, torus_grid, monkeypatch):
        # an eigenvalue the solve never finds is an error, not a smaller
        # cluster; once the attempts run out, the error names the cluster
        count = spectral.count_eigenvalues_below
        monkeypatch.setattr(spectral, "count_eigenvalues_below", lambda H, x: count(H, x) + 1)
        attempts = sparse_solve_attempts(monkeypatch)
        with pytest.raises(SolverError, match="eigenvalues lie below") as err:
            spectrum_with_complete_cluster(torus_grid, Potential.zero(torus_grid), 2)
        assert "the cluster of index 2 is not proven complete" in str(err.value)
        assert len(attempts) == 4


class TestRecoverPotential:
    def test_constant_frame(self, circle_grid):
        frame = [np.ones(circle_grid.n_nodes)]
        rec = recover_potential(circle_grid, frame, 0.7)
        assert np.max(np.abs(rec.values - 0.7)) <= 1e-12

    def test_circle_pair(self, circle_grid, neumann_grid):
        # analytic frame cos x, sin x: squares sum to 1 pointwise exactly
        c = 0.4
        spec = solve_spectrum(circle_grid, Potential.constant(circle_grid, c), 4)
        frame = [np.cos(circle_grid.coords), np.sin(circle_grid.coords)]
        rec = recover_potential(circle_grid, frame, spec.eigenvalue(2))
        assert np.max(np.abs(rec.values - c)) <= 1e-3
        # on the interval |grad|^2 = 1 gives q = 1 - 1 = 0; its worst node is
        # an end node, where the gradient takes the one-sided stencil
        frame = [np.cos(neumann_grid.coords), np.sin(neumann_grid.coords)]
        rec = recover_potential(neumann_grid, frame, 1.0)
        assert np.max(np.abs(rec.values)) <= 1e-3
        assert np.argmax(np.abs(rec.values)) in (0, neumann_grid.n_nodes - 1)

    def test_violating_frame_rejected(self, circle_grid):
        frame = [np.cos(circle_grid.coords) * 1.05, np.sin(circle_grid.coords)]
        with pytest.raises(ValueError):
            recover_potential(circle_grid, frame, 1.0)

    def test_torus_constant_frame(self, torus_grid):
        frame = [np.ones(torus_grid.n_nodes)]
        rec = recover_potential(torus_grid, frame, -0.2)
        assert np.max(np.abs(rec.values + 0.2)) <= 1e-12
