"""The banded interval and circle eigensolve against a dense eigendecomposition.

The reference is the decomposition the 1-D domains used before their
operators became banded: ``np.linalg.eigh`` of the assembled matrix, which
sees the whole spectrum. It is kept here only as a test oracle. Degenerate
eigenspaces are compared through their w-orthogonal projectors, since the
bases inside a cluster are arbitrary.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpot import banded, spectral
from specpot.certificates import criticality_certificate
from specpot.domain import BoundaryCondition, Circle, Interval, Potential, build_grid
from specpot.spectral import (
    SpectralData,
    assemble,
    count_eigenvalues_below,
    detect_cluster,
    eigensolve,
    solve_spectra,
    spectrum_with_complete_cluster,
)
from specpot.verify import _circle

DOMAINS = {
    "circle": (Circle(2.0 * np.pi), BoundaryCondition.CLOSED),
    "neumann": (Interval(np.pi), BoundaryCondition.NEUMANN),
    "dirichlet": (Interval(np.pi), BoundaryCondition.DIRICHLET),
}
POTENTIALS = ("zero", "constant", "low-mode", "box-clipped", "uniform")


def make_potential(grid, kind, seed) -> Potential:
    rng = np.random.default_rng(seed)
    x = 2.0 * np.pi * np.arange(grid.n_nodes) / grid.n_nodes
    if kind == "zero":
        return Potential.zero(grid)
    if kind == "constant":
        return Potential.constant(grid, rng.uniform(-2.0, 2.0))
    modes = sum(a * np.cos(m * x) + b * np.sin(m * x)
                for m, (a, b) in enumerate(rng.uniform(-1.0, 1.0, (3, 2)), start=1))
    if kind == "low-mode":
        return Potential.from_values(grid, modes)
    if kind == "box-clipped":
        return Potential.from_values(grid, np.clip(4.0 * modes, -1.5, 1.5))
    return Potential.from_values(grid, rng.uniform(-3.0, 3.0, grid.n_nodes))


def dense_oracle(grid, q) -> SpectralData:
    """Whole spectrum from a dense decomposition, w-orthonormal eigenvectors."""
    evals, evecs = np.linalg.eigh(assemble(grid, q).toarray())
    return SpectralData(evals, evecs / np.sqrt(grid.weight), grid, q)


def projector(spec, cluster):
    # the top computed cluster may be unproven, so slice the columns directly
    lo = cluster.first_index - 1
    F = spec.eigenvectors[:, lo : lo + cluster.multiplicity]
    return F @ (F * spec.grid.weight).T


def assert_matches(spec, oracle):
    """Equal eigenvalues, multiplicities and projectors of every dense cluster
    lying wholly inside the computed pairs."""
    lam = oracle.eigenvalues[:spec.count]
    assert np.max(np.abs(spec.eigenvalues - lam) / (1.0 + np.abs(lam))) <= 1e-10
    assert_eigenspaces_match(spec, oracle)


def assert_eigenspaces_match(spec, oracle):
    """Equal multiplicities and projectors of every dense cluster lying wholly
    inside the computed pairs."""
    k = spec.count
    i = 1
    while i <= k:
        dense = detect_cluster(oracle, i)
        if dense.last_index <= k:
            banded = detect_cluster(spec, i)
            assert (banded.first_index, banded.multiplicity) == (dense.first_index,
                                                                 dense.multiplicity)
            assert np.max(np.abs(projector(spec, banded) - projector(oracle, dense))) <= 1e-8
        i = dense.last_index + 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    domain=st.sampled_from(sorted(DOMAINS)),
    n=st.integers(8, 512),
    potential=st.sampled_from(POTENTIALS),
    seed=st.integers(0, 2**16),
    i=st.integers(1, 6),
    x_frac=st.floats(0.0, 1.0),
)
@example(domain="circle", n=256, potential="zero", seed=0, i=2, x_frac=0.5)
@example(domain="circle", n=512, potential="constant", seed=1, i=4, x_frac=0.3)
@example(domain="neumann", n=256, potential="constant", seed=2, i=1, x_frac=0.7)
@example(domain="dirichlet", n=8, potential="uniform", seed=3, i=6, x_frac=0.9)
def test_banded_matches_dense(domain, n, potential, seed, i, x_frac):
    kind, bc = DOMAINS[domain]
    grid = build_grid(kind, n, bc)
    q = make_potential(grid, potential, seed)
    oracle = dense_oracle(grid, q)
    spec, cluster = spectrum_with_complete_cluster(grid, q, i)
    assert_matches(spec, oracle)

    dense_cluster = detect_cluster(oracle, i)
    assert cluster.complete
    assert (cluster.first_index, cluster.multiplicity) == (
        dense_cluster.first_index, dense_cluster.multiplicity)
    assert (criticality_certificate(spec, cluster).status
            is criticality_certificate(oracle, dense_cluster).status)

    H = assemble(grid, q)
    lam = oracle.eigenvalues
    x = lam[0] - 1.0 + x_frac * (lam[-1] - lam[0] + 2.0)
    if np.min(np.abs(lam - x)) > 1e-8 * (1.0 + abs(x)):
        assert count_eigenvalues_below(H, x) == int(np.count_nonzero(lam < x))

    again = eigensolve(grid, H, spec.count, potential=q)
    assert again.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
    assert again.eigenvectors.tobytes() == spec.eigenvectors.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    domain=st.sampled_from(sorted(DOMAINS)),
    n=st.integers(8, 512),
    potential=st.sampled_from(POTENTIALS),
    seed=st.integers(0, 2**16),
    k_frac=st.floats(0.0, 1.0),
)
@example(domain="circle", n=64, potential="zero", seed=0, k_frac=1.0)
@example(domain="neumann", n=200, potential="uniform", seed=5, k_frac=1.0)
@example(domain="dirichlet", n=130, potential="box-clipped", seed=6, k_frac=0.6)
def test_any_k_matches_dense(domain, n, potential, seed, k_frac):
    kind, bc = DOMAINS[domain]
    grid = build_grid(kind, n, bc)
    q = make_potential(grid, potential, seed)
    k = 1 + int(k_frac * (n - 1))
    spec = eigensolve(grid, assemble(grid, q), k, potential=q)
    assert spec.count == k
    oracle = dense_oracle(grid, q)
    assert_matches(spec, oracle)
    for i in range(1, k + 1):
        # a cluster proven complete is the whole dense cluster
        cluster, dense = detect_cluster(spec, i), detect_cluster(oracle, i)
        assert not cluster.complete or (cluster.first_index, cluster.multiplicity) == (
            dense.first_index, dense.multiplicity)


def test_missed_copy_recovered(monkeypatch):
    # a first solve that loses one copy of the double eigenvalue 1 of the
    # circle returns 0, 1, 4, 4, 9 at k = 5; the Sturm count below its top
    # cluster finds five eigenvalues where it holds four, and the seeded
    # re-solve, which passes through the same solver, takes 2 pairs more than
    # that count (the 1-D headroom) and recovers. At k = 4 the re-solve takes
    # 6 pairs, and its count covers both copies of the double eigenvalue 4
    # while only the first is kept: the dropped copy bounds complete_below,
    # so cluster 4 is not proven complete.
    grid = build_grid(Circle(2.0 * np.pi), 128, BoundaryCondition.CLOSED)
    q = Potential.zero(grid)
    oracle = dense_oracle(grid, q)
    solve = spectral._lowest_pairs_banded
    calls = []

    def lossy(grid, H, k, start=None, seeded=False):
        calls.append((k, seeded))
        evals, evecs = solve(grid, H, k + 1, start, seeded)
        if seeded:
            return evals[:k], evecs[:, :k]
        keep = [j for j in range(k + 1) if j != 2]
        return evals[keep], evecs[:, keep]

    monkeypatch.setattr(spectral, "_lowest_pairs_banded", lossy)
    for k, solves in ((5, [(5, False), (7, True)]), (4, [(4, False), (6, True)])):
        calls.clear()
        spec = eigensolve(grid, assemble(grid, q), k, potential=q)
        assert calls == solves
        assert_matches(spec, oracle)
        assert oracle.eigenvalues[k] >= spec.complete_below
    assert not detect_cluster(spec, 4).complete


def test_rejected_modes_attempt_recovered_seeded(monkeypatch):
    # q = -1e5 at one node of the 64-node circle, a narrow deep well. The
    # first attempt starts from the Laplacian's modes, which barely overlap
    # the well's ground state, and stops at the ground pair's residual of
    # ~6.5e-6, inside 1e-10 (1 + |lambda_1|) = 1e-5. The Sturm count covers
    # the edge of lambda_2's cluster, but that residual is more than its
    # tolerance 1.25e-6 and cannot resolve the edge, so the gate rejects the
    # attempt. The seeded cold re-solve of 4 + 2 pairs converges the ground
    # pair to ~5e-11 and proves the cluster.
    grid = build_grid(Circle(2.0 * np.pi), 64, BoundaryCondition.CLOSED)
    values = np.zeros(64)
    values[23] = -1e5
    q = Potential.from_values(grid, values)
    solve = spectral._lowest_pairs_banded
    calls, residuals = [], []

    def recorded(grid, H, k, start=None, seeded=False):
        calls.append((k, seeded))
        evals, evecs = solve(grid, H, k, start, seeded)
        residuals.append(np.linalg.norm(H @ evecs - evecs * evals, axis=0))
        return evals, evecs

    monkeypatch.setattr(spectral, "_lowest_pairs_banded", recorded)
    spec, cluster = spectrum_with_complete_cluster(grid, q, 2)
    assert calls == [(4, False), (6, True)]
    assert residuals[0][0] > cluster.tol_used > 1e3 * np.max(spec.residuals)
    assert cluster.complete and (cluster.first_index, cluster.multiplicity) == (2, 1)
    assert_matches(spec, dense_oracle(grid, q))


def first_attempt_flags(monkeypatch) -> list[bool]:
    """Records, for each banded solve from here on, whether it started from a
    given block (a first attempt's modes or warm start) rather than the
    seeded block of a retry."""
    flags = []
    solve = banded.lowest_pairs

    def recorded(bands, k, seed, start=None):
        flags.append(start is not None)
        return solve(bands, k, seed, start)

    monkeypatch.setattr(banded, "lowest_pairs", recorded)
    return flags


def assert_count_agrees(grid, q, spec):
    """The Sturm count at complete_below finds exactly the pairs solved below it."""
    x = spec.complete_below
    assert count_eigenvalues_below(assemble(grid, q), x) == int(np.count_nonzero(
        spec.eigenvalues < x))


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("potential", ["constant", "low-mode", "uniform"])
def test_warm_start_matches_dense(domain, potential, monkeypatch):
    # an optimizer-sized move away from the start's potential and back: each
    # warm solve passes the count without a re-solve and matches the dense
    # oracle at the cold solve's tolerances, both where the move splits the
    # double eigenvalues of the constant circle and where it lands on them
    kind, bc = DOMAINS[domain]
    grid = build_grid(kind, 256, bc)
    q = make_potential(grid, potential, 3)
    start, _ = spectrum_with_complete_cluster(grid, q, 2)
    moved = Potential.from_values(grid, q.values + 0.1 * make_potential(grid, "low-mode", 4).values)
    flags = first_attempt_flags(monkeypatch)
    for target in (moved, q):
        start, cluster = spectrum_with_complete_cluster(grid, target, 2, start)
        oracle = dense_oracle(grid, target)
        assert_matches(start, oracle)
        dense_cluster = detect_cluster(oracle, 2)
        assert cluster.complete
        assert (cluster.first_index, cluster.multiplicity) == (
            dense_cluster.first_index, dense_cluster.multiplicity)
        assert_count_agrees(grid, target, start)
    assert flags == [True, True]


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_warm_start_without_ground_state_is_resolved_cold(domain, monkeypatch):
    # a start of the exact eigenvectors of lambda_2..lambda_8, padded with
    # the oracle's eigenvectors of lambda_5 and lambda_6 in place of the
    # Laplacian's modes (the modes overlap the ground state, and with them
    # the first attempt may find it itself): the first attempt's block holds
    # no ground state and converges at once to lambda_2..lambda_4; the count
    # below them finds four eigenvalues, and the cold re-solve from the
    # seeded block recovers the ground state
    kind, bc = DOMAINS[domain]
    grid = build_grid(kind, 256, bc)
    q = make_potential(grid, "low-mode", 5)
    oracle = dense_oracle(grid, q)
    bad = SpectralData(oracle.eigenvalues[1:8], oracle.eigenvectors[:, 1:8], grid, q)
    assert_matches(spectrum_with_complete_cluster(grid, q, 1, bad)[0], oracle)
    excited = oracle.eigenvectors[:, 1:] * np.sqrt(grid.weight)
    monkeypatch.setattr(spectral, "laplacian_modes", lambda grid, p: excited[:, :p])
    flags = first_attempt_flags(monkeypatch)
    spec, cluster = spectrum_with_complete_cluster(grid, q, 1, bad)
    assert flags == [True, False]
    assert_matches(spec, oracle)
    assert cluster.complete and (cluster.first_index, cluster.multiplicity) == (1, 1)
    assert_count_agrees(grid, q, spec)


def test_cluster_resolve_is_cold(monkeypatch):
    # q = 100 cos 3x: lambda_1..lambda_3 form one cluster, wider than the
    # first solve's 1 + 2 pairs. A start of 5 pairs makes that solve warm;
    # the re-solve of 3 + 2 pairs after the incomplete cluster ignores the
    # start and the modes, so it equals the seeded cold solve of its size
    # bit for bit
    grid = build_grid(Circle(), 256, BoundaryCondition.CLOSED)
    q = Potential.from_values(grid, 100.0 * np.cos(3.0 * grid.coords))
    nearby = Potential.from_values(grid, q.values + 0.01 * np.cos(grid.coords))
    start = eigensolve(grid, assemble(grid, nearby), 5, potential=nearby)
    flags = first_attempt_flags(monkeypatch)
    spec, cluster = spectrum_with_complete_cluster(grid, q, 1, start)
    assert flags == [True, False]
    assert cluster.complete and (cluster.first_index, cluster.multiplicity) == (1, 3)
    assert spec.count == 5
    H = assemble(grid, q)
    seeded = eigensolve(grid, H, 5, potential=q,
                        first=spectral._lowest_pairs_banded(grid, H, 5, seeded=True))
    assert_same_bits(spec, seeded)


@pytest.mark.parametrize("domain", ["circle", "neumann"])
def test_small_length_matches_dense(domain):
    # At length 1e-2 over 64 nodes ||H|| is 1.6e8, and rounding in H f alone
    # leaves the ground pair a residual of ~4e-8 (1 + |lambda|), above
    # RESIDUAL_TOL: the solve is accepted under the floor 8 eps ||H||. Dense
    # eigh is itself off by ~eps ||H|| there (-1.1e-8 for lambda_1 = 0), so the
    # eigenvalues are held to the closed form (4/h^2) sin^2(k pi / n) on the
    # circle and sin^2(k pi / 2n) on the Neumann interval, the eigenspaces to
    # the dense oracle.
    kind, bc = DOMAINS[domain]
    n = 64
    grid = build_grid(type(kind)(1e-2), n, bc)
    q = Potential.zero(grid)
    spec, cluster = spectrum_with_complete_cluster(grid, q, 2)
    assert cluster.complete
    h = grid.spacing[0]
    periods = 1.0 if domain == "circle" else 2.0
    exact = np.sort(4.0 / h**2 * np.sin(np.pi * np.arange(n) / (periods * n)) ** 2)
    lam = exact[:spec.count]
    assert np.max(np.abs(spec.eigenvalues - lam) / (1.0 + lam)) <= 1e-10
    assert_eigenspaces_match(spec, dense_oracle(grid, q))


def assert_same_bits(spec, other):
    assert spec.eigenvalues.tobytes() == other.eigenvalues.tobytes()
    assert spec.eigenvectors.tobytes() == other.eigenvectors.tobytes()
    assert spec.complete_below == other.complete_below


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    domain=st.sampled_from(sorted(DOMAINS)),
    n=st.integers(8, 512),
    rough=st.lists(st.sampled_from(POTENTIALS), max_size=7),
    at=st.integers(0, 7),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 7),
)
@example(domain="circle", n=256, rough=["uniform"] * 7, at=3, seed=0, k=2)
@example(domain="neumann", n=8, rough=["uniform", "zero"], at=0, seed=1, k=7)
def test_group_solve_matches_dense_and_single(domain, n, rough, at, seed, k):
    # a group of one to eight potentials, a constant one (double pairs on
    # the circle) among them, solved by one batched first solve: each member
    # matches the dense oracle and is bit for bit its own single solve
    kind, bc = DOMAINS[domain]
    grid = build_grid(kind, n, bc)
    kinds = rough[:at] + ["constant"] + rough[at:]
    potentials = [make_potential(grid, name, seed + j) for j, name in enumerate(kinds)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(banded, "group_size", lambda n, k: len(potentials))
        spectra = solve_spectra(grid, potentials, k)
    for q, spec in zip(potentials, spectra):
        assert_matches(spec, dense_oracle(grid, q))
        assert_same_bits(spec, eigensolve(grid, assemble(grid, q), k, potential=q))


def test_group_missed_copy_resolved_cold(monkeypatch):
    # the batched first solve loses a copy of the double eigenvalue 1 of the
    # circle for member 1 (q = 0) only, as in test_missed_copy_recovered: its
    # Sturm count finds five eigenvalues where it holds four, and it alone is
    # re-solved cold with 7 pairs; the others keep their batched pairs
    grid = build_grid(Circle(2.0 * np.pi), 128, BoundaryCondition.CLOSED)
    potentials = [make_potential(grid, "uniform", 1), Potential.zero(grid),
                  make_potential(grid, "low-mode", 2)]
    solve = banded.lowest_pairs
    groups, singles = [], []

    def lossy(bands, k, seed, start=None):
        if bands.ndim == 2:
            singles.append(k)
            return solve(bands, k, seed, start)
        groups.append(len(bands))
        evals, evecs = solve(bands, k, seed, start)
        more, vecs = solve(bands[1], k + 1, seed)
        keep = [j for j in range(k + 1) if j != 2]
        evals[1], evecs[1] = more[keep], vecs[:, keep]
        return evals, evecs

    monkeypatch.setattr(banded, "lowest_pairs", lossy)
    spectra = solve_spectra(grid, potentials, 5)
    assert (groups, singles) == ([3], [7])
    monkeypatch.undo()
    for j, (q, spec) in enumerate(zip(potentials, spectra)):
        assert_matches(spec, dense_oracle(grid, q))
        if j != 1:
            assert_same_bits(spec, eigensolve(grid, assemble(grid, q), 5, potential=q))


def test_failed_group_is_solved_one_by_one(monkeypatch):
    grid = build_grid(Interval(np.pi), 64, BoundaryCondition.NEUMANN)
    potentials = [make_potential(grid, "uniform", j) for j in range(3)]
    solve = banded.lowest_pairs
    shapes = []

    def failing(bands, k, seed, start=None):
        shapes.append(bands.shape)
        if bands.ndim == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(bands, k, seed, start)

    monkeypatch.setattr(banded, "lowest_pairs", failing)
    spectra = solve_spectra(grid, potentials, 2)
    assert shapes == [(3, 2, 64)] + [(2, 64)] * 3
    monkeypatch.undo()
    for q, spec in zip(potentials, spectra):
        assert_same_bits(spec, eigensolve(grid, assemble(grid, q), 2, potential=q))


def test_group_size_does_not_change_bits(monkeypatch):
    # thm11's 50 seed-7 circle potentials in groups of 1, 5 and 50: nothing
    # in a group solve is decided over the group, so the bits agree
    grid = _circle()
    rng = np.random.default_rng([7, 11])
    potentials = [Potential.from_values(grid, rng.uniform(-3.0, 3.0, grid.n_nodes))
                  for _ in range(50)]
    runs = []
    for size in (1, 5, 50):
        monkeypatch.setattr(banded, "group_size", lambda n, k: size)
        runs.append(solve_spectra(grid, potentials, 2))
    for first, *others in zip(*runs):
        for other in others:
            assert_same_bits(first, other)


def record_row_solves(monkeypatch):
    """The (rows, systems) shape of every ``banded._row_solve`` call from now on."""
    shapes = []
    row_solve = banded._row_solve

    def recorded(d, e, b, tiny):
        shapes.append(d.shape)
        return row_solve(d, e, b, tiny)

    monkeypatch.setattr(banded, "_row_solve", recorded)
    return shapes


def test_reduction_guard_is_taken_per_system(monkeypatch):
    # system 0's shift is member 0's own diagonal entry at node 2, so a pivot
    # of its first reduction step vanishes: it alone goes to the pivoted row
    # solve, while its sibling at shift 0.3 and member 1's system reduce to
    # the end. Each system's solution is bit for bit that of its solve alone.
    grid = build_grid(Circle(2.0 * np.pi), 64, BoundaryCondition.CLOSED)
    bands = np.stack([assemble(grid, make_potential(grid, "uniform", j)).bands for j in (3, 4)])
    diag, off = bands[:, 0], bands[0, 1]
    owner = np.array([0, 0, 1])
    shifts = np.array([diag[0, 2], 0.3, 0.3])
    rhs = np.random.default_rng(5).standard_normal((3, 64, 1))
    norm = banded._norm_bound(bands)[owner]
    row_solves = record_row_solves(monkeypatch)
    together = banded.shifted_solve(diag[owner] - shifts[:, None], off, rhs, norm)
    assert row_solves == [(63, 1)]
    for j in range(3):
        alone = banded.shifted_solve(diag[owner[j], None] - shifts[j], off, rhs[j, None],
                                     norm[j, None])
        assert together[j].tobytes() == alone[0].tobytes()
        dense = banded.BandedOperator(bands[owner[j]]).toarray() - shifts[j] * np.eye(64)
        assert np.allclose(dense @ together[j], rhs[j], rtol=0.0, atol=1e-8)


def test_padded_large_norm_path_reduces(monkeypatch):
    # n = 1000 pads the 999-node path to 1023 rows, and ||H|| ~ 4e8 puts the
    # guard near 6: the padding rows' pivots (the diagonal ||H||) never stop
    # a reduction, so only systems at a vanishing pivot of their own reach
    # the row solve, a row or two each, not the whole path.
    grid = build_grid(Circle(0.1), 1000, BoundaryCondition.CLOSED)
    q = Potential.from_values(grid, np.cos(2.0 * np.pi * np.arange(1000) / 1000))
    row_solves = record_row_solves(monkeypatch)
    spec, cluster = spectrum_with_complete_cluster(grid, q, 2)
    assert cluster.complete
    assert sum(rows for rows, _ in row_solves) <= 8
    oracle = dense_oracle(grid, q)
    norm = float(banded._norm_bound(assemble(grid, q).bands))
    error = np.max(np.abs(spec.eigenvalues - oracle.eigenvalues[:spec.count]))
    assert error <= 64 * banded.EPS * norm
    assert_eigenspaces_match(spec, oracle)
