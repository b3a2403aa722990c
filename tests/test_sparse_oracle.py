"""The sparse torus eigensolve against a dense eigendecomposition.

The reference is the decomposition the torus used before its operator became
sparse: ``np.linalg.eigh`` of the assembled matrix, which sees the whole
spectrum. It is kept here only as a test oracle. Degenerate eigenspaces are
compared through their w-orthogonal projectors, since the bases inside a
cluster are arbitrary.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpot.certificates import criticality_certificate
from specpot.domain import BoundaryCondition, Potential, Torus2D, build_grid
from specpot.spectral import (
    SpectralData,
    assemble,
    count_eigenvalues_below,
    detect_cluster,
    eigensolve,
    spectrum_with_complete_cluster,
)

LENGTHS = [(2.0 * np.pi, 2.0 * np.pi), (2.0 * np.pi, np.pi), (2.0 * np.pi, 3.0)]
MODES = [(kx, ky) for kx in range(3) for ky in range(3) if (kx, ky) != (0, 0)]


def dense_oracle(grid, q) -> SpectralData:
    """Whole spectrum from a dense decomposition, w-orthonormal eigenvectors."""
    evals, evecs = np.linalg.eigh(assemble(grid, q).toarray())
    return SpectralData(evals, evecs / np.sqrt(grid.weight), grid, q)


def low_mode_potential(grid, c, amplitudes) -> Potential:
    """c plus cosine and sine modes with wave numbers 0..2 per axis."""
    lx, ly = grid.kind.length_x, grid.kind.length_y
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    values = np.full(grid.n_nodes, c)
    for (kx, ky), (a, b) in zip(MODES, amplitudes):
        phase = 2.0 * np.pi * (kx * x / lx + ky * y / ly)
        values += a * np.cos(phase) + b * np.sin(phase)
    return Potential.from_values(grid, values)


def projector(spec, cluster):
    # the top computed cluster may be unproven, so slice the columns directly
    lo = cluster.first_index - 1
    F = spec.eigenvectors[:, lo : lo + cluster.multiplicity]
    return F @ (F * spec.grid.weight).T


def oracle_clusters(oracle, count):
    """The dense clusters lying wholly inside the lowest ``count`` pairs."""
    clusters, i = [], 1
    while i <= count:
        cluster = detect_cluster(oracle, i)
        if cluster.last_index <= count:
            clusters.append(cluster)
        i = cluster.last_index + 1
    return clusters


amplitude = st.floats(-0.6, 0.6, allow_nan=False)
potentials = st.one_of(
    st.tuples(st.floats(-1.0, 1.0), st.just(((0.0, 0.0),) * len(MODES))),
    st.tuples(st.floats(-1.0, 1.0), st.tuples(*[st.tuples(amplitude, amplitude)] * len(MODES))),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    m=st.integers(8, 24),
    lengths=st.sampled_from(LENGTHS),
    potential=potentials,
    i=st.integers(1, 6),
    x_frac=st.floats(0.0, 1.0),
)
@example(m=8, lengths=LENGTHS[0], potential=(0.0, ((0.0, 0.0),) * len(MODES)), i=14, x_frac=0.5)
@example(m=24, lengths=LENGTHS[0], potential=(0.3, ((0.0, 0.0),) * len(MODES)), i=2, x_frac=0.1)
def test_sparse_matches_dense(m, lengths, potential, i, x_frac):
    grid = build_grid(Torus2D(*lengths), m, BoundaryCondition.CLOSED)
    q = low_mode_potential(grid, *potential)
    oracle = dense_oracle(grid, q)
    spec, cluster = spectrum_with_complete_cluster(grid, q, i)
    k = spec.count

    lam = oracle.eigenvalues[:k]
    assert np.max(np.abs(spec.eigenvalues - lam) / (1.0 + np.abs(lam))) <= 1e-10

    for dense in oracle_clusters(oracle, k):
        sparse = detect_cluster(spec, dense.first_index)
        assert (sparse.first_index, sparse.multiplicity) == (dense.first_index, dense.multiplicity)
        assert np.max(np.abs(projector(spec, sparse) - projector(oracle, dense))) <= 1e-8

    dense_cluster = detect_cluster(oracle, i)
    assert cluster.complete
    assert (cluster.first_index, cluster.multiplicity) == (
        dense_cluster.first_index, dense_cluster.multiplicity)
    assert (criticality_certificate(spec, cluster).status
            is criticality_certificate(oracle, dense_cluster).status)

    H = assemble(grid, q)
    x = oracle.eigenvalues[0] - 1.0 + x_frac * (oracle.eigenvalues[k - 1] - oracle.eigenvalues[0] + 2.0)
    if np.min(np.abs(oracle.eigenvalues - x)) > 1e-8:
        assert count_eigenvalues_below(H, x) == int(np.count_nonzero(oracle.eigenvalues < x))

    # a fresh solve of k pairs agrees with the request's, which a widened
    # cluster may have taken from block Lanczos instead of ARPACK
    again = eigensolve(grid, H, k, potential=q)
    assert np.max(np.abs(again.eigenvalues - spec.eigenvalues) / (1.0 + np.abs(lam))) <= 1e-10
    for dense in oracle_clusters(oracle, k):
        assert np.max(np.abs(projector(again, dense) - projector(spec, dense))) <= 1e-8


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    m=st.integers(8, 24),
    lengths=st.sampled_from(LENGTHS),
    potential=potentials,
    k_frac=st.floats(0.0, 1.0),
)
# k = 19 on the 9 x 9 square torus ends inside the 8-fold eigenvalue 4.351:
# Lanczos finds 5 copies of it at k = 19 and 6 of them at k = 27, the block
# re-solve all 8
@example(m=9, lengths=LENGTHS[0], potential=(0.0, ((0.0, 0.0),) * len(MODES)), k_frac=0.46875)
def test_any_k_matches_dense(m, lengths, potential, k_frac):
    grid = build_grid(Torus2D(*lengths), m, BoundaryCondition.CLOSED)
    q = low_mode_potential(grid, *potential)
    k = 1 + int(k_frac * (grid.n_nodes // 2 - 1))
    spec = eigensolve(grid, assemble(grid, q), k, potential=q)
    oracle = dense_oracle(grid, q)
    lam = oracle.eigenvalues[:k]
    assert np.max(np.abs(spec.eigenvalues - lam) / (1.0 + np.abs(lam))) <= 1e-10
    for i in range(1, k + 1):
        # a cluster proven complete is the whole dense cluster
        cluster, dense = detect_cluster(spec, i), detect_cluster(oracle, i)
        assert not cluster.complete or (cluster.first_index, cluster.multiplicity) == (
            dense.first_index, dense.multiplicity)


# Lanczos alone misses one copy of a 4-fold eigenvalue in these solves and
# returns the next eigenvalue in its place; the inertia check catches it.
@pytest.mark.parametrize("lengths, k", [((2.0 * np.pi, np.pi), 15), ((5.0, 3.0), 9),
                                        ((5.0, 3.0), 15)])
def test_missed_copy_recovered(lengths, k):
    grid = build_grid(Torus2D(*lengths), 15, BoundaryCondition.CLOSED)
    q = Potential.constant(grid, 0.7)
    spec = eigensolve(grid, assemble(grid, q), k, potential=q)
    lam = dense_oracle(grid, q).eigenvalues[:k]
    assert np.max(np.abs(spec.eigenvalues - lam)) <= 1e-10
