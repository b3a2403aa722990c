"""Fourier probes and node CSVs against the per-value code they replaced.

``sample_probes`` builds the fourier modes once per call, and
``write_node_csv`` formats rows of Python floats. The references below are
the earlier forms, kept only as test oracles: a probe draw that recomputes
every mode, and a writer that formats each numpy scalar with ``fmt``. Both
must agree to the bit and to the byte.
"""
import numpy as np
import pytest

from specpot.domain import (
    BoundaryCondition,
    Circle,
    Interval,
    Torus2D,
    build_grid,
    fourier_mode,
    project_mean_zero,
)
from specpot.perturbation import make_direction, mixed_probe_suite, sample_probes
from specpot.reports import fmt, write_csv, write_node_csv

GRIDS = {
    "circle": (Circle(2.0 * np.pi), 256, BoundaryCondition.CLOSED),
    "neumann": (Interval(np.pi), 200, BoundaryCondition.NEUMANN),
    "dirichlet": (Interval(3.0), 64, BoundaryCondition.DIRICHLET),
    "torus": (Torus2D(2.0 * np.pi, 5.0), 16, BoundaryCondition.CLOSED),
}
SPECIAL = [-0.0, 5e-324, 1e300, -1.5, 2.0]


def oracle_fourier_draw(grid, rng):
    if grid.ndim == 1:
        values = np.zeros(grid.n_nodes)
        for k in range(1, 5):
            values += rng.standard_normal() * fourier_mode(grid, k, "cos")
            values += rng.standard_normal() * fourier_mode(grid, k, "sin")
        return values
    lx, ly = grid.kind.length_x, grid.kind.length_y
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    values = np.zeros(grid.n_nodes)
    for kx in range(0, 3):
        for ky in range(0, 3):
            if kx == 0 and ky == 0:
                continue
            phase = 2.0 * np.pi * (kx * x / lx + ky * y / ly)
            values += rng.standard_normal() * np.cos(phase)
            values += rng.standard_normal() * np.sin(phase)
    return values


def oracle_fourier_probes(grid, count, seed):
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        for _attempt in range(16):
            centered = project_mean_zero(grid, oracle_fourier_draw(grid, rng))
            if np.max(np.abs(centered)) > 1e-12:
                probes.append(make_direction(grid, centered, normalize=True))
                break
    return probes


def oracle_mixed_probe_suite(grid, count, seed):
    seeds = np.random.SeedSequence(seed).generate_state(3)
    per = count // 3
    probes = oracle_fourier_probes(grid, count - 2 * per, int(seeds[0]))
    if per:
        probes += sample_probes(grid, per, int(seeds[1]), "spike")
        probes += sample_probes(grid, per, int(seeds[2]), "noise")
    return probes


def oracle_write_node_csv(grid, path, columns):
    coord_names = ["x"] if grid.ndim == 1 else ["x", "y"]
    table = np.column_stack([grid.coords.reshape(grid.n_nodes, -1), *columns.values()])
    write_csv(path, coord_names + list(columns), ([fmt(v) for v in row] for row in table))


def assert_same_probes(probes, oracle):
    # probes are drawn as they are reached: a second pass must repeat the first
    assert [u.values.tobytes() for u in probes] == [u.values.tobytes() for u in probes]
    assert len(probes) == len(oracle)
    for u, v in zip(probes, oracle):
        assert np.array_equal(u.values, v.values)
        assert u.values.tobytes() == v.values.tobytes()   # signed zeros too
        assert u.sup_norm == v.sup_norm


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_fourier_probes_match_per_probe_draw(name):
    grid = build_grid(*GRIDS[name])
    for seed, count in ((0, 1), (7, 5), (29, 40), (20260808, 3)):
        assert_same_probes(sample_probes(grid, count, seed, "fourier"),
                           oracle_fourier_probes(grid, count, seed))


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_mixed_suite_matches_per_probe_draw(name):
    grid = build_grid(*GRIDS[name])
    for seed, count in ((1, 1), (2, 2), (7, 31), (29, 200)):
        assert_same_probes(mixed_probe_suite(grid, count, seed),
                           oracle_mixed_probe_suite(grid, count, seed))


@pytest.mark.parametrize("name", ["circle", "dirichlet", "torus"])
def test_node_csv_bytes_match_per_value_writer(name, tmp_path):
    grid = build_grid(*GRIDS[name])
    rng = np.random.default_rng(3)
    special = np.resize(np.array(SPECIAL), grid.n_nodes)
    columns = {"a": special, "b": -special[::-1],
               "c": rng.standard_normal(grid.n_nodes) * 10.0 ** rng.integers(-300, 300, grid.n_nodes)}
    for cols in ({"q": special}, columns):
        write_node_csv(grid, tmp_path / "new.csv", cols)
        oracle_write_node_csv(grid, tmp_path / "old.csv", cols)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
    assert b"-0.0" in new and b"5e-324" in new and b"1e+300" in new
