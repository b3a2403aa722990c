"""Operator assembly, eigensolves, cluster detection, potential recovery.

The operator is H = -Laplacian_h + diag(q), and only the k lowest eigenpairs
are computed, each from a start fixed by the grid, the seed and the request,
so that solves repeat bit for bit:

- On the interval and the circle H is a ``banded.BandedOperator`` (its two
  bands, with the circle's wrap entry), solved with numpy alone by block
  inverse iteration through odd-even reduction (see ``banded``). A first
  attempt starts from the lowest ``banded.block_width`` eigenvectors of
  -Laplacian_h, known in closed form (``domain.laplacian_modes``: DFT modes
  on the circle, DCT-II under Neumann, DST-II under Dirichlet). A solve
  handed a nearby potential's spectrum (``start``: the optimizer's current
  iterate, the line search's previous point) keeps its k eigenvectors and
  pads them with the modes after the k-th. Seeded shift-invert is the retry
  path: every retry is the cold seeded solve, so an incomplete-cluster
  retry is the seeded cold solve of its size.
  Batched first attempts (``_first_attempts``) serve ``solve_spectra``
  (many potentials on one grid, each from the modes) and the optimizer's
  rounds (``spectra_with_complete_clusters``: the candidates of many runs,
  each warm from its own run's iterate). The operators share the
  Laplacian's off-diagonal, so each group of them takes one batched first
  attempt (``banded.lowest_pairs`` on the stacked bands and start blocks,
  in groups of ``banded.group_size`` to bound the working set), and then
  each member passes ``eigensolve``'s gate alone, its retries included; an
  index request passes it through ``spectrum_with_complete_cluster``, like
  any index solve. Every spectrum is bit for bit the one its potential gets
  solved alone.
- On the torus H is a sparse Kronecker sum, solved by shift-invert Lanczos
  (ARPACK) below the spectrum, and re-solved by shift-invert block Lanczos
  when that misses an eigenvalue or leaves a cluster incomplete, both on one
  SuperLU factor; scipy loads only there, in ``assemble``, which maps
  scipy's OpenBLAS on one thread (``blas``).

``eigensolve`` is the one gate and the one loop: it alone accepts, retries
or rejects what a solver returns. It checks an eigenvalue count (a Sturm
count in 1-D, an inertia count of a sparse LDL^T on the torus: Sylvester's
law of inertia) for a missing eigenvalue, each pair's residual, and, given
an index, that its cluster is complete: a count covers the cluster's upper
edge and those residuals resolve it (``Cluster.complete``), with no other
rule. Eigenvectors are returned orthonormal in the weighted inner product
<f, g>_w of the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import banded, blas
from .banded import BandedOperator
from .domain import Circle, DomainGrid, Interval, Potential, Torus2D, laplacian_modes
from .errors import ConfigError, IncompleteClusterError, SolverError

CLUSTER_TOL_REL = 1e-6
EXTRA_PAIRS = 6         # pairs a torus solve for index i computes beyond i
EXTRA_PAIRS_1D = 2      # the same on interval and circle grids (see _headroom)
RESIDUAL_TOL = 1e-8
START_VECTOR_SEED = 0   # start blocks in 1-D and of torus re-solves, ARPACK start vector


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
    # every eigenvalue of the operator below this point is among the returned
    # ones, as an eigenvalue count showed; -inf when nothing was counted
    complete_below: float = -np.inf
    # (K,) ||H f - lambda f||_w of each pair, as eigensolve measured it; None
    # when built elsewhere, where complete_below stays -inf
    residuals: np.ndarray | None = None

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
        """(n, m) block of eigenvectors spanning the cluster's eigenspace;
        IncompleteClusterError unless the cluster is proven complete. A
        simple eigenvalue is a cluster of one and is refused the same way:
        from 2 pairs on the circle at q = 0, lambda_2 looks simple, but its
        double partner was never computed."""
        if not cluster.complete:
            raise IncompleteClusterError(
                f"cluster at {cluster.first_index} is not proven complete by an eigenvalue count")
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
    complete: bool        # an eigenvalue count proved no member is missing

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


def assemble(grid: DomainGrid, q: Potential | np.ndarray):
    """H = -Laplacian_h + diag(q), symmetric: a ``BandedOperator`` in 1-D, a
    sparse CSC matrix on the torus."""
    values = q.values if isinstance(q, Potential) else q
    values = grid.check_vector(values)
    if isinstance(grid.kind, Torus2D):
        # scipy loads only on the torus: importing it costs a process
        # ~0.35 s and ~30 MB of RSS, which the 1-D paths do not need. Every
        # torus solve assembles first, so scipy.sparse.linalg maps scipy's
        # OpenBLAS here, on one thread (scipy.sparse alone does not map it).
        blas.import_on_one_thread("scipy.sparse.linalg")
        import scipy.sparse as sp

        blas.one_blas_thread()
        lap_x, lap_y = (BandedOperator(bands).toarray() for bands in grid.laplacian)
        # kron(I, L_x) + kron(L_y, I): node j * m + i, x varies fastest
        return (sp.kronsum(lap_x, lap_y, format="csc") + sp.diags(values)).tocsc()
    return BandedOperator(_bands(grid, values))


def _bands(grid: DomainGrid, values: np.ndarray) -> np.ndarray:
    """The two bands of H on a 1-D grid for q's (n,) values, or stacked,
    (m, 2, n), for the (m, n) values of m potentials."""
    return grid.laplacian + np.stack([values, np.zeros_like(values)], axis=-2)


def eigensolve(grid: DomainGrid, H, k: int, potential: Potential | None = None,
               start: SpectralData | None = None,
               first: tuple[np.ndarray, np.ndarray] | None = None,
               index: int | None = None) -> SpectralData:
    """Lowest k eigenpairs of the assembled operator, w-orthonormalized.

    Degenerate blocks come out in whatever basis the solver picks; each
    column's sign is fixed so the largest-magnitude entry is positive. On the
    torus k may not exceed n // 2 (ConfigError).

    This is every solve's one acceptance loop. An attempt is accepted when
    - an eigenvalue count at x finds no eigenvalue it missed (a solver can
      miss a copy of a multiple eigenvalue and return a higher one in its
      place); x lies just above the k-th value's cluster, or just below the
      highest computed cluster when the two meet;
    - each pair's residual is within RESIDUAL_TOL (1 + |lambda|) or the
      rounding floor 8 eps ||H||;
    - given an ``index``, ``detect_cluster`` proves its cluster complete.
    A ``LinAlgError``, a non-finite pair or a residual above its bound raises
    SolverError, and so does an incomplete cluster whose edge a re-solve's
    count already covered: its residuals do not resolve the edge, and more
    pairs cannot mend that. A first attempt that stops there is retried,
    since the re-solver may converge further. Any other miss is retried with
    ``_headroom`` pairs (2 in 1-D, 6 on the torus) beyond an eigenvalue
    count, four attempts at most, then SolverError. Every retry is one
    re-solver: the cold seeded shift-invert banded solve in 1-D, block
    Lanczos on the torus, which holds every copy of a multiple eigenvalue
    that ARPACK can miss. A count miss keeps k pairs of the wider solve; an
    incomplete cluster widens the spectrum, which in 1-D equals the seeded
    cold solve of its size bit for bit. ``complete_below`` is x, or the
    first pair a wider solve computed beyond those returned when that is
    lower; ``residuals`` are the ones measured.

    ``start`` and ``first`` shape the first attempt only. A 1-D first
    attempt starts from the grid's closed-form -Laplacian_h eigenvectors
    (``_first_block``); ``start``, an earlier solve on the same grid with at
    least k pairs, puts its k eigenvectors in place of the lowest k modes
    (``banded``'s warm start). The torus and a start with fewer pairs ignore
    ``start``. ``first``, the (k,) values and (n, k) vectors of a first 1-D
    attempt already made (a group's batched one, see ``_first_attempts``), takes
    the first attempt's place. The gate judges each like any other attempt,
    so a pair a poor start lost is never kept.
    """
    n = grid.n_nodes
    if H.shape != (n, n):
        raise SolverError(f"operator shape {H.shape} does not match grid size {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    torus = isinstance(grid.kind, Torus2D)
    lowest_pairs = _lowest_pairs_sparse if torus else _lowest_pairs_banded
    resolve = partial(lowest_pairs, block=True) if torus else partial(lowest_pairs, seeded=True)
    if first is not None:
        lowest_pairs = lambda grid, H, k: first
    elif start is not None and not torus:
        lowest_pairs = partial(lowest_pairs, start=start)
    solve_k, unit = k, _unit(grid)
    for _ in range(4):   # at most a count miss on each side of a cluster miss
        if torus and k > n // 2:
            raise ConfigError(f"the torus solve computes at most n // 2 = {n // 2} eigenpairs, "
                              f"asked for {k}")
        try:
            evals, evecs = lowest_pairs(grid, H, solve_k)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigensolve failed: {exc}") from exc
        if not (np.all(np.isfinite(evals)) and np.all(np.isfinite(evecs))):
            raise SolverError("eigensolve produced non-finite values")
        tol = CLUSTER_TOL_REL * (unit + np.abs(evals))
        x = min(evals[k - 1] + tol[k - 1], evals[-1] - tol[-1])
        solved = int(np.count_nonzero(evals < x))
        count = count_eigenvalues_below(H, x)
        counted = solved == count
        if counted:
            if len(evals) > k:
                x = min(x, evals[k])
            evals, evecs = evals[:k], evecs[:, :k]
            # One weight for every node: Euclidean-orthonormal columns become
            # w-orthonormal after scaling by 1/sqrt(w).
            vecs = evecs / np.sqrt(grid.weight)
            peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
            vecs *= np.where(peaks < 0, -1.0, 1.0)
            # The w-norm residual of the w-orthonormal columns is the Euclidean
            # one of evecs; divided by ||H|| it cannot overflow when squared.
            # Rounding in H @ evecs alone leaves residuals of about eps ||H||.
            norm = _norm_bound(grid, H)
            rel = np.linalg.norm((H @ evecs - evecs * evals) / norm, axis=0)
            if np.any(rel > np.maximum(RESIDUAL_TOL * (1.0 + np.abs(evals)) / norm,
                                       8.0 * banded.EPS)):
                worst = float(np.max(rel * norm / (1.0 + np.abs(evals))))
                raise SolverError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e} "
                                  f"and the rounding floor {8.0 * banded.EPS * norm:.3e}")
            spec = SpectralData(evals.copy(), vecs, grid, potential, x, rel * norm)
            if index is None or (cluster := detect_cluster(spec, index)).complete:
                return spec
            x = cluster.value + cluster.tol_used
            if x < spec.complete_below and lowest_pairs is resolve:
                raise SolverError(f"a solve of {solve_k} pairs does not prove the cluster of "
                                  f"index {index} complete: its residuals do not resolve {x:.12g}")
            solved, count, solve_k = cluster.last_index, count_eigenvalues_below(H, x), k
        # a count miss keeps k pairs of a wider solve; an incomplete cluster widens k
        lowest_pairs = resolve
        solve_k = min(n, max(solve_k, count) + _headroom(grid))
        k = solve_k if counted else k
    unproven = "" if index is None else f"; the cluster of index {index} is not proven complete"
    raise SolverError(f"{count} eigenvalues lie below {x:.12g}, the solve found {solved}{unproven}")


def _headroom(grid: DomainGrid) -> int:
    """Pairs a solve for index i computes beyond i, the one headroom rule.

    In 1-D H is a Jacobi or periodic Jacobi matrix, so no eigenvalue is more
    than double and i + 2 pairs reach past the cluster of any index i. Torus
    clusters are 4- and 8-fold at constant potentials, so it takes i + 6.
    The eigenvalue count still decides completeness either way.
    """
    return EXTRA_PAIRS if isinstance(grid.kind, Torus2D) else EXTRA_PAIRS_1D


def _unit(grid: DomainGrid) -> float:
    """The domain's eigenvalue unit u, the scale of the cluster tolerance
    CLUSTER_TOL_REL (u + |lambda|): (2 pi / L)^2 on the circle and the torus
    (L its longer side), (pi / L)^2 on the interval, the first nonzero
    eigenvalue of the continuous -Laplacian there. It is exactly 1 on the
    2 pi circle and torus and the pi interval. A fixed unit would put the
    tolerance of lambda_1 below the rounding floor 8 eps ||H|| on small
    domains, where ||H|| grows as 1/h^2."""
    kind = grid.kind
    if isinstance(kind, Interval):
        return (math.pi / kind.length) ** 2
    longer = kind.circumference if isinstance(kind, Circle) else max(kind.length_x, kind.length_y)
    return (2.0 * math.pi / longer) ** 2


def _norm_bound(grid: DomainGrid, H) -> float:
    """Row-sum bound on ||H||: on the torus, the two axis bounds plus max |q|."""
    if isinstance(H, BandedOperator):
        return banded._norm_bound(H.bands)
    diag_x, diag_y = grid.laplacian[:, 0, 0]
    q = H.diagonal() - (diag_x + diag_y)
    return sum(banded._norm_bound(bands) for bands in grid.laplacian) + float(np.max(np.abs(q)))


def _lowest_pairs_banded(grid: DomainGrid, H: BandedOperator, k: int,
                         start: SpectralData | None = None,
                         seeded: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a 1-D operator: a first attempt from
    ``_first_block``, or, ``seeded``, the cold seeded shift-invert solve
    that every retry takes."""
    block = None if seeded else _first_block(grid, k, start)
    return banded.lowest_pairs(H.bands, k, START_VECTOR_SEED, block)


def _first_block(grid: DomainGrid, k: int, start: SpectralData | None = None) -> np.ndarray:
    """A 1-D first attempt's start block: the grid's lowest -Laplacian_h
    modes, ``banded.block_width`` of them, or, from a start with at least k
    pairs, its k eigenvectors followed by the modes after the k-th. sqrt(w)
    turns the start's w-orthonormal eigenvectors Euclidean-orthonormal."""
    modes = laplacian_modes(grid, banded.block_width(grid.n_nodes, k))
    if start is None or start.count < k:
        return modes
    return np.hstack([start.eigenvectors[:, :k] * np.sqrt(grid.weight), modes[:, k:]])


def _lowest_pairs_sparse(grid: DomainGrid, H, k: int,
                         block: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of the sparse torus operator, ascending.

    -Laplacian_h is positive semidefinite and its diagonal is constant, so
    sigma = min(q) - max(1, lambda_h) lies strictly below lambda_1 and
    H - sigma I is positive definite: the k eigenvalues nearest sigma are
    the k lowest. lambda_h, the smaller of 4 sin^2(pi/m)/h^2 over the two
    axes, is -Laplacian_h's first nonzero eigenvalue, so the shift scales
    with the domain (it is 1 on a 2 pi torus): a unit shift on a torus of
    side 0.001 grew block solves to nearly n columns.
    Lanczos (ARPACK) from one start vector finds extra copies of a multiple
    eigenvalue only through rounding; ``block`` takes block Lanczos (Golub &
    Van Loan 10.3) on min(n, k + 2) seeded columns, which holds every copy up
    to that multiplicity, with full reorthogonalization and Rayleigh-Ritz on
    H, until the k Ritz pairs pass ``banded``'s rule.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = grid.n_nodes
    # min(q): the diagonal of -Laplacian_h is the constant 2/hx^2 + 2/hy^2
    diag_x, diag_y = grid.laplacian[:, 0, 0]
    m = grid.laplacian.shape[2]
    lambda_h = min(4.0 * np.sin(np.pi / m) ** 2 / h**2 for h in grid.spacing)
    sigma = float(np.min(H.diagonal() - (diag_x + diag_y))) - max(1.0, lambda_h)
    lu = _symmetric_lu(H, sigma)
    rng = np.random.default_rng(START_VECTOR_SEED)
    if block:
        floor = 8.0 * banded.EPS * _norm_bound(grid, H)
        new, _ = np.linalg.qr(rng.standard_normal((n, min(n, k + 2))))
        basis, projected = np.empty((n, 0)), np.empty((0, 0))   # projected = basis^T H basis
        while True:
            h_new, basis = H @ new, np.hstack([basis, new])
            cross = basis.T @ h_new   # the new columns of projected
            projected = np.block([[projected, cross[: -new.shape[1]]], [cross.T]])
            theta, coeffs = np.linalg.eigh(projected)
            if not np.all(np.isfinite(theta)):   # the loop would never converge
                raise SolverError("block Lanczos eigensolve produced non-finite values")
            theta, vecs = theta[:k], basis @ coeffs[:, :k]
            residuals = np.linalg.norm(H @ vecs - vecs * theta, axis=0)
            if basis.shape[1] == n or np.all(residuals <= np.maximum(
                    banded.CONVERGED_REL * (1.0 + np.abs(theta)), floor)):
                return theta, vecs
            # SuperLU solves one column at a time faster than a block at once
            new = np.column_stack([lu.solve(column) for column in new.T])
            for _ in range(2):
                new, _ = np.linalg.qr(new - basis @ (basis.T @ new))
            new = new[:, : n - basis.shape[1]]
    inverse = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # not the constant vector: at a constant potential that is the ground state
    v0 = rng.standard_normal(n)
    try:
        evals, evecs = eigsh(H, k, sigma=sigma, which="LM", v0=v0, OPinv=inverse)
    except ArpackError as exc:
        raise SolverError(f"sparse shift-invert eigensolve failed: {exc}") from exc
    order = np.argsort(evals, kind="stable")
    return evals[order], evecs[:, order]


def _symmetric_lu(H, x: float):
    """LU factors of H - xI under a symmetric fill-reducing ordering and no
    pivoting, that is P (L D L^T) P^T with U = D L^T.

    The minimum-degree ordering on A^T + A keeps about half the fill of
    splu's default COLAMD on the 5-point torus operator.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    shifted = (H - x * sp.identity(H.shape[0], format="csc")).tocsc()
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"factorization of H - {x:.12g} I failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"factorization of H - {x:.12g} I pivoted off the diagonal")
    return lu


def count_eigenvalues_below(H, x: float) -> int:
    """Number of eigenvalues of the assembled operator H below x.

    A ``BandedOperator`` takes a Sturm count. For the sparse torus operator,
    by Sylvester's law of inertia, H - xI = P L D L^T P^T has as many
    negative pivots in D (the diagonal of U) as H has eigenvalues below x.
    """
    if isinstance(H, BandedOperator):
        return banded.count_below(H.bands, x)
    return int(np.count_nonzero(_symmetric_lu(H, x).U.diagonal() < 0))


def solve_spectrum(grid: DomainGrid, q: Potential, k: int) -> SpectralData:
    """Assemble and solve in one step."""
    return eigensolve(grid, assemble(grid, q), k, potential=q)


def solve_spectra(grid: DomainGrid, potentials: list[Potential], k: int) -> list[SpectralData]:
    """``solve_spectrum`` of each potential on one interval or circle grid,
    bit for bit, with one batched first attempt per group
    (``_first_attempts``); the first failed solve raises its SolverError."""
    if isinstance(grid.kind, Torus2D):
        raise ValueError("solve_spectra takes interval and circle grids")
    firsts = _first_attempts(grid, [(q, None) for q in potentials], k)
    return [eigensolve(grid, assemble(grid, q), k, potential=q, first=first)
            for q, first in zip(potentials, firsts)]


def _first_attempts(grid: DomainGrid, requests: list[tuple[Potential, SpectralData | None]],
                    k: int):
    """The first attempt of k pairs for each (potential, start) request, in
    order, for ``eigensolve``'s ``first``.

    In 1-D the operators share the Laplacian's off-diagonal, so each group
    of ``banded.group_size`` requests takes one batched solve
    (``banded.lowest_pairs`` on the stacked bands), each member from its own
    ``_first_block``. None leaves a request its own first attempt inside
    ``eigensolve``: a group of one, every torus request, and each member of
    a group whose batched solve raises a ``LinAlgError``.
    """
    size = 1 if isinstance(grid.kind, Torus2D) else banded.group_size(grid.n_nodes, k)
    for lo in range(0, len(requests), size):
        group = requests[lo : lo + size]
        firsts = [None] * len(group)
        if len(group) > 1:
            try:
                firsts = zip(*banded.lowest_pairs(
                    _bands(grid, np.stack([grid.check_vector(q.values) for q, _ in group])), k,
                    START_VECTOR_SEED,
                    np.stack([_first_block(grid, k, start) for _, start in group])))
            except np.linalg.LinAlgError:
                pass
        yield from firsts


def detect_cluster(spec: SpectralData, i: int) -> Cluster:
    """Cluster of eigenvalues within CLUSTER_TOL_REL * (u + |lambda_i|) of
    lambda_i, u the domain's unit (``_unit``).

    It is complete when the whole spectrum was computed, or when its upper
    edge lies below ``spec.complete_below`` and no computed eigenvalue lies
    within the solve's accuracy of the edge, sqrt(K) times its largest residual
    (Kahan's bound for K Ritz values; Parlett, The Symmetric Eigenvalue
    Problem, ch. 11): then the solve's eigenvalue count shows that no
    eigenvalue up to the edge is missing. An accuracy at or above the
    tolerance proves no cluster complete.
    """
    spec._check_index(i)
    lam = spec.eigenvalues
    center = lam[i - 1]
    tol = CLUSTER_TOL_REL * (_unit(spec.grid) + abs(center))
    lo = i - 1
    while lo > 0 and abs(lam[lo - 1] - center) <= tol:
        lo -= 1
    hi = i - 1
    while hi < spec.count - 1 and abs(lam[hi + 1] - center) <= tol:
        hi += 1
    edge = center + tol
    # lam[hi], lam[hi + 1] lie nearest the edge; a finite complete_below has residuals
    complete = spec.count == spec.grid.n_nodes or bool(
        edge < spec.complete_below and np.min(np.abs(lam[hi : hi + 2] - edge))
        > math.sqrt(spec.count) * np.max(spec.residuals))
    return Cluster(lo + 1, hi - lo + 1, float(center), tol, complete)


def spectrum_with_complete_cluster(grid: DomainGrid, q: Potential, i: int,
                                   start: SpectralData | None = None,
                                   first: tuple[np.ndarray, np.ndarray] | None = None
                                   ) -> tuple[SpectralData, Cluster]:
    """Spectrum of q whose cluster containing i is proven complete, and that
    cluster.

    One ``eigensolve`` of i + ``_headroom`` pairs (i + 2 on interval and
    circle grids, i + 6 on the torus; ``_index_pairs``) with ``index=i``:
    its gate widens the spectrum until a count proves the cluster of i
    complete, or raises SolverError. Line searches, finite differences and
    gaps take index-i spectra from here; ``start`` and ``first`` shape the
    first attempt only (see ``eigensolve``).
    """
    spec = eigensolve(grid, assemble(grid, q), _index_pairs(grid, i), potential=q, start=start,
                      first=first, index=i)
    return spec, detect_cluster(spec, i)


def _index_pairs(grid: DomainGrid, i: int) -> int:
    """Pairs an index-i solve asks for: i + ``_headroom``, at most n."""
    return min(grid.n_nodes, i + _headroom(grid))


def spectra_with_complete_clusters(grid: DomainGrid,
                                    requests: list[tuple[Potential, SpectralData | None]],
                                    i: int) -> list[tuple[SpectralData, Cluster] | SolverError]:
    """``spectrum_with_complete_cluster`` of each (potential, start) request,
    in order and bit for bit, each group's first attempts made in one
    batched solve (``_first_attempts``). A request whose solve fails gets
    its SolverError in place of a result, and the others are solved all the
    same."""
    outcomes = []
    for (q, start), first in zip(requests, _first_attempts(grid, requests, _index_pairs(grid, i))):
        try:
            outcomes.append(spectrum_with_complete_cluster(grid, q, i, start, first))
        except SolverError as exc:
            outcomes.append(exc)
    return outcomes


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
