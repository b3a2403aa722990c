"""Banded operators of the interval and the circle, solved with numpy alone.

A 1-D operator is stored as its two bands, an array of shape (2, n):
``bands[0]`` is the diagonal, ``bands[1][i] = H[i, i + 1]`` for i < n - 1,
and ``bands[1][n - 1] = H[n - 1, 0]`` is the periodic wrap entry, zero on
the interval. Nothing here forms an n x n matrix.

- ``count_below`` is the Sturm count: the negative pivots of the unpivoted
  LDL^T of H - xI (Sylvester's law of inertia), with the circle's wrap entry
  eliminated last by a bordered recurrence and tiny pivots guarded as in
  LAPACK ``dstebz``.
- ``lowest_pairs`` computes only the k lowest eigenpairs: shift-invert
  subspace steps at a shift below the spectrum, where H - sigma I is
  positive definite and diagonally dominant, then block inverse iteration
  at the Ritz values with a Rayleigh-Ritz step over [V, Y] until the
  residuals are at solver accuracy (Parlett, The Symmetric Eigenvalue
  Problem, ch. 4 and 7). Given a start block, eigenvectors of a nearby
  operator, it skips the shift-invert steps and goes straight to inverse
  iteration.
- ``lowest_pairs`` also takes a group of operators, bands of shape
  (g, 2, n) that share one off-diagonal (the Laplacian's) and differ only
  in their diagonals. A group of one is the single solve. Each shifted
  solve, QR and Rayleigh-Ritz step then serves the whole group in one numpy
  call. Each member keeps its own shift, rounding floor and active columns,
  and leaves the group once its k lowest columns converge. No decision is
  taken over the group, so a member's pairs are bit for bit those of its
  solve alone. ``group_size`` caps a group by the bytes of its working set.
- Both kinds of shifted solve use odd-even (cyclic) reduction, in place,
  which takes ceil(log2 n) vectorized steps. At a shift near an eigenvalue
  a pivot of an inner reduction step can vanish; the reduction of that
  system alone then stops, and the system left over is solved row by row
  with partial pivoting. Each system decides on its own pivots, so its
  solution does not depend on the systems solved beside it.

A request for k close to n takes the same path, but its Rayleigh-Ritz
problem then has size n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EPS = float(np.finfo(float).eps)
SHIFT_INVERT_STEPS = 2     # subspace steps at the definite shift before inverse iteration
MAX_REFINEMENTS = 12       # inverse-iteration steps; 3-4 reach solver accuracy
CONVERGED_REL = 1e-10      # residual target relative to 1 + |lambda|
REDUCTION_GUARD = 1.5e-8   # sqrt(eps) * ||H||: a smaller pivot ends its system's reduction
# Peak working set of a group solve per member and per entry of its (n, k + 2)
# block: 85-112 bytes by tracemalloc over groups of 5 to 50 circle and Neumann
# members at n = 64 to 1024 and k = 2 and 7 (~100 KB a member at n = 256,
# k = 2). GROUP_BYTES caps a group's working set, and with it the peak RSS a
# batched solve adds: 8 members at n = 256, k = 2.
MEMBER_BYTES = 120
GROUP_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Symmetric tridiagonal operator, periodic when the wrap entry is nonzero."""

    bands: np.ndarray   # (2, n)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.bands.shape[1]
        return (n, n)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        diag, off = self.bands
        return _apply(diag[None], off, x.reshape(1, len(x), -1)).reshape(x.shape)

    def toarray(self) -> np.ndarray:
        """The dense (n, n) matrix."""
        diag, off = self.bands
        n = len(diag)
        dense = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
        dense[0, n - 1] += off[-1]
        dense[n - 1, 0] += off[-1]
        return dense


def _apply(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H_j x_j for a group: diagonals (g, n), shared off-diagonal (n,), x (g, n, w)."""
    y = diag[:, :, None] * x
    band = off[:-1, None]
    y[:, :-1] += band * x[:, 1:]
    y[:, 1:] += band * x[:, :-1]
    y[:, 0] += off[-1] * x[:, -1]
    y[:, -1] += off[-1] * x[:, 0]
    return y


def _norm_bound(bands: np.ndarray):
    """Row-sum bound on ||H||; one per operator of a (g, 2, n) group."""
    return (np.max(np.abs(bands[..., 0, :]), axis=-1)
            + 2.0 * np.max(np.abs(bands[..., 1, :]), axis=-1))


def group_size(n: int, k: int) -> int:
    """Members of a group solve of k pairs at n nodes whose working set fits GROUP_BYTES."""
    return max(1, GROUP_BYTES // (MEMBER_BYTES * n * min(n, k + 2)))


def count_below(bands: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the banded operator below x.

    The pivots of H - xI are eliminated in node order; on the circle node
    n - 1 is eliminated last, and c carries the coupling of the current node
    to it (the wrap entry at node 0, plus the off-diagonal at node n - 2).
    """
    diag, off = bands
    n = len(diag)
    a = (diag - x).tolist()
    e = off.tolist()
    wrap = e[n - 1]
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off * off)))
    piv = a[0] if abs(a[0]) >= pivmin else -pivmin
    count = int(piv < 0.0)
    c = wrap
    border = c * c / piv
    for i in range(1, n - 1 if wrap else n):
        f = e[i - 1] / piv
        piv = a[i] - e[i - 1] * f
        if abs(piv) < pivmin:
            piv = -pivmin
        count += piv < 0.0
        if wrap:
            c = -f * c + (e[i] if i == n - 2 else 0.0)
            border += c * c / piv
    if wrap:
        count += a[n - 1] - border < 0.0
    return count


def _row_solve(d: np.ndarray, e: np.ndarray, b: np.ndarray, tiny: float) -> np.ndarray:
    """Tridiagonal solve by Gaussian elimination with partial pivoting, row by row.

    d (m, s) diagonals, e (m - 1, s) off-diagonals, b (m, s, r) right-hand
    sides; each of the s systems pivots on its own. Exact zero pivots become
    ``tiny``.
    """
    m = d.shape[0]
    diag, low, up = list(d), list(e), list(e) + [np.zeros_like(d[0])]
    fill = [np.zeros_like(d[0]) for _ in range(m)]   # second superdiagonal
    rhs = list(b)
    for i in range(m - 1):
        swap = np.abs(diag[i]) < np.abs(low[i])
        piv = np.where(swap, low[i], diag[i])
        piv = np.where(piv == 0.0, tiny, piv)
        fact = np.where(swap, diag[i], low[i]) / piv
        r1 = np.where(swap, diag[i + 1], up[i])
        r2 = np.where(swap, up[i + 1], 0.0)
        s1 = np.where(swap, up[i], diag[i + 1])
        s2 = np.where(swap, 0.0, up[i + 1])
        top = np.where(swap[..., None], rhs[i + 1], rhs[i])
        below = np.where(swap[..., None], rhs[i], rhs[i + 1])
        diag[i], up[i], fill[i] = piv, r1, r2
        diag[i + 1], up[i + 1] = s1 - fact * r1, s2 - fact * r2
        rhs[i], rhs[i + 1] = top, below - fact[..., None] * top
    diag[m - 1] = np.where(diag[m - 1] == 0.0, tiny, diag[m - 1])
    x = [None] * m
    x[m - 1] = rhs[m - 1] / diag[m - 1][..., None]
    for i in range(m - 2, -1, -1):
        acc = rhs[i] - up[i][..., None] * x[i + 1]
        if i + 2 < m:
            acc = acc - fill[i][..., None] * x[i + 2]
        x[i] = acc / diag[i][..., None]
    return np.stack(x)


def _reduce_solve(d: np.ndarray, e: np.ndarray, b: np.ndarray, tiny: np.ndarray,
                  guard: np.ndarray) -> None:
    """Solve the symmetric tridiagonal systems T_s x = b_s in place by odd-even reduction.

    d (m, s, 1) diagonals, e (m - 1, 1, 1) shared or (m - 1, s, 1) own
    off-diagonals, b (m, s, r), with m = 2^L - 1 rows, so every step
    eliminates the even rows, each coupled to two odd ones. d is overwritten
    and b becomes the solution; a step keeps only views of them. A system
    with a pivot below its own ``guard`` (s, 1) stops before that step and
    goes to the pivoted row solve, ``tiny`` (s,) replacing its zero pivots;
    the others go on.
    """
    steps = []
    top = guard.max()   # no pivot below the largest guard: no system stops
    while True:
        piv = d[0::2]
        small = None
        if np.min(np.abs(piv)) < top:
            small = (np.abs(piv) < guard).any(axis=(0, 2))
        if len(d) == 1 or (small is not None and small.any()):
            break
        left, right = e[0::2], e[1::2]
        f_left, f_right = left / piv[:-1], right / piv[1:]
        d_odd, b_even, b_odd = d[1::2], b[0::2], b[1::2]
        d_odd -= f_left * left
        d_odd -= f_right * right
        # contiguous copies of the even rows: numpy reads strided rows
        # slower than it copies them
        even = b_even.copy()
        b_odd -= f_left * even[:-1]
        b_odd -= f_right * even[1:]
        steps.append((piv, left, right, b_even, b_odd))
        d, e, b = d_odd, -f_right[:-1] * left[1:], b_odd
    if small is None or not small.any():   # one row left
        b /= d
    else:
        rest = ~small
        own = np.broadcast_to(e[..., 0], (len(d) - 1, d.shape[1]))
        b[:, small] = _row_solve(d[:, small, 0], own[:, small], b[:, small], tiny[small])
        if rest.any():
            b_rest = b[:, rest]
            _reduce_solve(d[:, rest], e if e.shape[1] == 1 else e[:, rest], b_rest, tiny[rest],
                          guard[rest])
            b[:, rest] = b_rest
    for piv, left, right, b_even, x in reversed(steps):
        even = b_even.copy()
        even[1:] -= right * x
        even[:-1] -= left * x
        even /= piv
        b_even[...] = even


def shifted_solve(shifted: np.ndarray, off: np.ndarray, rhs: np.ndarray,
                  norm: np.ndarray) -> np.ndarray:
    """Solutions x_s of T_s x_s = rhs_s, where T_s has the diagonal
    ``shifted[s]`` (an operator's diagonal minus a shift) and the shared
    off-diagonal ``off``, wrap entry included.

    shifted (s, n), rhs (s, n, r), norm (s,) the bound on ||H|| of each
    system's operator; returns (s, n, r). Node n - 1 is bordered: the path of
    nodes 0..n-2 is solved by reduction for the right-hand sides and for the
    coupling column c of node n - 1, and the last unknown comes from its
    Schur complement. The wrap entry of the circle lives in c, so the
    interval and the circle take one path. Each system's reduction is
    guarded at REDUCTION_GUARD * norm (see ``_reduce_solve``); the rows that
    pad the path to 2^L - 1 have the diagonal ``norm``, above every guard.
    """
    s, n, r = rhs.shape
    m = n - 1
    size = (1 << m.bit_length()) - 1   # padding rows fill the path to 2^L - 1
    tiny = EPS * norm
    c = np.zeros(m)
    c[0] = off[n - 1]
    c[n - 2] += off[n - 2]
    d = np.empty((size, s, 1))
    d[:m, :, 0] = shifted[:, :-1].T
    d[m:, :, 0] = norm
    e = np.zeros((size - 1, 1, 1))
    e[: m - 1, 0, 0] = off[:-2]
    b = np.zeros((size, s, r + 1))
    b[:m, :, :r] = np.swapaxes(rhs[:, :-1], 0, 1)
    b[:m, :, r] = c[:, None]
    _reduce_solve(d, e, b, tiny, REDUCTION_GUARD * norm[:, None])
    u, z = b[:m, :, :r], b[:m, :, r:]
    schur = shifted[:, -1:] - np.einsum("i,isr->sr", c, z)
    schur = np.where(schur == 0.0, tiny[:, None], schur)
    last = (rhs[:, -1] - np.einsum("i,isr->sr", c, u)) / schur
    u -= z * last
    x = np.empty((s, n, r))
    x[:, :-1] = np.swapaxes(u, 0, 1)
    x[:, -1] = last
    return x


def lowest_pairs(bands: np.ndarray, k: int, seed: int,
                 start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of the banded operator, ascending, with
    Euclidean-orthonormal eigenvectors: (k,) values and (n, k) vectors, or
    (g, k) and (g, n, k) for a group ``bands`` (g, 2, n) whose members share
    one off-diagonal (only ``bands[0, 1]`` is read), with a ``start``
    (g, n, >= k) if any.

    The block holds min(n, k + 2) vectors, seeded from ``seed``. The shift
    sigma lies 1 + 8 eps ||H|| below the Gershgorin bound
    min_i (H_ii - sum_j |H_ij|), so H - sigma I is strictly diagonally
    dominant even after rounding, when |q| dwarfs the Laplacian, and the
    shift-invert steps are stable. A ``start``, at least k orthonormal
    eigenvectors of a nearby operator, replaces the first k seeded columns
    and the shift-invert steps; nothing here checks that such a warm solve
    found the k lowest pairs, the caller's eigenvalue count does. Inverse
    iteration then refines only the columns not yet at solver accuracy;
    residuals are measured against max(1e-10 (1 + |lambda|), 8 eps ||H||),
    the level at which rounding in H V alone stops progress.
    """
    if bands.ndim == 3:
        return _group_pairs(bands, k, seed, start)
    evals, evecs = _group_pairs(bands[None], k, seed, None if start is None else start[None])
    return evals[0], evecs[0]


def _group_pairs(bands: np.ndarray, k: int, seed: int,
                 start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """``lowest_pairs`` of a (g, 2, n) group. Members converge in place: one
    whose k lowest columns have converged has its ``active`` row cleared, so
    ``_refine`` leaves its theta, vecs and h_vecs as they are."""
    diag, off = bands[:, 0], bands[0, 1]
    n = diag.shape[1]
    p = min(n, k + 2)
    norm = _norm_bound(bands)
    floor = 8.0 * EPS * norm
    theta, vecs, h_vecs = _rayleigh_ritz(
        diag, off, _first_basis(diag, off, norm, floor, p, k, seed, start), p)
    for _ in range(MAX_REFINEMENTS):
        residuals = np.linalg.norm(h_vecs - vecs * theta[:, None], axis=1)
        active = residuals > np.maximum(CONVERGED_REL * (1.0 + np.abs(theta)), floor[:, None])
        active[~active[:, :k].any(axis=1)] = False
        if not active.any():
            break
        theta, vecs, h_vecs = _refine(diag, off, norm, theta, vecs, h_vecs, active, p)
    return theta[:, :k], vecs[:, :, :k]


def _first_basis(diag, off, norm, floor, p: int, k: int, seed: int, start) -> np.ndarray:
    """Each member's orthonormal block before inverse iteration: seeded
    columns after the shift-invert steps, or the start's k columns and
    p - k seeded ones."""
    g, n = diag.shape
    seeded = _seeded_block(seed, n, p)
    if start is not None:
        return np.linalg.qr(np.concatenate(
            [start[:, :, :k], np.broadcast_to(seeded[:, : p - k], (g, n, p - k))], axis=2))[0]
    sigma = np.min(diag - np.abs(off) - np.abs(np.roll(off, 1)), axis=1) - (1.0 + floor)
    basis = np.broadcast_to(seeded, (g, n, p))
    for _ in range(SHIFT_INVERT_STEPS):
        basis, _ = np.linalg.qr(shifted_solve(diag - sigma[:, None], off, basis, norm))
    return basis


@lru_cache(maxsize=8)
def _seeded_block(seed: int, n: int, p: int) -> np.ndarray:
    """The seeded (n, p) start columns, drawn once per size and read-only."""
    block = np.random.default_rng(seed).standard_normal((n, p))
    block.flags.writeable = False
    return block


def _refine(diag, off, norm, theta, vecs, h_vecs, active, p: int):
    """One inverse-iteration step at the Ritz values of each member's active
    columns, then a Rayleigh-Ritz step over [V, Y]: the new theta, vecs and
    h_vecs."""
    # one system per active column, member by member, columns in order
    owner = active.nonzero()[0]
    step = shifted_solve(diag[owner] - theta[active][:, None], off,
                         np.swapaxes(vecs, 1, 2)[active][:, :, None], norm[owner])[:, :, 0]
    step /= np.max(np.abs(step), axis=1, keepdims=True)
    step[~np.all(np.isfinite(step), axis=1)] = 0.0
    counts = active.sum(axis=1)
    first = np.cumsum(counts) - counts
    for width in set(counts.tolist()) - {0}:
        rows = np.flatnonzero(counts == width)
        new = np.swapaxes(step[first[rows, None] + np.arange(width)], 1, 2)
        basis, _ = np.linalg.qr(np.concatenate([vecs[rows], new], axis=2))
        theta[rows], vecs[rows], h_vecs[rows] = _rayleigh_ritz(diag[rows], off, basis, p)
    return theta, vecs, h_vecs


def _rayleigh_ritz(diag: np.ndarray, off: np.ndarray, basis: np.ndarray, p: int):
    """Lowest p Ritz values, Ritz vectors and H times them over each member's
    orthonormal basis (g, n, w)."""
    h_basis = _apply(diag, off, basis)
    theta, coeffs = np.linalg.eigh(np.swapaxes(basis, 1, 2) @ h_basis)
    coeffs = coeffs[:, :, :p]
    return theta[:, :p], basis @ coeffs, h_basis @ coeffs
