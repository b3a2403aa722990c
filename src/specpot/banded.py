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
- Both kinds of shifted solve use odd-even (cyclic) reduction, which takes
  ceil(log2 n) vectorized steps. At a shift near an eigenvalue a pivot of an
  inner reduction step can vanish; the reduction then stops and the system
  left over is solved row by row with partial pivoting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)
SHIFT_INVERT_STEPS = 2     # subspace steps at the definite shift before inverse iteration
MAX_REFINEMENTS = 12       # inverse-iteration steps; 3-4 reach solver accuracy
CONVERGED_REL = 1e-10      # residual target relative to 1 + |lambda|
REDUCTION_GUARD = 1.5e-8   # sqrt(eps) * ||H||: smaller pivots end the reduction


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
        if x.ndim == 2:
            diag, off = diag[:, None], off[:, None]
        y = diag * x
        y[:-1] += off[:-1] * x[1:]
        y[1:] += off[:-1] * x[:-1]
        y[0] += off[-1] * x[-1]
        y[-1] += off[-1] * x[0]
        return y

    def toarray(self) -> np.ndarray:
        """The dense (n, n) matrix."""
        diag, off = self.bands
        n = len(diag)
        dense = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
        dense[0, n - 1] += off[-1]
        dense[n - 1, 0] += off[-1]
        return dense


def _norm_bound(bands: np.ndarray) -> float:
    """Row-sum bound on ||H||."""
    return float(np.max(np.abs(bands[0])) + 2.0 * np.max(np.abs(bands[1])))


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


def _reduce_solve(d: np.ndarray, e: np.ndarray, b: np.ndarray, guard: float,
                  tiny: float) -> np.ndarray:
    """Solve the symmetric tridiagonal systems T_s x = b_s by odd-even reduction.

    d (m, s) diagonals, e (m - 1,) shared off-diagonal, b (m, s, r). The
    system is padded with identity rows to 2^L - 1 rows, so every step
    eliminates the even rows, each coupled to two odd ones. With ``guard``
    > 0 the reduction stops before a step with a pivot below ``guard`` and
    hands the rest to the pivoted row solve.
    """
    m, s = d.shape
    size = (1 << m.bit_length()) - 1
    e = np.broadcast_to(e[:, None], (m - 1, 1))
    if size > m:
        d = np.concatenate([d, np.ones((size - m, s))])
        e = np.concatenate([e, np.zeros((size - m, 1))])
        b = np.concatenate([b, np.zeros((size - m,) + b.shape[1:])])
    steps = []
    while len(d) > 1:
        piv = d[0::2]
        if guard and np.min(np.abs(piv)) < guard:
            break
        left, right = e[0::2], e[1::2]
        f_left, f_right = left / piv[:-1], right / piv[1:]
        b_even = b[0::2]
        steps.append((piv[..., None], left[..., None], right[..., None], b_even))
        d = d[1::2] - f_left * left - f_right * right
        b = b[1::2] - f_left[..., None] * b_even[:-1] - f_right[..., None] * b_even[1:]
        e = -f_right[:-1] * left[1:]
    if len(d) == 1 and not (guard and abs(d).min() < guard):
        x = b / d[..., None]
    else:
        x = _row_solve(d, np.broadcast_to(e, (len(d) - 1, s)), b, tiny)
    for piv, left, right, b_even in reversed(steps):
        x_even = b_even.copy()
        x_even[1:] -= right * x
        x_even[:-1] -= left * x
        x_even /= piv
        full = np.empty((len(x_even) + len(x),) + x.shape[1:])
        full[0::2] = x_even
        full[1::2] = x
        x = full
    return x[:m]


def shifted_solve(bands: np.ndarray, shifts: np.ndarray, rhs: np.ndarray,
                  guard: float = 0.0) -> np.ndarray:
    """Columns of (H - shift I)^-1 rhs, one shift per column or one for all.

    Node n - 1 is bordered: the path of nodes 0..n-2 is solved by reduction
    for the right-hand sides and for the coupling column c of node n - 1,
    and the last unknown comes from its Schur complement. The wrap entry of
    the circle lives in c, so the interval and the circle take one path.
    """
    diag, off = bands
    n, p = rhs.shape
    s = len(shifts)
    shifted = diag[:, None] - shifts[None, :]
    c = np.zeros(n - 1)
    c[0] = off[n - 1]
    c[n - 2] += off[n - 2]
    tiny = EPS * _norm_bound(bands)
    columns = np.concatenate([rhs[:-1].reshape(n - 1, s, p // s),
                              np.broadcast_to(c[:, None, None], (n - 1, s, 1))], axis=2)
    x = _reduce_solve(shifted[:-1], off[:-2], columns, guard, tiny)
    u, z = x[:, :, :-1], x[:, :, -1:]
    schur = shifted[-1][:, None] - np.einsum("i,isr->sr", c, z)
    schur = np.where(schur == 0.0, tiny, schur)
    last = (rhs[-1].reshape(s, p // s) - np.einsum("i,isr->sr", c, u)) / schur
    return np.vstack([(u - z * last).reshape(n - 1, p), last.reshape(1, p)])


def lowest_pairs(bands: np.ndarray, k: int, seed: int,
                 start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of the banded operator, ascending, with
    Euclidean-orthonormal eigenvectors.

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
    n = bands.shape[1]
    p = min(n, k + 2)
    op = BandedOperator(bands)
    norm = _norm_bound(bands)
    floor = 8.0 * EPS * norm
    basis = np.random.default_rng(seed).standard_normal((n, p))
    if start is None:
        diag, off = bands
        sigma = float(np.min(diag - np.abs(off) - np.abs(np.roll(off, 1)))) - (1.0 + floor)
        for _ in range(SHIFT_INVERT_STEPS):
            basis, _ = np.linalg.qr(shifted_solve(bands, np.array([sigma]), basis))
    else:
        basis, _ = np.linalg.qr(np.hstack([start[:, :k], basis[:, : p - k]]))
    theta, vecs, h_vecs = _rayleigh_ritz(op, basis, p)
    for _ in range(MAX_REFINEMENTS):
        residuals = np.linalg.norm(h_vecs - vecs * theta, axis=0)
        active = residuals > np.maximum(CONVERGED_REL * (1.0 + np.abs(theta)), floor)
        if not active[:k].any():
            break
        step = shifted_solve(bands, theta[active], vecs[:, active], REDUCTION_GUARD * norm)
        step /= np.max(np.abs(step), axis=0)
        step[:, ~np.all(np.isfinite(step), axis=0)] = 0.0
        basis, _ = np.linalg.qr(np.hstack([vecs, step]))
        theta, vecs, h_vecs = _rayleigh_ritz(op, basis, p)
    return theta[:k], vecs[:, :k]


def _rayleigh_ritz(op: BandedOperator, basis: np.ndarray, p: int):
    """Lowest p Ritz values, Ritz vectors and H times them over an orthonormal basis."""
    h_basis = op @ basis
    theta, coeffs = np.linalg.eigh(basis.T @ h_basis)
    coeffs = coeffs[:, :p]
    return theta[:p], basis @ coeffs, h_basis @ coeffs
