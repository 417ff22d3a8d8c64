"""Quasideterminants over generic division carriers.

A quasideterminant is the noncommutative replacement for a determinant
ratio: position (i, j) of a square matrix A is ``((A^-1)_ji)^-1`` whenever
the inverse entry exists, and over a commutative carrier it reduces to
``(-1)^(i+j) det A / det A^ij``.

* Elimination is a carrier operation: ``car.solve(rows, rhs)`` returns
  ``X`` with ``rows X = rhs`` and ``car.invert_matrix(rows)`` the inverse.
  Complex blocks, single or stacked, are flattened into one scalar system
  per stack index for the one Gauss-Jordan kernel, ``_gauss_jordan``, which
  reduces ``[A | B]`` for the whole stack at once.  Its work array is
  column-major with the stack index last, and step ``k`` touches only the
  columns ``k..`` that the rest of the elimination reads.
* Every exact value comes from one fraction-free kernel on Gaussian
  integers.  Each row of ``[A | B]`` is scaled once by the lcm of its
  denominators into ``(re, im)`` int pairs; ``_fraction_free`` (Bareiss
  elimination, every update divided exactly by the previous pivot) builds
  no rational and runs no gcd; ``_integer_back_substitution`` gives ``D X``
  as integers, ``D`` the last pivot, and ``divided_integers`` builds each
  entry of ``X`` with one gcd.  The exact solve and inverse,
  ``det_by_elimination`` and the cross-check run on it.  A noncommutative
  exact carrier solves the same way: its ``d x d`` blocks flatten into one
  scalar system for the exact scalar carrier's ``solve``, so a block pivot
  need not be invertible on its own.
* ``stack_matmul`` is the one product of complex blocks, single or
  stacked: a sum over the inner index of broadcast products, which for
  blocks of a few rows beats numpy's per-matrix ``@``.  The carrier's
  ``mul`` and the numeric backend's whole-grid products use it; the
  integrator's step loop keeps one ``np.matmul`` per grid step.
* ``quasideterminant_expand`` evaluates one position by the pivot formula
  ``a_ij - row_i(A^ij) x`` with ``x`` the solution of
  ``A^ij x = col_j(A^ij)``, for every carrier.
* ``inverse_characterization`` is the one reader of the inverse: one
  ``car.invert_matrix``, whose entries ``car.invert_entries`` inverts
  under the carrier's one singularity policy, reading None where one does
  not invert.  There ``quasideterminant_via_inverse`` raises and
  ``all_quasideterminants`` falls back to the expand path, as it does at
  every position when the whole inverse fails.
* ``commutative_reduction_check`` compares the pivot formula with the
  determinant ratio exactly: one ``_fraction_free`` of each minor
  ``[G^ij | g_j]`` gives both ``det A^ij`` and the pivot-formula value,
  against ``det G``, computed once per matrix in ``commutative_reduction``.
* ``load_matrix_json`` reads a well-formed block document, ``n x n``
  blocks of ``[re, im]`` pairs or of numbers, in one array pass, and the
  pairs become complex values through a view of the float array, so signed
  zeros are kept.  Any other document goes through the per-scalar parsers,
  ``parse_complex_block`` and ``_parse_exact``, the one source of its error
  messages.

Indices are 0-based throughout.
"""

from __future__ import annotations

import re
from math import prod
from typing import TYPE_CHECKING, Any, Sequence

from . import QpiiError
from .gaussian import GaussianRational, divided_integers, gauss, scaled_to_integers

# numpy is imported inside the functions of the complex-block carrier, so the
# exact path (and every command that only uses it) starts without numpy
if TYPE_CHECKING:
    import numpy as np


class QuasidetError(QpiiError):
    pass


class NonInvertibleMinor(QuasidetError):
    """A pivot configuration required an inverse that does not exist."""

    def __init__(self, row: int, col: int, message: str = ""):
        super().__init__(message or f"minor of position ({row}, {col}) is not invertible")
        self.row = row
        self.col = col


class NonInvertibleMatrix(QuasidetError):
    """The matrix has no inverse."""


class NonInvertibleEntry(QuasidetError):
    """The required entry of the inverse matrix is itself not invertible."""


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


class ExactScalarCarrier:
    """Exact commutative Gaussian-rational scalars."""

    # the scalar's own methods, so the pivot formula pays no extra call per entry
    add = staticmethod(GaussianRational.__add__)
    sub = staticmethod(GaussianRational.__sub__)
    mul = staticmethod(GaussianRational.__mul__)

    def zero(self):
        return gauss(0)

    def one(self):
        return gauss(1)

    def invert_entries(self, entries):
        return [None if e.is_zero() else e.inverse() for e in entries]

    def solve(self, rows, rhs):
        """``X`` with ``rows X = rhs``: ``D X`` on the Gaussian-integer rows of
        ``[rows | rhs]`` by the fraction-free kernel, divided by ``D``."""
        work = [scaled_to_integers([*row, *b])[0] for row, b in zip(rows, rhs)]
        _fraction_free(work)
        y, d = _integer_back_substitution(work)
        return [divided_integers(row, d) for row in y]

    def invert_matrix(self, rows):
        n = range(len(rows))
        return self.solve(rows, [[self.one() if r == c else self.zero() for c in n] for r in n])


class ComplexMatrixCarrier:
    """Square complex-matrix blocks of a fixed dimension.

    An element is one ``(dim, dim)`` block or a ``(count, dim, dim)`` stack.
    ``solve`` and ``invert_matrix`` flatten the blocks, all of one shape,
    into one scalar system per stack index.  Every inverse and solve
    is partial-pivot Gauss-Jordan with the relative singularity cutoff
    ``SINGULARITY_TOL``, shared with the numeric backend; a singular stack
    index raises ``ZeroDivisionError`` with the first one as ``index``.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def _coerce(self, a) -> np.ndarray:
        import numpy as np

        arr = np.asarray(a, dtype=np.complex128)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (self.dim, self.dim):
            raise QuasidetError(f"expected a {self.dim}x{self.dim} block, got {arr.shape}")
        return arr

    def zero(self):
        import numpy as np

        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def one(self):
        import numpy as np

        return np.eye(self.dim, dtype=np.complex128)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return stack_matmul(a, b)

    def scale(self, w, a):
        return w * a

    def invert(self, a):
        return invert_complex_matrix(self._coerce(a))

    def invert_entries(self, entries):
        """The entries of one inverse matrix, inverted in one kernel call.  An
        entry reads None where the kernel fails on it, or where it is at most
        ``SINGULARITY_TOL`` times the largest entry at its stack index, since
        that is round-off of an exact zero."""
        import numpy as np

        stack = np.stack(entries)
        inv, failed = _gauss_jordan(stack.reshape(-1, self.dim, self.dim))
        failed = failed.reshape(len(entries), -1)
        mags = np.abs(stack).max(axis=(-2, -1)).reshape(len(entries), -1)
        failed = (failed | (mags <= SINGULARITY_TOL * mags.max(axis=0))).any(axis=1)
        return [None if bad else value for bad, value in zip(failed, inv.reshape(stack.shape))]

    def _flatten(self, rows) -> tuple[np.ndarray, tuple]:
        """The blocks of ``rows``, all of one shape, as one scalar matrix per
        stack index, and the stack shape: block (r, c) entry (i, j) becomes
        scalar entry (r*d + i, c*d + j)."""
        import numpy as np

        d = self.dim
        try:
            blocks = np.asarray(rows, dtype=np.complex128)
        except ValueError as exc:
            raise QuasidetError(f"expected {d}x{d} blocks of one shape") from exc
        if blocks.ndim not in (4, 5) or blocks.shape[-2:] != (d, d):
            raise QuasidetError(f"expected {d}x{d} blocks of one shape, got {blocks.shape[2:]}")
        n, m = blocks.shape[:2]
        flat = blocks.reshape(n, m, -1, d, d).transpose(2, 0, 3, 1, 4).reshape(-1, n * d, m * d)
        return flat, blocks.shape[2:-2]

    def _unflatten(self, flat: np.ndarray, lead: tuple) -> list[list]:
        d = self.dim
        n, m = flat.shape[1] // d, flat.shape[2] // d
        blocks = flat.reshape(-1, n, d, m, d).transpose(1, 3, 0, 2, 4).reshape(n, m, *lead, d, d)
        return [[blocks[r, c] for c in range(m)] for r in range(n)]

    def solve(self, rows, rhs):
        flat, lead = self._flatten([[*row, *b] for row, b in zip(rows, rhs)])
        nd = len(rows) * self.dim
        x, failed = _gauss_jordan(flat[:, :, :nd], flat[:, :, nd:])
        _raise_first_failure(failed)
        return self._unflatten(x, lead)

    def invert_matrix(self, rows):
        flat, lead = self._flatten(rows)
        return self._unflatten(invert_complex_matrix(flat), lead)


# A pivot whose magnitude is at most this fraction of the largest entry of its
# matrix counts as zero: the matrix is singular and no inverse is returned.
SINGULARITY_TOL = 1e-12


def invert_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Partial-pivot Gauss-Jordan inverse with the relative pivot cutoff.

    An ``(n, n)`` matrix is inverted as a stack of one, a ``(count, n, n)``
    stack in whole-stack steps; a failure carries the first failing stack
    index as ``index``.
    """
    inv, failed = _gauss_jordan(a if a.ndim == 3 else a[None])
    _raise_first_failure(failed)
    return inv if a.ndim == 3 else inv[0]


def _raise_first_failure(failed: np.ndarray) -> None:
    if failed.any():
        index = int(failed.argmax())
        err = ZeroDivisionError(f"pivot below tolerance at stack index {index}")
        err.index = index
        raise err


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for small blocks, single or stacked, as a sum over the inner
    index of broadcast products: one multiply and one add per inner index,
    with a single block broadcast against a stack.  The sum runs in index
    order, so it agrees with ``@`` to round-off, not bit for bit."""
    out = a[..., :, :1] * b[..., :1, :]
    for m in range(1, a.shape[-1]):
        out += a[..., :, m : m + 1] * b[..., m : m + 1, :]
    return out


def _gauss_jordan(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``X`` with ``a X = b`` by reducing ``[a | b]``, and the mask of
    systems whose pivot fell below the cutoff.  ``b`` defaults to the
    identity, so ``X`` is the inverse.

    The work array holds entry (r, c) of system s at ``w[c, r, s]``, so a
    column of every system is one contiguous slab and each step's row
    operations run over the whole stack at once.  Step ``k`` reads only
    columns ``k..``: the columns left of the pivot are reduced and never
    read again, so the row swap touches columns ``k..`` and the division
    and the update only ``k+1..``.
    """
    import numpy as np

    count, n, _ = a.shape
    cut = SINGULARITY_TOL * np.max(np.abs(a), axis=(1, 2))
    w = np.empty((n + (n if b is None else b.shape[2]), n, count), dtype=np.complex128)
    w[:n] = a.transpose(2, 1, 0)
    w[n:] = np.eye(n)[:, :, None] if b is None else b.transpose(2, 1, 0)
    flat = w.reshape(-1)
    at = np.arange(flat.size).reshape(w.shape)
    failed = np.zeros(count, dtype=bool)
    for k in range(n):
        # flat positions of the pivot row's live entries, one row per system
        pivot_at = np.argmax(np.abs(w[k, k:]), axis=0) * count + at[k:, k]
        pivot_row = flat.take(pivot_at)
        flat.put(pivot_at, w[k:, k])
        w[k:, k] = pivot_row
        failed |= np.abs(pivot_row[0]) <= cut
        # a failed matrix divides by one so the rest of the stack stays finite
        w[k + 1 :, k] /= np.where(failed, 1.0, pivot_row[0])
        f = w[k].copy()
        f[k] = 0
        w[k + 1 :] -= f * w[k + 1 :, k, None]
    return np.ascontiguousarray(w[n:].transpose(2, 1, 0)), failed


# ---------------------------------------------------------------------------
# BlockMatrix
# ---------------------------------------------------------------------------


class BlockMatrix:
    """Square matrix of carrier elements sharing one carrier instance."""

    def __init__(self, carrier, rows: Sequence[Sequence[Any]]):
        self.carrier = carrier
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        if n < 1 or any(len(r) != n for r in self.rows):
            raise QuasidetError("block matrix must be square and non-empty")
        self.n = n

    def __getitem__(self, rc: tuple[int, int]):
        r, c = rc
        return self.rows[r][c]

    def minor(self, i: int, j: int) -> "BlockMatrix":
        rows = [row[:j] + row[j + 1:] for r, row in enumerate(self.rows) if r != i]
        return BlockMatrix(self.carrier, rows)


# ---------------------------------------------------------------------------
# Quasideterminants
# ---------------------------------------------------------------------------


def quasideterminant_expand(M: BlockMatrix, i: int, j: int):
    """Pivot-formula quasideterminant at (i, j), 0-based.

    For n = 1 this is the single entry; otherwise
    ``a_ij - sum_p row_p x_p`` with the deleted row and column, where
    ``x = car.solve(A^ij, col)`` solves ``A^ij x = col``, so no minor is
    inverted.  A minor without a solve raises ``NonInvertibleMinor``.
    """
    _check_position(M, i, j)
    if M.n == 1:
        return M[(0, 0)]
    col = [[e[j]] for r, e in enumerate(M.rows) if r != i]
    try:
        x = M.carrier.solve(M.minor(i, j).rows, col)
    except ZeroDivisionError as exc:
        raise NonInvertibleMinor(i, j, str(exc)) from exc
    return _pivot_formula(M, i, j, x)


def _pivot_formula(M: BlockMatrix, i: int, j: int, x: list):
    """``a_ij - sum_p row_p x_p`` over row i without column j, given the
    one-column solution ``x`` of ``A^ij x = col_j``."""
    car = M.carrier
    row = [e for c, e in enumerate(M.rows[i]) if c != j]
    acc = car.zero()
    for r, (xr,) in zip(row, x):
        acc = car.add(acc, car.mul(r, xr))
    return car.sub(M[(i, j)], acc)


def _check_position(M: BlockMatrix, i: int, j: int) -> None:
    if not (0 <= i < M.n and 0 <= j < M.n):
        raise QuasidetError(f"position ({i}, {j}) out of range for n = {M.n}")


def inverse_characterization(M: BlockMatrix) -> list:
    """``((M^-1)_ji)^-1`` at every position, row-major, from one inverse, or
    None where ``car.invert_entries`` does not invert the entry.  A matrix
    without an inverse raises ``NonInvertibleMatrix``."""
    try:
        inv = M.carrier.invert_matrix(M.rows)
    except ZeroDivisionError as exc:
        raise NonInvertibleMatrix(str(exc)) from exc
    return M.carrier.invert_entries([e for column in zip(*inv) for e in column])


def quasideterminant_via_inverse(M: BlockMatrix, i: int, j: int):
    """Position (i, j) of ``inverse_characterization``: ``((M^-1)_ji)^-1``."""
    _check_position(M, i, j)
    value = inverse_characterization(M)[i * M.n + j]
    if value is None:
        raise NonInvertibleEntry(f"entry ({j}, {i}) of the inverse is not invertible")
    return value


def all_quasideterminants(M: BlockMatrix) -> dict[tuple[int, int], Any]:
    """All n^2 positions, in row-major order, from ``inverse_characterization``.

    Where it reads None, or everywhere if ``M`` has no inverse, the position
    is evaluated by ``quasideterminant_expand``, so a singular minor raises
    the same ``NonInvertibleMinor``.  For n = 1 the entry is returned as is.
    """
    if M.n == 1:
        return {(0, 0): M[(0, 0)]}
    positions = [(i, j) for i in range(M.n) for j in range(M.n)]
    try:
        values = inverse_characterization(M)
    except NonInvertibleMatrix:
        values = [None] * len(positions)
    return {
        (i, j): quasideterminant_expand(M, i, j) if value is None else value
        for (i, j), value in zip(positions, values)
    }


# ---------------------------------------------------------------------------
# Commutative cross-check
# ---------------------------------------------------------------------------


def det_by_elimination(M: BlockMatrix) -> GaussianRational:
    """Exact determinant: ``det G`` of the Gaussian-integer rows of ``M``,
    divided by the row scales."""
    rows, scale = _integer_rows(M)
    (det,) = divided_integers([_integer_det(rows)], (scale, 0))
    return det


def _integer_det(rows: list) -> tuple[int, int]:
    """``det G`` by ``_fraction_free`` in place: the last pivot, signed by the
    row swaps, or zero when a column has no nonzero candidate."""
    try:
        sign = _fraction_free(rows)
    except ZeroDivisionError:
        return 0, 0
    a, b = rows[-1][-1]
    return sign * a, sign * b


def _integer_rows(M: BlockMatrix) -> tuple[list[list[tuple[int, int]]], int]:
    """``G``, each row of the exact matrix ``M`` times the lcm of its entries'
    denominators as Gaussian-integer ``(re, im)`` pairs, and the product of
    those lcms, so ``det G = det M * product``."""
    if not isinstance(M.carrier, ExactScalarCarrier):
        raise QuasidetError("exact determinant requires the exact scalar carrier")
    rows, scales = zip(*map(scaled_to_integers, M.rows))
    return list(rows), prod(scales)


def _fraction_free(rows: list) -> int:
    """Bareiss elimination in place of rows of Gaussian-integer ``(re, im)``
    pairs; rows may be wider than their count, and the extra columns take
    the same row operations.

    Each column takes the first nonzero candidate at or below the diagonal.
    The update ``(p e - a q) / prev`` divides exactly by the previous pivot,
    so every entry stays a Gaussian integer and the pivot at ``k`` is the
    leading ``(k+1)``-minor of the row-permuted matrix: the last one is its
    determinant.  Entries below the diagonal are stale.  Returns
    ``(-1)^swaps``; a column without a nonzero candidate raises
    ``ZeroDivisionError`` naming it.
    """
    n = len(rows)
    sign = 1
    vr, vi = 1, 0  # the previous pivot
    for k in range(n):
        for p in range(k, n):
            if rows[p][k] != (0, 0):
                break
        else:
            raise ZeroDivisionError(f"no invertible pivot in column {k}")
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        # (p e - a q) / v = (p v* e - a v* q) / |v|^2: the conjugate v* goes
        # into p once per step and into a once per row, leaving an exact
        # division by the integer norm
        pr, pi = rows[k][k]
        pr, pi = pr * vr + pi * vi, pi * vr - pr * vi
        norm = vr * vr + vi * vi
        pivot_row = rows[k]
        for row in rows[k + 1:]:
            ar, ai = row[k]
            ar, ai = ar * vr + ai * vi, ai * vr - ar * vi
            for c in range(k + 1, len(row)):
                (er, ei), (qr, qi) = row[c], pivot_row[c]
                row[c] = (
                    (pr * er - pi * ei - ar * qr + ai * qi) // norm,
                    (pr * ei + pi * er - ar * qi - ai * qr) // norm,
                )
        vr, vi = pivot_row[k]
    return sign


def _integer_back_substitution(work: list) -> tuple[list, tuple[int, int]]:
    """The rows of ``Y = D X`` and ``D``, where ``X`` solves the ``m`` rows
    ``[U | B]`` that ``_fraction_free`` left in ``work`` and ``D`` is the last
    pivot (1 for no rows): the determinant of the row-permuted matrix, so by
    Cramer's rule ``Y`` is integral and each step
    ``u_kk y_k = D b_k - sum_{c > k} u_kc y_c`` divides exactly."""
    m = len(work)
    d = work[-1][m - 1] if m else (1, 0)
    y = [None] * m
    for k in reversed(range(m)):
        row = work[k]
        pr, pi = row[k]
        norm = pr * pr + pi * pi
        y[k] = []
        for c, b in enumerate(row[m:]):
            sr, si = _residual(d, b, row[k + 1 : m], [yl[c] for yl in y[k + 1 :]])
            y[k].append(((sr * pr + si * pi) // norm, (si * pr - sr * pi) // norm))
    return y, d


def commutative_reduction(M: BlockMatrix) -> list[bool | None]:
    """``commutative_reduction_check`` at every position, in row-major order,
    with ``det G`` and the Gaussian-integer rows ``G`` computed once."""
    rows, det = _integer_form(M)
    return [_reduction_outcome(rows, i, j, det) for i in range(M.n) for j in range(M.n)]


def commutative_reduction_check(M: BlockMatrix, i: int, j: int) -> bool | None:
    """Exact check of ``|A|_ij == (-1)^(i+j) det A / det A^ij``.

    Returns None (vacuous) when the minor determinant is zero, otherwise
    the boolean outcome of the exact comparison.  For n = 1 the minor is
    empty and its determinant is 1.  A position out of range, or a carrier
    other than the exact scalar one, raises ``QuasidetError``.
    """
    _check_position(M, i, j)
    rows, det = _integer_form(M)
    return _reduction_outcome(rows, i, j, det)


def _integer_form(M: BlockMatrix) -> tuple[list, tuple[int, int]]:
    """The Gaussian-integer rows ``G`` of ``M`` and ``det G``."""
    rows, _scale = _integer_rows(M)
    return rows, _integer_det([row[:] for row in rows])


def _reduction_outcome(rows: list, i: int, j: int, det: tuple[int, int]) -> bool | None:
    """Position (i, j) of the reduction check, given the Gaussian-integer
    rows ``G`` of ``A`` and ``det G``.

    The row scales cancel: with ``x`` solving ``G^ij x = g_j``, the column
    ``j`` of ``G`` without row ``i``, the check reads
    ``det G^ij (g_ij - sum_c g_ic x_c) == (-1)^(i+j) det G``.  One
    ``_fraction_free`` of ``[G^ij | g_j]`` gives the sign ``s`` and the last
    pivot ``D``, with ``det G^ij = s D``, and ``_integer_back_substitution``
    ``y = D x``, so the left side is ``s (g_ij D - sum_c g_ic y_c)`` in
    integers.  A minor without a pivot is singular: vacuous.  For n = 1 the
    minor is empty, ``s = D = 1``.
    """
    work = [row[:j] + row[j + 1:] + row[j : j + 1] for row in rows[:i] + rows[i + 1:]]
    try:
        sign = _fraction_free(work)
    except ZeroDivisionError:
        return None
    y, d = _integer_back_substitution(work)
    row = rows[i]
    sr, si = _residual(d, row[j], row[:j] + row[j + 1:], [yk for (yk,) in y])
    if (i + j) % 2:
        sign = -sign
    return (sign * sr, sign * si) == det


def _residual(d: tuple[int, int], b: tuple[int, int], us: list, ys: list) -> tuple[int, int]:
    """``d b - sum_c u_c y_c`` over Gaussian-integer pairs."""
    (dr, di), (br, bi) = d, b
    sr, si = dr * br - di * bi, dr * bi + di * br
    for (ur, ui), (yr, yi) in zip(us, ys):
        sr -= ur * yr - ui * yi
        si -= ur * yi + ui * yr
    return sr, si


# ---------------------------------------------------------------------------
# JSON matrix input
# ---------------------------------------------------------------------------


def load_matrix_json(doc) -> BlockMatrix:
    """Build a BlockMatrix from a decoded JSON array-of-arrays document.

    The first entry settles the carrier.  If it is an array of arrays, every
    entry is a square block of [re, im] pairs or numbers (not booleans), all
    of the first block's size, over the matrix carrier; a well-formed
    document is read as one array, whose blocks the rows hold as views.
    Otherwise every entry is an exact scalar: an integer, a Gaussian-rational
    string, or an [re, im] pair.
    """
    if (
        not isinstance(doc, list)
        or not doc
        or not all(isinstance(row, list) and row for row in doc)
    ):
        raise QuasidetError("matrix document must be a non-empty array of arrays")
    first = doc[0][0]
    if not (isinstance(first, list) and first and isinstance(first[0], list)):
        rows = [[_parse_exact(e) for e in row] for row in doc]
        return BlockMatrix(ExactScalarCarrier(), rows)
    blocks = _block_array(doc)
    if blocks is not None:
        return BlockMatrix(ComplexMatrixCarrier(blocks.shape[2]), blocks)
    blocks = [[parse_complex_block(e) for e in row] for row in doc]
    dim = blocks[0][0].shape[0]
    if any(b.shape != (dim, dim) for row in blocks for b in row):
        raise QuasidetError(f"every matrix block must be {dim}x{dim} like the first")
    return BlockMatrix(ComplexMatrixCarrier(dim), blocks)


def _block_array(doc) -> np.ndarray | None:
    """The ``(n, n, d, d)`` complex array of a well-formed block document, in
    one array pass, or None.

    Well-formed is ``(n, n, d, d, 2)`` of ``[re, im]`` pairs or
    ``(n, n, d, d)`` of numbers, every leaf an int or a float (numpy would
    take a boolean or a numeric string without a word), finite as a float.
    The pairs become complex values through a view of the float array, so
    the bits of each part, signed zeros included, are those that
    ``complex(re, im)`` gives.  Anything else reads None and goes to the
    per-scalar parser, the one source of error messages.
    """
    import numpy as np

    obj = np.array(doc, dtype=object)
    shape = obj.shape
    pairs = obj.ndim == 5 and shape[4] == 2
    if not (pairs or obj.ndim == 4) or shape[0] != shape[1] or shape[2] != shape[3]:
        return None
    if not set(map(type, obj.ravel().tolist())) <= {int, float}:
        return None
    try:
        values = obj.astype(np.float64)
    except OverflowError:
        return None
    if not np.isfinite(values).all():
        return None
    if pairs:
        return values.view(np.complex128).reshape(shape[:4])
    return values.astype(np.complex128)


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_exact(e) -> GaussianRational:
    """An integer, a Gaussian-rational string, or an [re, im] pair.

    The parts of a pair are integers or rational strings such as "-3/4".
    JSON floats and booleans are not exact entries, bare or inside a pair.
    """
    try:
        if isinstance(e, str):
            return GaussianRational.parse(e)
        if type(e) is int:
            return GaussianRational(e)
        if isinstance(e, list) and len(e) == 2 and all(_is_rational_part(p) for p in e):
            return GaussianRational(*e)
    except (ArithmeticError, ValueError) as exc:
        raise QuasidetError(f"cannot parse exact entry {e!r}") from exc
    raise QuasidetError(f"cannot parse exact entry {e!r}")


def _is_rational_part(p) -> bool:
    return type(p) is int or (isinstance(p, str) and _RATIONAL_RE.fullmatch(p) is not None)


def parse_complex_scalar(v) -> complex:
    """A JSON number or an ``[re, im]`` pair of numbers; booleans and
    strings are not numbers.  Block documents and darboux configs share it.
    An integer too large for a float raises ``OverflowError``."""
    if type(v) in (int, float):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) for x in v):
        return complex(v[0], v[1])
    raise QuasidetError(f"cannot parse complex scalar {v!r}")


def parse_complex_block(e) -> np.ndarray:
    """A finite square array of arrays of ``parse_complex_scalar`` values."""
    import numpy as np

    if not (
        isinstance(e, list)
        and e
        and all(isinstance(row, list) and len(row) == len(e) for row in e)
    ):
        raise QuasidetError("matrix blocks must be square arrays of arrays")
    try:
        arr = np.array([[parse_complex_scalar(v) for v in row] for row in e], dtype=np.complex128)
    except OverflowError as exc:
        raise QuasidetError("matrix block entries must be finite") from exc
    if not np.isfinite(arr).all():
        raise QuasidetError("matrix block entries must be finite")
    return arr
