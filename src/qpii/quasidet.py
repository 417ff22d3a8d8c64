"""Quasideterminants over generic division carriers.

A quasideterminant is the noncommutative replacement for a determinant
ratio: position (i, j) of a square matrix A is ``((A^-1)_ji)^-1`` whenever
the inverse entry exists, and over a commutative carrier it reduces to
``(-1)^(i+j) det A / det A^ij``.

* ``quasideterminant_expand`` evaluates one position by the pivot formula
  ``a_ij - row_i(A^ij) (A^ij)^-1 col_j(A^ij)``, with the minor inverted by
  ``invert_by_elimination``: complex blocks are flattened into one scalar
  matrix per stack index for the Gauss-Jordan kernel
  ``invert_complex_matrix``, exact scalars go through partial-pivot
  elimination over the carrier.
* ``quasideterminant_via_inverse`` inverts the whole matrix by recursive
  2x2 block partition and inverts the (j, i) entry of the result; the test
  suite and the self-test cross-check it against the expand path.
* ``all_quasideterminants`` inverts the whole matrix once by elimination
  and reads every position from that inverse.  A position whose inverse
  entry does not invert, or every position when the whole inverse fails,
  falls back to the expand path, so singular minors keep its values and
  errors.
* ``commutative_reduction_check`` compares the expand path with the
  determinant ratio, both determinants computed exactly by elimination;
  ``commutative_reduction`` checks every position with one ``det A``.

Indices are 0-based throughout.
"""

from __future__ import annotations

import json
import re
from typing import Any, Sequence

import numpy as np

from .gaussian import GaussianRational, gauss


class QuasidetError(Exception):
    pass


class NonInvertibleMinor(QuasidetError):
    """A pivot configuration required an inverse that does not exist."""

    def __init__(self, row: int, col: int, message: str = ""):
        super().__init__(message or f"minor of position ({row}, {col}) is not invertible")
        self.row = row
        self.col = col


class NonInvertibleMatrix(QuasidetError):
    """The block-partition recursion hit a singular sub-problem."""


class NonInvertibleEntry(QuasidetError):
    """The required entry of the inverse matrix is itself not invertible."""


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


class ExactScalarCarrier:
    """Exact commutative Gaussian-rational scalars."""

    def zero(self):
        return gauss(0)

    def one(self):
        return gauss(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def invert(self, a):
        if a.is_zero():
            raise ZeroDivisionError("inverse of exact zero")
        return a.inverse()

    def is_zero(self, a) -> bool:
        return a.is_zero()


class ComplexMatrixCarrier:
    """Square complex-matrix blocks of a fixed dimension.

    An element is one ``(dim, dim)`` block or a ``(count, dim, dim)`` stack.
    Inversion is partial-pivot Gauss-Jordan with the relative singularity
    cutoff ``SINGULARITY_TOL``, shared with the numeric backend.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def _coerce(self, a) -> np.ndarray:
        arr = np.asarray(a, dtype=np.complex128)
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (self.dim, self.dim):
            raise QuasidetError(f"expected a {self.dim}x{self.dim} block, got {arr.shape}")
        return arr

    def zero(self):
        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def one(self):
        return np.eye(self.dim, dtype=np.complex128)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a @ b

    def invert(self, a):
        return invert_complex_matrix(self._coerce(a))


# A pivot whose magnitude is at most this fraction of the largest entry of its
# matrix counts as zero: the matrix is singular and no inverse is returned.
SINGULARITY_TOL = 1e-12


def invert_complex_matrix(a: np.ndarray) -> np.ndarray:
    """Partial-pivot Gauss-Jordan inverse with the relative pivot cutoff.

    An ``(n, n)`` matrix is inverted as a stack of one, a ``(count, n, n)``
    stack in whole-stack steps; a failure carries the first failing stack
    index as ``index``.
    """
    inv, failed = _invert_stack(a if a.ndim == 3 else a[None])
    if failed.any():
        index = int(np.argmax(failed))
        err = ZeroDivisionError(f"pivot below tolerance at stack index {index}")
        err.index = index
        raise err
    return inv if a.ndim == 3 else inv[0]


def _invert_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked inverse and the mask of matrices whose pivot fell below the cutoff."""
    count, n, _ = a.shape
    scale = np.max(np.abs(a), axis=(1, 2))
    w = np.concatenate((a, np.broadcast_to(np.eye(n), a.shape)), axis=2).astype(np.complex128)
    stack = np.arange(count)
    failed = np.zeros(count, dtype=bool)
    for k in range(n):
        pivot_row = k + np.argmax(np.abs(w[:, k:, k]), axis=1)
        failed |= np.abs(w[stack, pivot_row, k]) <= SINGULARITY_TOL * scale
        row_k = w[:, k].copy()
        w[:, k] = w[stack, pivot_row]
        w[stack, pivot_row] = row_k
        # a failed matrix divides by one so the rest of the stack stays finite
        w[:, k] /= np.where(failed, 1.0, w[:, k, k])[:, None]
        f = w[:, :, k].copy()
        f[:, k] = 0
        w -= f[:, :, None] * w[:, None, k]
    return w[:, :, n:], failed


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
        rows = [
            [e for cc, e in enumerate(row) if cc != j]
            for rr, row in enumerate(self.rows)
            if rr != i
        ]
        return BlockMatrix(self.carrier, rows)

    def permuted(self, row_perm: Sequence[int], col_perm: Sequence[int]) -> "BlockMatrix":
        rows = [[self.rows[r][c] for c in col_perm] for r in row_perm]
        return BlockMatrix(self.carrier, rows)


def _row_without(M: BlockMatrix, i: int, j: int) -> list:
    return [M.rows[i][c] for c in range(M.n) if c != j]


def _col_without(M: BlockMatrix, i: int, j: int) -> list:
    return [M.rows[r][j] for r in range(M.n) if r != i]


# ---------------------------------------------------------------------------
# Elimination inverse over a carrier (used by the expand path)
# ---------------------------------------------------------------------------


def _pivot(car, work: list, inv: list, k: int):
    """Swap the first invertible candidate of column ``k`` into row ``k``; return its inverse."""
    for r in range(k, len(work)):
        try:
            pivot_inv = car.invert(work[r][k])
        except ZeroDivisionError:
            continue
        if r != k:
            work[k], work[r] = work[r], work[k]
            inv[k], inv[r] = inv[r], inv[k]
        return pivot_inv
    raise ZeroDivisionError(f"no invertible pivot in column {k}")


def _invert_flattened(M: BlockMatrix) -> BlockMatrix:
    """Inverse of complex blocks as one ``n*d`` scalar matrix per stack index."""
    car = M.carrier
    n, d = M.n, car.dim
    blocks = np.stack(np.broadcast_arrays(*(car._coerce(e) for row in M.rows for e in row)))
    lead = blocks.shape[1:-2]
    # (row, col, stack, i, j) -> (stack, row, i, col, j): block (r, c) entry
    # (i, j) becomes scalar entry (r*d + i, c*d + j)
    flat = blocks.reshape(n, n, -1, d, d).transpose(2, 0, 3, 1, 4).reshape(-1, n * d, n * d)
    inv = invert_complex_matrix(flat).reshape(-1, n, d, n, d)
    inv = np.ascontiguousarray(inv.transpose(1, 3, 0, 2, 4)).reshape(n, n, *lead, d, d)
    return BlockMatrix(car, [[inv[r, c] for c in range(n)] for r in range(n)])


def invert_by_elimination(M: BlockMatrix) -> BlockMatrix:
    """Gauss-Jordan inverse of a block matrix.

    Complex blocks, single or stacked, are flattened into one scalar matrix
    per stack index and inverted by ``invert_complex_matrix``; a singular
    index raises its ``ZeroDivisionError`` with ``index``.  Exact scalars are
    eliminated over the carrier: row operations are left multiplications,
    and each column takes the first candidate at or below the diagonal that
    inverts.  Exact arithmetic has no round-off, so no pivot is preferred
    by size.
    """
    car = M.carrier
    if isinstance(car, ComplexMatrixCarrier):
        return _invert_flattened(M)
    n = M.n
    work = [row[:] for row in M.rows]
    inv = [[car.one() if r == c else car.zero() for c in range(n)] for r in range(n)]
    for k in range(n):
        pivot_inv = _pivot(car, work, inv, k)
        work[k] = [car.mul(pivot_inv, e) for e in work[k]]
        inv[k] = [car.mul(pivot_inv, e) for e in inv[k]]
        for r in range(n):
            if r == k or car.is_zero(work[r][k]):
                continue
            f = work[r][k]
            work[r] = [car.sub(e, car.mul(f, p)) for e, p in zip(work[r], work[k])]
            inv[r] = [car.sub(e, car.mul(f, p)) for e, p in zip(inv[r], inv[k])]
    return BlockMatrix(car, inv)


# ---------------------------------------------------------------------------
# Block-partition inverse (used by the via-inverse path)
# ---------------------------------------------------------------------------


def invert_by_block_partition(M: BlockMatrix) -> BlockMatrix:
    """Whole-matrix inverse by recursive 2x2 block partition.

    Requires the leading blocks and both complements to be invertible; this
    is a constraint of the method, not of the matrix.
    """
    car = M.carrier
    n = M.n
    if n == 1:
        try:
            return BlockMatrix(car, [[car.invert(M[(0, 0)])]])
        except ZeroDivisionError as exc:
            raise NonInvertibleMatrix(str(exc)) from exc
    k = n // 2
    A = BlockMatrix(car, [r[:k] for r in M.rows[:k]])
    Bb = [r[k:] for r in M.rows[:k]]
    Cb = [r[:k] for r in M.rows[k:]]
    D = BlockMatrix(car, [r[k:] for r in M.rows[k:]])

    def mat_mul(x, y):
        rows = len(x)
        mid = len(y)
        cols = len(y[0])
        return [
            [
                _sum_terms(car, [car.mul(x[r][m], y[m][c]) for m in range(mid)])
                for c in range(cols)
            ]
            for r in range(rows)
        ]

    def mat_sub(x, y):
        return [[car.sub(a, b) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]

    Ainv = invert_by_block_partition(A).rows
    Dinv = invert_by_block_partition(D).rows
    schur_a = BlockMatrix(car, mat_sub(A.rows, mat_mul(mat_mul(Bb, Dinv), Cb)))
    schur_d = BlockMatrix(car, mat_sub(D.rows, mat_mul(mat_mul(Cb, Ainv), Bb)))
    schur_a_inv = invert_by_block_partition(schur_a).rows
    schur_d_inv = invert_by_block_partition(schur_d).rows

    top_left = schur_a_inv
    top_right = [[car.sub(car.zero(), e) for e in row] for row in mat_mul(mat_mul(Ainv, Bb), schur_d_inv)]
    bottom_left = [[car.sub(car.zero(), e) for e in row] for row in mat_mul(mat_mul(schur_d_inv, Cb), Ainv)]
    bottom_right = schur_d_inv

    rows = [tl + tr for tl, tr in zip(top_left, top_right)]
    rows += [bl + br for bl, br in zip(bottom_left, bottom_right)]
    return BlockMatrix(car, rows)


def _sum_terms(car, terms):
    acc = car.zero()
    for t in terms:
        acc = car.add(acc, t)
    return acc


# ---------------------------------------------------------------------------
# Quasideterminants
# ---------------------------------------------------------------------------


def quasideterminant_expand(M: BlockMatrix, i: int, j: int):
    """Pivot-formula quasideterminant at (i, j), 0-based.

    For n = 1 this is the single entry; otherwise
    ``a_ij - row * (A^ij)^-1 * col`` with the deleted row and column.
    """
    car = M.carrier
    n = M.n
    if not (0 <= i < n and 0 <= j < n):
        raise QuasidetError(f"position ({i}, {j}) out of range for n = {n}")
    if n == 1:
        return M[(0, 0)]
    minor = M.minor(i, j)
    try:
        minor_inv = invert_by_elimination(minor)
    except ZeroDivisionError as exc:
        raise NonInvertibleMinor(i, j, str(exc)) from exc
    row = _row_without(M, i, j)
    col = _col_without(M, i, j)
    correction = _sum_terms(
        car,
        [
            car.mul(car.mul(row[p], minor_inv[(p, q)]), col[q])
            for p in range(n - 1)
            for q in range(n - 1)
        ],
    )
    return car.sub(M[(i, j)], correction)


def quasideterminant_via_inverse(M: BlockMatrix, i: int, j: int):
    """Inverse-characterization quasideterminant: ``((M^-1)_ji)^-1``."""
    car = M.carrier
    if not (0 <= i < M.n and 0 <= j < M.n):
        raise QuasidetError(f"position ({i}, {j}) out of range for n = {M.n}")
    inv = invert_by_block_partition(M)
    entry = inv[(j, i)]
    try:
        return car.invert(entry)
    except ZeroDivisionError as exc:
        raise NonInvertibleEntry(
            f"entry ({j}, {i}) of the inverse is not invertible"
        ) from exc


def all_quasideterminants(M: BlockMatrix) -> dict[tuple[int, int], Any]:
    """All n^2 positions, in row-major order, from one elimination inverse.

    Position (i, j) is ``((M^-1)_ji)^-1``.  Where that entry does not invert,
    or where ``M`` itself does not, the position is evaluated by
    ``quasideterminant_expand`` instead, so a singular minor raises the same
    ``NonInvertibleMinor`` as the per-position path.  Complex entries of the
    inverse are inverted together in one kernel call.  For n = 1 the single
    entry is returned as is.
    """
    if M.n == 1:
        return {(0, 0): M[(0, 0)]}
    positions = [(i, j) for i in range(M.n) for j in range(M.n)]
    try:
        inv = invert_by_elimination(M)
    except ZeroDivisionError:
        return {(i, j): quasideterminant_expand(M, i, j) for i, j in positions}
    values = _invert_entries(M.carrier, [inv[(j, i)] for i, j in positions])
    return {
        (i, j): quasideterminant_expand(M, i, j) if value is None else value
        for (i, j), value in zip(positions, values)
    }


def _invert_entries(car, entries: list) -> list:
    """The inverse of each entry, or None where it does not invert.

    Complex entries are the whole inverse; one at most ``SINGULARITY_TOL``
    times the inverse's largest magnitude at the same stack index is
    round-off of an exact zero and counts as not invertible.
    """
    if isinstance(car, ComplexMatrixCarrier):
        stack = np.stack(entries)
        inv, failed = _invert_stack(stack.reshape(-1, car.dim, car.dim))
        failed = failed.reshape(len(entries), -1)
        mags = np.abs(stack).max(axis=(-2, -1)).reshape(len(entries), -1)
        failed |= mags <= SINGULARITY_TOL * mags.max(axis=0)
        failed = failed.any(axis=1)
        return [None if bad else value for bad, value in zip(failed, inv.reshape(stack.shape))]
    out = []
    for entry in entries:
        try:
            out.append(car.invert(entry))
        except ZeroDivisionError:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# Commutative cross-check
# ---------------------------------------------------------------------------


def det_by_elimination(M: BlockMatrix) -> GaussianRational:
    """Exact determinant by Gaussian elimination over the exact scalar carrier.

    Each column takes its first nonzero entry on or below the diagonal as
    pivot, and each row swap flips the sign; a column without one makes the
    determinant zero.
    """
    car = M.carrier
    if not isinstance(car, ExactScalarCarrier):
        raise QuasidetError("exact determinant requires the exact scalar carrier")
    n = M.n
    work = [row[:] for row in M.rows]
    det = car.one()
    for k in range(n):
        p = next((r for r in range(k, n) if not work[r][k].is_zero()), None)
        if p is None:
            return car.zero()
        if p != k:
            work[k], work[p] = work[p], work[k]
            det = -det
        pivot = work[k][k]
        det = det * pivot
        pivot_inv = pivot.inverse()
        for r in range(k + 1, n):
            if work[r][k].is_zero():
                continue
            f = work[r][k] * pivot_inv
            work[r][k + 1:] = [e - f * q for e, q in zip(work[r][k + 1:], work[k][k + 1:])]
    return det


def commutative_reduction(M: BlockMatrix) -> list[bool | None]:
    """``commutative_reduction_check`` at every position, in row-major order.

    ``det M`` is computed once for all positions.
    """
    det = det_by_elimination(M)
    return [_reduction_outcome(M, i, j, det) for i in range(M.n) for j in range(M.n)]


def commutative_reduction_check(M: BlockMatrix, i: int, j: int) -> bool | None:
    """Exact check of ``|A|_ij == (-1)^(i+j) det A / det A^ij``.

    Returns None (vacuous) when the minor determinant is zero, otherwise
    the boolean outcome of the exact comparison.  For n = 1 the minor is
    empty and its determinant is 1.  A carrier other than the exact scalar
    one raises ``QuasidetError`` from ``det_by_elimination``.
    """
    return _reduction_outcome(M, i, j, det_by_elimination(M))


def _reduction_outcome(M: BlockMatrix, i: int, j: int, det: GaussianRational) -> bool | None:
    """Position (i, j) of the reduction check, given ``det M``."""
    det_minor = det_by_elimination(M.minor(i, j)) if M.n > 1 else M.carrier.one()
    if det_minor.is_zero():
        return None
    expected = det * det_minor.inverse()
    if (i + j) % 2:
        expected = -expected
    return quasideterminant_expand(M, i, j) == expected


# ---------------------------------------------------------------------------
# JSON matrix input
# ---------------------------------------------------------------------------


def load_matrix_json(doc) -> BlockMatrix:
    """Build a BlockMatrix from a JSON array-of-arrays document.

    The first entry settles the carrier.  If it is an array of arrays, every
    entry is a square block of [re, im] pairs or numbers, all of the first
    block's size, over the matrix carrier.  Otherwise every entry is an exact
    scalar: an integer, a Gaussian-rational string, or an [re, im] pair.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
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
    blocks = [[_parse_block(e) for e in row] for row in doc]
    dim = blocks[0][0].shape[0]
    if any(b.shape != (dim, dim) for row in blocks for b in row):
        raise QuasidetError(f"every matrix block must be {dim}x{dim} like the first")
    return BlockMatrix(ComplexMatrixCarrier(dim), blocks)


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


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


def _parse_block(e) -> np.ndarray:
    def scalar(v):
        try:
            if isinstance(v, (int, float)):
                return complex(v)
            if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
                return complex(v[0], v[1])
        except OverflowError as exc:
            raise QuasidetError("matrix block entries must be finite") from exc
        raise QuasidetError(f"cannot parse complex scalar {v!r}")

    if not (
        isinstance(e, list)
        and e
        and all(isinstance(row, list) and len(row) == len(e) for row in e)
    ):
        raise QuasidetError("matrix blocks must be square arrays of arrays")
    arr = np.array([[scalar(v) for v in row] for row in e], dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise QuasidetError("matrix block entries must be finite")
    return arr
