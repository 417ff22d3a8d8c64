import json
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpii import quasidet
from qpii.cli import main
from qpii.gaussian import gauss, scaled_to_integers
from qpii.quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    ExactScalarCarrier,
    NonInvertibleEntry,
    NonInvertibleMatrix,
    NonInvertibleMinor,
    QuasidetError,
    SINGULARITY_TOL,
    _gauss_jordan,
    _integer_rows,
    _reduction_outcome,
    all_quasideterminants,
    commutative_reduction,
    commutative_reduction_check,
    det_by_elimination,
    invert_complex_matrix,
    load_matrix_json,
    quasideterminant_expand,
    quasideterminant_via_inverse,
    stack_matmul,
)
from test_darboux import ExactMatrixCarrier, exact_sampler

EXACT = ExactScalarCarrier()


def exact_matrix(rows):
    return BlockMatrix(EXACT, [[gauss(Fraction(e)) for e in row] for row in rows])


def random_exact_matrix(rng, n):
    return BlockMatrix(
        EXACT,
        [
            [
                gauss(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ],
    )


def random_block_matrix(rng, n, dim):
    carrier = ComplexMatrixCarrier(dim)

    def block(diag_boost):
        b = np.array(
            [
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]
                for _ in range(dim)
            ]
        )
        return b + diag_boost * np.eye(dim)

    rows = [[block(3.0 if r == c else 0.0) for c in range(n)] for r in range(n)]
    return BlockMatrix(carrier, rows)


def stacked_matrix(points):
    """One block matrix whose elements stack the same position of each point."""
    n = points[0].n
    return BlockMatrix(
        points[0].carrier,
        [[np.stack([p[(r, c)] for p in points]) for c in range(n)] for r in range(n)],
    )


def det_cofactor(M):
    """Test oracle: exact determinant by first-row cofactor expansion, O(n!)."""
    assert M.n <= 4
    if M.n == 1:
        return M[(0, 0)]
    acc = gauss(0)
    for j in range(M.n):
        term = M[(0, j)] * det_cofactor(M.minor(0, j))
        acc = acc - term if j % 2 else acc + term
    return acc


def rational_gauss_jordan(rows, rhs=None):
    """Test oracle: exact Gauss-Jordan on ``[A | B]`` over Gaussian rationals.

    Returns ``X`` with ``A X = B`` (``B`` defaults to the identity, so ``X``
    is the inverse), the number of row swaps and ``det A``.  Each column
    takes the first nonzero candidate on or below the diagonal, and a column
    without one raises ``ZeroDivisionError`` naming it.  Every exact solve,
    inverse and determinant of the fraction-free kernel must agree with it.
    """
    n = len(rows)
    if rhs is None:
        rhs = [[gauss(int(r == c)) for c in range(n)] for r in range(n)]
    work = [[*row, *b] for row, b in zip(rows, rhs)]
    swaps, det = 0, gauss(1)
    for k in range(n):
        p = next((r for r in range(k, n) if not work[r][k].is_zero()), None)
        if p is None:
            raise ZeroDivisionError(f"no invertible pivot in column {k}")
        if p != k:
            work[k], work[p] = work[p], work[k]
            swaps += 1
        det = det * work[k][k]
        pivot_inv = work[k][k].inverse()
        work[k] = [pivot_inv * e for e in work[k]]
        for r in range(n):
            if r == k or work[r][k].is_zero():
                continue
            f = work[r][k]
            work[r] = [e - f * q for e, q in zip(work[r], work[k])]
    return [row[n:] for row in work], swaps, -det if swaps % 2 else det


def expand_by_minor_inverse(M, i, j):
    """Test oracle: the complex pivot formula as it was before the solve,
    ``a_ij - sum_pq row_p (A^ij)^-1_pq col_q`` with the whole minor inverted."""
    car = M.carrier
    minor_inv = car.invert_matrix(M.minor(i, j).rows)
    row = [M[(i, c)] for c in range(M.n) if c != j]
    col = [M[(r, j)] for r in range(M.n) if r != i]
    acc = car.zero()
    for p in range(M.n - 1):
        for q in range(M.n - 1):
            acc = car.add(acc, car.mul(car.mul(row[p], minor_inv[p][q]), col[q]))
    return car.sub(M[(i, j)], acc)


def expand_positions(M):
    """Every position by ``quasideterminant_expand`` in row-major order, or the first error."""
    try:
        return {
            (i, j): quasideterminant_expand(M, i, j) for i in range(M.n) for j in range(M.n)
        }
    except NonInvertibleMinor as exc:
        return exc


def with_singular_minor(rng, n):
    """A random exact matrix whose row 1 repeats row 0 except in one column.

    Every minor that deletes that column and a row other than 0 and 1 is
    singular, while the matrix itself usually is not.
    """
    M = random_exact_matrix(rng, n)
    col = rng.randrange(n)
    M.rows[1] = [M.rows[0][c] if c != col else M.rows[1][c] for c in range(n)]
    return M


def with_singular_block_minor(rng):
    """A random 3x3 matrix of 2x2 blocks whose (0, 0) minor is [[I, I], [I, I]]."""
    M = [random_block_matrix(rng, 3, 2) for _ in range(3)][-1]
    for r in (1, 2):
        for c in (1, 2):
            M.rows[r][c] = np.eye(2, dtype=complex)
    return M


# -- basic positions ---------------------------------------------------------


def test_two_by_two_upper_left():
    M = exact_matrix([[1, 2], [3, 4]])
    got = quasideterminant_expand(M, 0, 0)
    # 1 - 2 * (1/4) * 3 = -1/2, equal to det/det^11 = -2/4
    assert got == gauss(Fraction(-1, 2))


def test_diagonal_matrix_positions():
    M = exact_matrix([[5, 0, 0], [0, 7, 0], [0, 0, 9]])
    for i, want in enumerate((5, 7, 9)):
        assert quasideterminant_expand(M, i, i) == gauss(want)


def test_identity_via_inverse():
    M = exact_matrix([[1, 0], [0, 1]])
    assert quasideterminant_via_inverse(M, 0, 0) == gauss(1)
    assert quasideterminant_via_inverse(M, 1, 1) == gauss(1)


def test_enumeration_has_n_squared_positions():
    M = exact_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    qs = all_quasideterminants(M)
    assert len(qs) == 9


def test_all_quasideterminants_single_entry_is_the_entry():
    M = exact_matrix([[7]])
    assert all_quasideterminants(M)[(0, 0)] is M[(0, 0)]
    B = random_block_matrix(random.Random(1), 1, 2)
    assert all_quasideterminants(B)[(0, 0)] is B[(0, 0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_all_quasideterminants_exact_matches_expand(n):
    rng = random.Random(3000 + n)
    matrices = [random_exact_matrix(rng, n) for _ in range(3)]
    if n >= 3:
        singular = random_exact_matrix(rng, n)
        singular.rows[1] = singular.rows[0][:]
        matrices += [with_singular_minor(rng, n), singular]
    raised = 0
    for M in matrices:
        want = expand_positions(M)
        if isinstance(want, NonInvertibleMinor):
            raised += 1
            with pytest.raises(NonInvertibleMinor) as err:
                all_quasideterminants(M)
            assert (err.value.row, err.value.col) == (want.row, want.col)
            assert str(err.value) == str(want)
            continue
        got = all_quasideterminants(M)
        assert list(got) == list(want)
        assert {k: str(v) for k, v in got.items()} == {k: str(v) for k, v in want.items()}
    assert raised == (2 if n >= 3 else 0)


def test_all_quasideterminants_singular_minor_after_valid_positions():
    # only the minors of (2, 0) and (3, 0) are singular, so the inverse
    # serves every earlier position and the error names (2, 0)
    M = exact_matrix([[1, 2, 0, 1], [3, 2, 0, 1], [3, 1, 4, 0], [0, 1, 1, 2]])
    want = expand_positions(M)
    assert isinstance(want, NonInvertibleMinor) and (want.row, want.col) == (2, 0)
    with pytest.raises(NonInvertibleMinor) as err:
        all_quasideterminants(M)
    assert (err.value.row, err.value.col, str(err.value)) == (want.row, want.col, str(want))


def test_all_quasideterminants_swap_matrix_raises_like_expand():
    M = exact_matrix([[0, 1], [1, 0]])
    with pytest.raises(NonInvertibleMinor) as want:
        quasideterminant_expand(M, 0, 0)
    with pytest.raises(NonInvertibleMinor) as got:
        all_quasideterminants(M)
    assert (got.value.row, got.value.col) == (0, 0)
    assert str(got.value) == str(want.value) == "no invertible pivot in column 0"


def test_all_quasideterminants_round_off_entry_raises_like_expand():
    # the (0, 0) minor [[I, I], [I, I]] is singular, so entry (0, 0) of the
    # inverse is zero up to round-off; inverting that noise gave a 1e16 block
    M = with_singular_block_minor(random.Random(8))
    with pytest.raises(NonInvertibleMinor) as want:
        quasideterminant_expand(M, 0, 0)
    with pytest.raises(NonInvertibleMinor) as got:
        all_quasideterminants(M)
    assert (got.value.row, got.value.col, str(got.value)) == (0, 0, str(want.value))
    with pytest.raises(NonInvertibleEntry):
        quasideterminant_via_inverse(M, 0, 0)


def test_via_inverse_reads_like_all_quasideterminants():
    # one singularity policy: via_inverse returns the value of
    # all_quasideterminants bit for bit, and raises exactly at the positions
    # where all_quasideterminants fell back to the expand path
    import qpii.quasidet as qd

    rng = random.Random(2301)
    matrices = [exact_matrix([[0, 1], [1, 0]]), with_singular_block_minor(rng)]
    for n in (2, 3, 4):
        matrices += [random_exact_matrix(rng, n), with_singular_minor(rng, n)]
        matrices += [random_block_matrix(rng, n, d) for d in (2, 3)]
    singular = random_block_matrix(rng, 3, 2)
    singular.rows[1] = singular.rows[0][:]
    matrices.append(singular)
    fallback = object()
    fell_back = 0
    for M in matrices:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qd, "quasideterminant_expand", lambda *_args: fallback)
            want = all_quasideterminants(M)
        for (i, j), value in want.items():
            if value is fallback:
                fell_back += 1
                with pytest.raises((NonInvertibleEntry, NonInvertibleMatrix)):
                    quasideterminant_via_inverse(M, i, j)
                continue
            got = quasideterminant_via_inverse(M, i, j)
            assert got == value if M.carrier is EXACT else np.array_equal(got, value)
    # the diagonal of the swap matrix, (0, 0) of the round-off matrix, three
    # exact singular minors, and all nine positions of the singular block matrix
    assert fell_back == 2 + 1 + 3 + 9


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_all_quasideterminants_blocks_match_expand(d, n):
    M = random_block_matrix(random.Random(100 * d + n), n, d)
    got = all_quasideterminants(M)
    assert list(got) == [(i, j) for i in range(n) for j in range(n)]
    for (i, j), value in got.items():
        want = quasideterminant_expand(M, i, j)
        assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))


def test_all_quasideterminants_uses_one_inverse(monkeypatch):
    # an invertible generic matrix never needs the per-position path
    import qpii.quasidet as qd

    def refuse(*_args):
        raise AssertionError("per-position expand path taken")

    monkeypatch.setattr(qd, "quasideterminant_expand", refuse)
    M = random_block_matrix(random.Random(5), 6, 3)
    assert len(all_quasideterminants(M)) == 36
    E = random_exact_matrix(random.Random(6), 4)
    assert det_cofactor(E) != gauss(0)
    assert len(all_quasideterminants(E)) == 16


def test_all_quasideterminants_inverts_complex_entries_together(monkeypatch):
    # the n^2 entries of the inverse go through one stacked kernel call,
    # bit for bit what one call per entry returns
    M = random_block_matrix(random.Random(7), 5, 3)
    inv = M.carrier.invert_matrix(M.rows)
    want = {(i, j): invert_complex_matrix(inv[j][i]) for i in range(5) for j in range(5)}

    def refuse(*_args):
        raise AssertionError("complex entry inverted on its own")

    monkeypatch.setattr(ComplexMatrixCarrier, "invert", refuse)
    got = all_quasideterminants(M)
    assert list(got) == list(want)
    assert all(np.array_equal(got[p], want[p]) for p in want)


def test_all_quasideterminants_over_stacked_blocks():
    # elements stacked over 4 points equal the evaluation at each point; then
    # point 2 becomes a block permutation matrix, whose inverse has an exact
    # zero entry (0, 0): only that position falls back to the expand path,
    # which raises for the whole stack
    rng = random.Random(8)
    points = [random_block_matrix(rng, 3, 2) for _ in range(4)]
    stacked = stacked_matrix(points)
    got = all_quasideterminants(stacked)
    for k, point in enumerate(points):
        at_point = all_quasideterminants(point)
        assert all(np.array_equal(got[pos][k], at_point[pos]) for pos in at_point)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    for r in range(3):
        for c in range(3):
            stacked.rows[r][c] = stacked.rows[r][c].copy()
            stacked.rows[r][c][2] = swap[r][c] * np.eye(2)
    stacked.carrier.invert_matrix(stacked.rows)
    with pytest.raises(NonInvertibleMinor) as err:
        all_quasideterminants(stacked)
    assert (err.value.row, err.value.col) == (0, 0)


def test_singular_minor_raises():
    M = exact_matrix([[1, 2], [0, 0]])
    with pytest.raises(NonInvertibleMinor) as err:
        quasideterminant_expand(M, 0, 0)
    assert (err.value.row, err.value.col) == (0, 0)


def test_via_inverse_needs_no_invertible_leading_block():
    M = exact_matrix([[0, 1], [1, 0]])
    for i, j in ((0, 1), (1, 0)):
        assert quasideterminant_via_inverse(M, i, j) == gauss(1)
        assert quasideterminant_expand(M, i, j) == gauss(1)
    with pytest.raises(NonInvertibleEntry):
        quasideterminant_via_inverse(M, 0, 0)


def test_via_inverse_singular_matrix():
    M = exact_matrix([[1, 2], [2, 4]])
    with pytest.raises(NonInvertibleMatrix):
        quasideterminant_via_inverse(M, 0, 0)


def test_noninvertible_entry():
    # inverse of [[1,1],[0,1]] is [[1,-1],[0,1]]; its (1,0) entry is zero,
    # so position (0,1) has no quasideterminant by the inverse route.
    M = exact_matrix([[1, 1], [0, 1]])
    with pytest.raises(NonInvertibleEntry):
        quasideterminant_via_inverse(M, 0, 1)


# -- exact pivot formula by one solve ------------------------------------------


def zero_heavy_rows(rng, n, width):
    """Small Gaussian integers and halves, mostly zero at a drawn rate, so
    minors need row swaps and are often singular."""
    zero_rate = rng.choice((0.3, 0.5, 0.7))

    def entry():
        if rng.random() < zero_rate:
            return gauss(0)
        return gauss(Fraction(rng.randint(-2, 2), rng.choice((1, 2))), rng.choice((0, 0, 1, -1)))

    return [[entry() for _ in range(width)] for _ in range(n)]


def zero_heavy_matrix(rng, n):
    return BlockMatrix(EXACT, zero_heavy_rows(rng, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_expand_matches_gauss_jordan_pivot_formula(n):
    rng = random.Random(4100 + n)
    raised = swapped = 0
    for _ in range(40 if n <= 4 else 12):
        M = zero_heavy_matrix(rng, n)
        for i in range(n):
            for j in range(n):
                if n == 1:
                    assert quasideterminant_expand(M, i, j) is M[(0, 0)]
                    continue
                try:
                    minor_inv, swaps, _det = rational_gauss_jordan(M.minor(i, j).rows)
                except ZeroDivisionError as exc:
                    raised += 1
                    with pytest.raises(NonInvertibleMinor) as err:
                        quasideterminant_expand(M, i, j)
                    assert (err.value.row, err.value.col, str(err.value)) == (i, j, str(exc))
                    continue
                swapped += swaps > 0
                row = [M[(i, c)] for c in range(n) if c != j]
                col = [M[(r, j)] for r in range(n) if r != i]
                want = M[(i, j)]
                for p in range(n - 1):
                    for q in range(n - 1):
                        want = want - row[p] * minor_inv[p][q] * col[q]
                assert str(quasideterminant_expand(M, i, j)) == str(want)
    if n >= 2:
        assert raised >= 10
    if n >= 3:
        assert swapped >= 10


def test_exact_expand_inverts_no_minor(monkeypatch):
    # the exact pivot formula solves against the deleted column; inverting
    # each minor would cost about five times the multiplications at n = 6
    import qpii.quasidet as qd

    def refuse(*_args):
        raise AssertionError("minor inverted")

    monkeypatch.setattr(qd.ExactScalarCarrier, "invert_matrix", refuse)
    M = random_exact_matrix(random.Random(9), 5)
    assert len(expand_positions(M)) == 25
    assert commutative_reduction(M) == [True] * 25


def _solved_or_message(solve, *args):
    try:
        return solve(*args)
    except ZeroDivisionError as exc:
        return str(exc)


def _rational_solution(rows, rhs=None):
    return rational_gauss_jordan(rows, rhs)[0]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 6), width=st.integers(1, 3))
def test_exact_solve_and_inverse_match_rational_reference(rng, n, width):
    # the fraction-free solve and inverse equal the rational Gauss-Jordan
    # value for value, and on singular input raise its message
    rows = zero_heavy_rows(rng, n, n)
    rhs = zero_heavy_rows(rng, n, width)
    want = _solved_or_message(_rational_solution, rows, rhs)
    assert _solved_or_message(EXACT.solve, rows, rhs) == want
    want_inverse = _solved_or_message(_rational_solution, rows)
    assert _solved_or_message(EXACT.invert_matrix, rows) == want_inverse
    assert isinstance(want, str) == isinstance(want_inverse, str)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_solve_over_blocks_multiplies_from_the_left(n):
    # blocks do not commute, so only left multiplications in the row
    # operations and the back substitution solve rows X = rhs; the zero
    # block at (0, 0) forces a row swap of rows and right-hand side alike.
    # The complex carrier solves to round-off, the exact matrix carrier exactly.
    rng = np.random.default_rng(n)
    car = ComplexMatrixCarrier(2)

    def block():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    rows = [[block() + (3 * np.eye(2) if r == c else 0) for c in range(n)] for r in range(n)]
    if n > 1:
        rows[0][0] = np.zeros((2, 2), dtype=complex)
    rhs = [[block() for _ in range(3)] for _ in range(n)]
    x = car.solve(rows, rhs)
    residual = np.block(rows) @ np.block(x) - np.block(rhs)
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(np.block(rhs)))

    car = ExactMatrixCarrier(2)
    _entry, matrix = exact_sampler(random.Random(f"blocks:{n}"), 2)
    rows = [[matrix() for _ in range(n)] for _ in range(n)]
    if n > 1:
        rows[0][0] = car.zero()
    rhs = [[matrix() for _ in range(3)] for _ in range(n)]
    x = car.solve(rows, rhs)
    for row, b in zip(rows, rhs):
        for c in range(3):
            got = car.zero()
            for e, xr in zip(row, x):
                got = car.add(got, car.mul(e, xr[c]))
            assert got == b[c]


def test_exact_blocks_need_no_invertible_block_pivot():
    # both blocks in column 0 of the minor at (2, 2) are singular, though the
    # minor is not: the flattened solve pivots on scalars, so the position
    # evaluates, where a block-wise elimination finds no pivot in column 0
    car = ExactMatrixCarrier(2)
    one, zero = car.one(), car.zero()
    e11 = ((gauss(1), gauss(0)), (gauss(0), gauss(0)))
    e22 = ((gauss(0), gauss(0)), (gauss(0), gauss(1)))
    M = BlockMatrix(car, [[e11, e22, one], [e22, e11, zero], [one, zero, one]])
    assert quasideterminant_expand(M, 2, 2) == e22


# -- complex solve -------------------------------------------------------------


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_expand_matches_minor_inverse_oracle(n, d, stacked):
    rng = random.Random(f"oracle:{n}:{d}")
    M = random_block_matrix(rng, n, d)
    if stacked:
        M = stacked_matrix([M] + [random_block_matrix(rng, n, d) for _ in range(3)])
    for i in range(n):
        for j in range(n):
            got = quasideterminant_expand(M, i, j)
            want = expand_by_minor_inverse(M, i, j)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("stack", [None, 4], ids=["single", "stacked"])
@pytest.mark.parametrize("m", [1, 3])
def test_complex_solve_matches_numpy(m, stack):
    # random blocks, so the kernel swaps rows; the solution is compared with
    # numpy's on the assembled scalar system at every stack index
    rng = np.random.default_rng(m)
    n, d = 4, 3
    shape = (d, d) if stack is None else (stack, d, d)

    def block():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rows = [[block() for _ in range(n)] for _ in range(n)]
    rhs = [[block() for _ in range(m)] for _ in range(n)]
    x = ComplexMatrixCarrier(d).solve(rows, rhs)
    assert (len(x), len(x[0])) == (n, m)

    def assembled(blocks, s):
        return np.block([[b if s is None else b[s] for b in row] for row in blocks])

    for s in [None] if stack is None else range(stack):
        want = np.linalg.solve(assembled(rows, s), assembled(rhs, s))
        assert np.max(np.abs(assembled(x, s) - want)) <= 1e-12 * np.max(np.abs(want))


def test_complex_solve_reports_first_singular_index():
    rng = np.random.default_rng(12)
    rows = _stacked_blocks(rng, 12, 3, 2)
    rhs = [[b] for b in _stacked_blocks(rng, 12, 3, 2)[0]]
    for s in (5, 9):  # row 2 repeats row 0
        for c in range(3):
            rows[2][c][s] = rows[0][c][s]
    with pytest.raises(ZeroDivisionError) as err:
        ComplexMatrixCarrier(2).solve(rows, rhs)
    assert err.value.index == 5


# -- inverses ----------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_inverse_matches_single_matrices(d):
    rng = np.random.default_rng(d)
    shape = (25, d, d)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack[3] *= 1e6  # pivot cutoffs are relative to each matrix's own scale
    got = invert_complex_matrix(stack)
    for a, inv in zip(stack, got):
        want = invert_complex_matrix(a)
        assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_inverse_reports_first_singular_index():
    stack = np.broadcast_to(np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex), (12, 2, 2)).copy()
    stack[5] = [[1.0, 2.0], [2.0, 4.0]]
    stack[9] = 0.0
    with pytest.raises(ZeroDivisionError) as err:
        invert_complex_matrix(stack)
    assert err.value.index == 5


def _stacked_blocks(rng, count, n, d):
    shape = (count, d, d)
    return [[rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(n)] for _ in range(n)]


def test_stacked_elimination_pivots_per_index():
    # each stack index picks its own pivot, so a stack matches its slices
    # even where the candidates of a column are singular at different indices
    rng = np.random.default_rng(7)
    count, n, d = 9, 3, 2
    rows = _stacked_blocks(rng, count, n, d)
    rows[0][0][2] = 0.0
    rows[1][0][5] = 0.0
    rows[2][0][5] *= 1e-3
    car = ComplexMatrixCarrier(d)
    got = car.invert_matrix(rows)
    for s in range(count):
        want = car.invert_matrix([[e[s] for e in row] for row in rows])
        for r in range(n):
            for c in range(n):
                assert np.array_equal(got[r][c][s], want[r][c])


def test_stacked_elimination_reports_first_index_without_pivot():
    rng = np.random.default_rng(8)
    rows = _stacked_blocks(rng, 10, 2, 2)
    rows[0][0] *= 10  # the larger candidate overall, singular at 2
    rows[0][0][4] = rows[1][0][4] = 0.0
    rows[0][0][6] = rows[1][0][6] = 0.0
    rows[0][0][2] = 0.0  # the other candidate still inverts at 2
    with pytest.raises(ZeroDivisionError) as err:
        ComplexMatrixCarrier(2).invert_matrix(rows)
    assert err.value.index == 4


def test_block_minor_with_all_singular_column_blocks():
    # the minor deleting row 2 and column 2 is invertible although both of
    # its column-0 blocks are singular, so no block pivot exists there
    rng = np.random.default_rng(11)
    rows = _stacked_blocks(rng, 1, 3, 2)
    rows = [[b[0] for b in row] for row in rows]
    rows[0][0] = np.diag([1.0, 0.0]).astype(complex)
    rows[1][0] = np.diag([0.0, 1.0]).astype(complex)
    rows[2][0] = np.eye(2, dtype=complex)
    M = BlockMatrix(ComplexMatrixCarrier(2), rows)
    A = np.block(rows)
    want = np.linalg.inv(np.linalg.inv(A)[4:6, 4:6])
    got = quasideterminant_expand(M, 2, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_elimination_inverse_exact():
    rng = random.Random(2041)
    for n in (2, 3, 4):
        for _ in range(10):
            M = random_exact_matrix(rng, n)
            if det_cofactor(M).is_zero():
                continue
            inv = EXACT.invert_matrix(M.rows)
            for i in range(n):
                for j in range(n):
                    acc = gauss(0)
                    for k in range(n):
                        acc = acc + M[(i, k)] * inv[k][j]
                    assert acc == (gauss(1) if i == j else gauss(0))


# -- small-block kernels --------------------------------------------------------


def gauss_jordan_reference(a, b=None):
    """Whole-row stacked Gauss-Jordan: reduces every column of ``[a | b]`` in
    a ``(count, n, n + m)`` array at every step.  ``_gauss_jordan`` must
    return the same bits for X and for the failure mask."""
    count, n, _ = a.shape
    scale = np.max(np.abs(a), axis=(1, 2))
    rhs = np.broadcast_to(np.eye(n), a.shape) if b is None else b
    w = np.concatenate((a, rhs), axis=2).astype(np.complex128)
    stack = np.arange(count)
    failed = np.zeros(count, dtype=bool)
    for k in range(n):
        pivot_row = k + np.argmax(np.abs(w[:, k:, k]), axis=1)
        failed |= np.abs(w[stack, pivot_row, k]) <= SINGULARITY_TOL * scale
        row_k = w[:, k].copy()
        w[:, k] = w[stack, pivot_row]
        w[stack, pivot_row] = row_k
        w[:, k] /= np.where(failed, 1.0, w[:, k, k])[:, None]
        f = w[:, :, k].copy()
        f[:, k] = 0
        w -= f[:, :, None] * w[:, None, k]
    return w[:, :, n:], failed


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "a_lead, b_lead, blocks",
    [((), (7,), 1), ((7,), (), 1), ((7,), (7,), 1), ((7, 3), (7, 3), 2)],
    ids=["block-stack", "stack-block", "stack-stack", "pair-system"],
)
def test_stack_matmul_matches_numpy(d, a_lead, b_lead, blocks):
    # the integrator's pair system has 2d x 2d blocks per sample and value
    rng = np.random.default_rng(d)
    m = blocks * d
    a = _complex_normal(rng, a_lead + (m, m))
    b = _complex_normal(rng, b_lead + (m, m))
    got, want = stack_matmul(a, b), np.matmul(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _tall_stack(rng, count, d):
    a = _complex_normal(rng, (count, d, d))
    a[3] *= 1e6  # the cutoff is relative to each matrix's own scale
    a[5] = 0.0
    if d > 1:
        a[8, -1] = a[8, 0]  # a repeated row: singular up to round-off
        a[11, :, 0] *= 1e-3  # a small first column moves the first pivot
        a[13] = a[13, ::-1]  # the same rows in reverse order
    return a


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("solve", [False, True], ids=["inverse", "solve"])
def test_gauss_jordan_matches_reference_on_tall_stacks(d, solve):
    rng = np.random.default_rng(20 + d)
    a = _tall_stack(rng, 301, d)
    b = _complex_normal(rng, (301, d, 2)) if solve else None
    x, failed = _gauss_jordan(a, b)
    want_x, want_failed = gauss_jordan_reference(a, b)
    assert np.array_equal(failed, want_failed)
    assert failed[5] and (d == 1 or failed[8]) and not failed[3]
    assert np.array_equal(x, want_x)


@pytest.mark.parametrize("solve", [False, True], ids=["inverse", "solve"])
def test_gauss_jordan_matches_reference_on_one_large_matrix(solve):
    rng = np.random.default_rng(36)
    a = _complex_normal(rng, (1, 36, 36))
    b = _complex_normal(rng, (1, 36, 3)) if solve else None
    x, failed = _gauss_jordan(a, b)
    want_x, want_failed = gauss_jordan_reference(a, b)
    assert np.array_equal(failed, want_failed) and not failed.any()
    assert np.array_equal(x, want_x)


# -- commutative reduction ----------------------------------------------------


def test_commutative_reduction_random():
    rng = random.Random(2043)
    checked = 0
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        M = random_exact_matrix(rng, n)
        outcomes = []
        for i in range(n):
            for j in range(n):
                out = commutative_reduction_check(M, i, j)
                outcomes.append(out)
                if out is None:
                    continue
                checked += 1
                assert out is True
        assert commutative_reduction(M) == outcomes
    assert checked > 100


def test_det_by_elimination_matches_cofactor_oracle():
    rng = random.Random(2046)
    singular = 0
    for n in (1, 2, 3, 4):
        for trial in range(15):
            M = random_exact_matrix(rng, n)
            if n >= 2 and trial % 3 == 0:
                # the last row a combination of the first two, or the first row
                # zero: both singular, and the second needs row swaps first
                a, b = gauss(rng.randint(-3, 3)), gauss(Fraction(1, rng.randint(1, 3)))
                if n >= 3:
                    M.rows[-1] = [a * x + b * y for x, y in zip(M.rows[0], M.rows[1])]
                else:
                    M.rows[0] = [gauss(0)] * n
            if trial % 5 == 1:
                M.rows[0][0] = gauss(0)  # forces a row swap
            want = det_cofactor(M)
            singular += want.is_zero()
            assert det_by_elimination(M) == want
    assert singular >= 10


def test_det_by_elimination_sign_of_row_swaps():
    assert det_by_elimination(exact_matrix([[0, 1], [1, 0]])) == gauss(-1)
    assert det_by_elimination(exact_matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == gauss(-1)
    assert det_by_elimination(exact_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == gauss(1)


def test_reduction_check_vacuous_on_singular_minor():
    M = exact_matrix([[1, 2, 3], [1, 2, 3], [0, 0, 1]])
    # minor of (2, 2) is [[1,2],[1,2]], singular
    assert commutative_reduction_check(M, 2, 2) is None
    assert commutative_reduction(M)[8] is None


def det_by_rational_elimination_reference(M):
    """Test oracle: ``det A`` from the pivots and row swaps of
    ``rational_gauss_jordan``, zero when a column has no nonzero candidate.
    ``det_by_elimination`` must agree with it."""
    try:
        return rational_gauss_jordan(M.rows, [[] for _ in M.rows])[2]
    except ZeroDivisionError:
        return gauss(0)


# distinct primes near 10^6, so the lcm of a row's denominators grows with n
_PRIME_DENOMINATORS = (999863, 999883, 999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983)
_NUMERATORS = st.one_of(st.just(0), st.integers(-6, 6), st.integers(-(10**400), 10**400))
_DENOMINATORS = st.one_of(st.integers(1, 4), st.sampled_from(_PRIME_DENOMINATORS), st.integers(1, 10**6))
_ENTRIES = st.one_of(
    st.just(gauss(0)),
    st.builds(
        lambda a, b, c, d: gauss(Fraction(a, c), Fraction(b, d)),
        _NUMERATORS, _NUMERATORS, _DENOMINATORS, _DENOMINATORS,
    ),
)


@st.composite
def kernel_cases(draw):
    """An exact n x n matrix, n = 1..7, as drawn, singular (for n >= 2 the
    last row a combination of the first and the next-to-last), or with zero
    leading entries that force a row swap; and whether it is singular by
    construction."""
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(("drawn", "singular", "zero_lead")))
    if shape == "singular" and n >= 2:
        a, b = draw(_ENTRIES), draw(_ENTRIES)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    elif shape == "zero_lead":
        for row in rows[: max(1, n - 1)]:
            row[0] = gauss(0)
    return BlockMatrix(EXACT, rows), shape == "singular" and n >= 2


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=kernel_cases())
def test_det_by_elimination_matches_rational_reference(case):
    M, singular = case
    det = det_by_elimination(M)
    assert det == det_by_rational_elimination_reference(M)
    if singular:
        assert det.is_zero()


def integer_det(det, scale):
    """``det A`` as ``det G = det A * scale``, a Gaussian-integer pair."""
    (pair,), one = scaled_to_integers([det * gauss(scale)])
    assert one == 1
    return pair


def reduction_outcome_reference(M, i, j, det):
    """Test oracle: position (i, j) of the reduction check by two rational
    eliminations of the minor, ``det_by_rational_elimination_reference`` for
    ``det A^ij`` and ``rational_gauss_jordan`` against column j for the pivot
    formula.  ``_reduction_outcome`` must return the same outcome from one
    fraction-free elimination."""
    if M.n == 1:
        return M[(0, 0)] == det
    det_minor = det_by_rational_elimination_reference(M.minor(i, j))
    if det_minor.is_zero():
        return None
    expected = det * det_minor.inverse()
    if (i + j) % 2:
        expected = -expected
    x, _swaps, _det = rational_gauss_jordan(M.minor(i, j).rows, [[M[(r, j)]] for r in range(M.n) if r != i])
    return quasidet._pivot_formula(M, i, j, x) == expected


def reduction_cases():
    """Seeded exact matrices, n = 1..7: dense ones, zero-heavy ones whose
    minors need row swaps or are singular, ones with a zero leading entry or
    a last row that repeats a combination of the first two, and
    ``[[0, 1], [1, 0]]``."""
    rng = random.Random(2611)
    for n in range(1, 8):
        for trial in range(4 if n <= 5 else 2):
            M = zero_heavy_matrix(rng, n) if trial % 2 else random_exact_matrix(rng, n)
            if n >= 3 and trial == 2:
                M.rows[-1] = [a - gauss(2) * b for a, b in zip(M.rows[0], M.rows[1])]
            if trial == 0:
                M.rows[0][0] = gauss(0)
            yield M
    yield exact_matrix([[0, 1], [1, 0]])


def test_reduction_outcome_matches_two_elimination_reference():
    outcomes = []
    for M in reduction_cases():
        det = det_by_rational_elimination_reference(M)
        assert det_by_elimination(M) == det
        rows, scale = _integer_rows(M)
        for i in range(M.n):
            for j in range(M.n):
                got = _reduction_outcome(rows, i, j, integer_det(det, scale))
                assert got is reduction_outcome_reference(M, i, j, det), (M.rows, i, j)
                outcomes.append(got)
    assert set(outcomes) == {True, None}
    assert outcomes.count(None) >= 20


def test_reduction_outcome_reads_a_wrong_det_as_false():
    live = 0
    for M in reduction_cases():
        wrong = det_by_rational_elimination_reference(M) + gauss(1)
        rows, scale = _integer_rows(M)
        for i in range(M.n):
            for j in range(M.n):
                got = _reduction_outcome(rows, i, j, integer_det(wrong, scale))
                assert got is reduction_outcome_reference(M, i, j, wrong)
                assert got is not True
                live += got is False
    assert live > 100


def test_reduction_check_rejects_bad_positions_and_carriers():
    regular = exact_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    # every minor of the singular matrix at an in-range position is singular
    singular = exact_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    for M in (regular, singular):
        for i, j in ((5, 5), (-1, -1), (3, 0), (0, -1)):
            with pytest.raises(QuasidetError, match="out of range"):
                commutative_reduction_check(M, i, j)
    assert commutative_reduction(singular) == [None] * 9
    blocks = random_block_matrix(random.Random(7), 3, 2)
    with pytest.raises(QuasidetError, match="exact scalar carrier"):
        commutative_reduction_check(blocks, 0, 0)
    with pytest.raises(QuasidetError, match="exact scalar carrier"):
        commutative_reduction(blocks)


# -- exact documents through the CLI ------------------------------------------

_EXACT_TEXTS = ("1", "-1", "2", "1/2", "-3/2", "1i", "-2i", "1+1i", "1/2-1/3i", "-2+1/2i")


@st.composite
def exact_documents(draw):
    """An n x n document of Gaussian-rational strings, n = 1..5, mostly "0"
    at a drawn rate, and for n >= 2 sometimes with the last row repeating the
    first: singular matrices and singular minors both occur."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from(_EXACT_TEXTS + ("0",) * draw(st.sampled_from((0, 2, 6))))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.sampled_from(("drawn", "drawn", "drawn", "repeat"))) == "repeat":
        rows[-1] = list(rows[0])
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=exact_documents())
def test_exact_documents_match_the_determinant_ratio(doc, tmp_path_factory):
    # a run exits 0 exactly when every (n-1)-minor is nonsingular; then each
    # position is (-1)^(i+j) det A / det A^ij and every cross-check holds
    base = tmp_path_factory.getbasetemp()
    matrix, out = base / "document.json", base / "report.json"
    matrix.write_text(json.dumps(doc))
    code = main(["--output", str(out), "quasidet", "--input", str(matrix)])
    report = json.loads(out.read_text())
    M = BlockMatrix(EXACT, [[gauss(e) for e in row] for row in doc])
    n = M.n
    minors = {(i, j): det_cofactor(M.minor(i, j)) if n > 1 else gauss(1) for i in range(n) for j in range(n)}
    if any(minor.is_zero() for minor in minors.values()):
        assert code == 1
        assert set(report) == {"command", "error"}
        assert report["error"]["type"] == "NonInvertibleMinor"
        return
    assert code == 0
    det = gauss(0)
    for j in range(n):
        term = M[(0, j)] * minors[0, j]
        det = det - term if j % 2 else det + term
    for (i, j), minor in minors.items():
        want = det * minor.inverse()
        assert report["positions"][f"{i},{j}"] == str(-want if (i + j) % 2 else want)
    assert list(report["commutative_reduction"].values()) == [True] * n * n


# -- expand vs via-inverse over matrix blocks ---------------------------------


def test_expand_matches_via_inverse_on_blocks():
    rng = random.Random(2044)
    for _ in range(25):
        n = rng.choice((2, 3))
        M = random_block_matrix(rng, n, 3)
        for i in range(n):
            for j in range(n):
                a = quasideterminant_expand(M, i, j)
                b = quasideterminant_via_inverse(M, i, j)
                assert np.max(np.abs(a - b)) <= 1e-9


def test_scalar_blocks_match_exact_values():
    carrier = ComplexMatrixCarrier(1)
    M = BlockMatrix(
        carrier,
        [
            [np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])],
            [np.array([[3.0 + 0j]]), np.array([[4.0 + 0j]])],
        ],
    )
    got = quasideterminant_expand(M, 0, 0)
    assert abs(got[0, 0] - (-0.5)) < 1e-14


# -- permutation equivariance --------------------------------------------------


def test_permutation_equivariance():
    rng = random.Random(2045)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        M = random_exact_matrix(rng, n)
        row_perm = list(range(n))
        col_perm = list(range(n))
        rng.shuffle(row_perm)
        rng.shuffle(col_perm)
        P = BlockMatrix(M.carrier, [[M.rows[r][c] for c in col_perm] for r in row_perm])
        i, j = rng.randrange(n), rng.randrange(n)
        try:
            original = quasideterminant_expand(M, i, j)
        except NonInvertibleMinor:
            continue
        moved = quasideterminant_expand(P, row_perm.index(i), col_perm.index(j))
        assert moved == original


# -- JSON loading --------------------------------------------------------------


def test_load_exact_matrix_json():
    M = load_matrix_json(json.loads('[["3/4+1/2i", "1"], ["0", "2"]]'))
    assert isinstance(M.carrier, ExactScalarCarrier)
    assert M[(0, 0)] == gauss("3/4+1/2i")
    assert quasideterminant_expand(M, 0, 0) == gauss("3/4+1/2i")


def test_load_block_matrix_json():
    doc = """
    [
      [[[ [1,0], [0,0] ], [ [0,0], [1,0] ]], [[ [0,0], [0,0] ], [ [0,0], [0,0] ]]],
      [[[ [0,0], [0,0] ], [ [0,0], [0,0] ]], [[ [2,0], [0,0] ], [ [0,0], [2,0] ]]]
    ]
    """
    M = load_matrix_json(json.loads(doc))
    assert isinstance(M.carrier, ComplexMatrixCarrier)
    assert M.carrier.dim == 2
    got = quasideterminant_expand(M, 1, 1)
    assert np.allclose(got, 2 * np.eye(2))


def test_load_rejects_bad_entries():
    with pytest.raises(Exception):
        load_matrix_json(json.loads('[["not a number"]]'))


# -- block documents: one array pass against the per-scalar parser ------------------

_FINITE_LEAF = st.one_of(
    st.integers(-9, 9),
    st.integers(2**53, 2**64).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)
# each of these makes the per-scalar parser fail
_ODD_LEAF = st.sampled_from(
    [True, False, "1.5", "2", 10**400, -(10**400), float("nan"), float("inf"), None]
)


@st.composite
def _block_document(draw):
    """A block document of n x n blocks of size d, in pair or bare-number
    form, with at most one odd leaf and at most one block of another size."""
    n, d, pairs = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.booleans())

    def scalar():
        return [draw(_FINITE_LEAF), draw(_FINITE_LEAF)] if pairs else draw(_FINITE_LEAF)

    doc = [[[[scalar() for _ in range(d)] for _ in range(d)] for _ in range(n)] for _ in range(n)]
    r, c, i, j = (draw(st.integers(0, m - 1)) for m in (n, n, d, d))
    if draw(st.booleans()):
        odd = draw(_ODD_LEAF)
        if pairs:
            doc[r][c][i][j][draw(st.integers(0, 1))] = odd
        else:
            doc[r][c][i][j] = odd
    if n > 1 and draw(st.integers(0, 4)) == 0:
        size = draw(st.sampled_from([e for e in (1, 2, 3, 4) if e != d]))
        doc[r][c] = [[scalar() for _ in range(size)] for _ in range(size)]
    return doc


def _per_scalar(doc):
    with mock.patch.object(quasidet, "_block_array", lambda doc: None):
        return load_matrix_json(doc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=_block_document())
def test_block_documents_load_like_the_per_scalar_parser(doc):
    try:
        want = _per_scalar(doc)
    except QuasidetError as exc:
        with pytest.raises(type(exc)) as got:
            load_matrix_json(doc)
        assert str(got.value) == str(exc)
        return
    got = load_matrix_json(doc)
    assert (got.n, got.carrier.dim) == (want.n, want.carrier.dim)
    for got_row, want_row in zip(got.rows, want.rows):
        for a, b in zip(got_row, want_row):
            assert a.dtype == b.dtype == np.complex128
            assert a.tobytes() == b.tobytes()
            parts_a, parts_b = a.view(np.float64), b.view(np.float64)
            assert np.array_equal(np.signbit(parts_a), np.signbit(parts_b))


def test_well_formed_block_documents_skip_the_scalar_parser(monkeypatch):
    calls = []
    parse = quasidet.parse_complex_scalar
    monkeypatch.setattr(quasidet, "parse_complex_scalar", lambda v: calls.append(v) or parse(v))
    sample = json.loads((Path(__file__).resolve().parents[1] / "configs/sample_blocks.json").read_text())
    bare = [[[[1, -0.0], [2**60, 0.5]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[3, 0], [0, 3]]]]
    for doc in (sample, bare):
        M = load_matrix_json(doc)
        assert M.carrier.dim == 2
        # the rows hold views into one array
        assert len({id(e.base) for row in M.rows for e in row}) == 1
    assert calls == []
    assert np.signbit(M[(0, 0)][0, 1].real) and not np.signbit(M[(0, 0)][0, 1].imag)
    assert M[(0, 0)][1, 0] == complex(2**60)
