import random
from fractions import Fraction

import numpy as np
import pytest

from qpii.gaussian import gauss
from qpii.quasidet import (
    BlockMatrix,
    ComplexMatrixCarrier,
    ExactScalarCarrier,
    NonInvertibleEntry,
    NonInvertibleMatrix,
    NonInvertibleMinor,
    all_quasideterminants,
    commutative_reduction,
    commutative_reduction_check,
    det_by_elimination,
    invert_by_block_partition,
    invert_complex_matrix,
    invert_by_elimination,
    load_matrix_json,
    quasideterminant_expand,
    quasideterminant_via_inverse,
)

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
    rng = random.Random(8)
    M = [random_block_matrix(rng, 3, 2) for _ in range(3)][-1]
    for r in (1, 2):
        for c in (1, 2):
            M.rows[r][c] = np.eye(2, dtype=complex)
    with pytest.raises(NonInvertibleMinor) as want:
        quasideterminant_expand(M, 0, 0)
    with pytest.raises(NonInvertibleMinor) as got:
        all_quasideterminants(M)
    assert (got.value.row, got.value.col, str(got.value)) == (0, 0, str(want.value))


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
    inv = invert_by_elimination(M)
    want = {(i, j): invert_complex_matrix(inv[(j, i)]) for i in range(5) for j in range(5)}

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
    stacked = BlockMatrix(
        points[0].carrier,
        [[np.stack([p[(r, c)] for p in points]) for c in range(3)] for r in range(3)],
    )
    got = all_quasideterminants(stacked)
    for k, point in enumerate(points):
        at_point = all_quasideterminants(point)
        assert all(np.array_equal(got[pos][k], at_point[pos]) for pos in at_point)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    for r in range(3):
        for c in range(3):
            stacked.rows[r][c] = stacked.rows[r][c].copy()
            stacked.rows[r][c][2] = swap[r][c] * np.eye(2)
    invert_by_elimination(stacked)
    with pytest.raises(NonInvertibleMinor) as err:
        all_quasideterminants(stacked)
    assert (err.value.row, err.value.col) == (0, 0)


def test_singular_minor_raises():
    M = exact_matrix([[1, 2], [0, 0]])
    with pytest.raises(NonInvertibleMinor) as err:
        quasideterminant_expand(M, 0, 0)
    assert (err.value.row, err.value.col) == (0, 0)


def test_block_partition_requires_invertible_leading_block():
    M = exact_matrix([[0, 1], [1, 0]])
    with pytest.raises(NonInvertibleMatrix):
        quasideterminant_via_inverse(M, 0, 0)


def test_noninvertible_entry():
    # inverse of [[1,1],[0,1]] is [[1,-1],[0,1]]; its (1,0) entry is zero,
    # so position (0,1) has no quasideterminant by the inverse route.
    M = exact_matrix([[1, 1], [0, 1]])
    with pytest.raises(NonInvertibleEntry):
        quasideterminant_via_inverse(M, 0, 1)


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
    got = invert_by_elimination(BlockMatrix(car, rows))
    for s in range(count):
        want = invert_by_elimination(BlockMatrix(car, [[e[s] for e in row] for row in rows]))
        for r in range(n):
            for c in range(n):
                assert np.array_equal(got[(r, c)][s], want[(r, c)])


def test_stacked_elimination_reports_first_index_without_pivot():
    rng = np.random.default_rng(8)
    rows = _stacked_blocks(rng, 10, 2, 2)
    rows[0][0] *= 10  # the larger candidate overall, singular at 2
    rows[0][0][4] = rows[1][0][4] = 0.0
    rows[0][0][6] = rows[1][0][6] = 0.0
    rows[0][0][2] = 0.0  # the other candidate still inverts at 2
    with pytest.raises(ZeroDivisionError) as err:
        invert_by_elimination(BlockMatrix(ComplexMatrixCarrier(2), rows))
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
            inv = invert_by_elimination(M)
            for i in range(n):
                for j in range(n):
                    acc = gauss(0)
                    for k in range(n):
                        acc = acc + M[(i, k)] * inv[(k, j)]
                    assert acc == (gauss(1) if i == j else gauss(0))


def test_block_partition_inverse_exact():
    rng = random.Random(2042)
    done = 0
    while done < 20:
        n = rng.choice((2, 3, 4))
        M = random_exact_matrix(rng, n)
        try:
            inv = invert_by_block_partition(M)
        except NonInvertibleMatrix:
            continue
        done += 1
        for i in range(n):
            for j in range(n):
                acc = gauss(0)
                for k in range(n):
                    acc = acc + M[(i, k)] * inv[(k, j)]
                assert acc == (gauss(1) if i == j else gauss(0))


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
        P = M.permuted(row_perm, col_perm)
        i, j = rng.randrange(n), rng.randrange(n)
        try:
            original = quasideterminant_expand(M, i, j)
        except NonInvertibleMinor:
            continue
        moved = quasideterminant_expand(P, row_perm.index(i), col_perm.index(j))
        assert moved == original


# -- JSON loading --------------------------------------------------------------


def test_load_exact_matrix_json():
    M = load_matrix_json('[["3/4+1/2i", "1"], ["0", "2"]]')
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
    M = load_matrix_json(doc)
    assert isinstance(M.carrier, ComplexMatrixCarrier)
    assert M.carrier.dim == 2
    got = quasideterminant_expand(M, 1, 1)
    assert np.allclose(got, 2 * np.eye(2))


def test_load_rejects_bad_entries():
    with pytest.raises(Exception):
        load_matrix_json('[["not a number"]]')
