"""Dense exact matrices: arithmetic, elimination, blocks, serialization."""

import itertools
import json
import random

import pytest

from centra import (
    BadPermutationError,
    FieldMismatchError,
    Matrix,
    NotSquareError,
    Poly,
    QQ,
    ShapeMismatchError,
    SingularMatrixError,
    block_permutation_matrix,
    companion_centralizer_element,
    companion_matrix,
    conjugate_by_block_permutation,
    corner_matrix,
    make_spec,
    matrix_from_json_obj,
    matrix_from_text,
    matrix_to_json_obj,
    matrix_to_text,
    poly_at_matrix,
    prime_field,
    rational_function_field,
    weyr_layout,
)
from centra.matrices import block_below_diagonal, place_blocks

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F_BIG = prime_field(4294967291)
FT2 = rational_function_field(2)


def _random_matrix(field, rows, cols, rng):
    return Matrix(field, [[field.random(rng) for _ in range(cols)]
                          for _ in range(rows)])


def test_basic_arithmetic():
    rng = random.Random(1)
    for field in (F3, QQ):
        a = _random_matrix(field, 3, 3, rng)
        b = _random_matrix(field, 3, 3, rng)
        c = _random_matrix(field, 3, 3, rng)
        ident = Matrix.identity(field, 3)
        assert ident * a == a
        assert a * ident == a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Matrix.zeros(field, 3, 3)
        assert -a + a == Matrix.zeros(field, 3, 3)


def _sparse_matrix(field, rows, cols, rng):
    """Random entries with many zeros and some -1s."""
    draws = (lambda: field.zero, lambda: -field.one, lambda: field.random(rng))
    return Matrix(field, [[rng.choice(draws)() for _ in range(cols)]
                          for _ in range(rows)])


def _scalar_product(x, y):
    """x * y summed entry by Scalar entry, independent of Matrix.__mul__."""
    return Matrix(x.field, [[sum([x[i, t] * y[t, j] for t in range(x.cols)],
                                 x.field.zero) for j in range(y.cols)]
                            for i in range(x.rows)])


@pytest.mark.parametrize("field", [F2, F_BIG, QQ, FT2],
                         ids=lambda f: f.name)
def test_row_kernels_match_scalar_reference(field):
    """+, -, scalar *, matrix * and [v, Cv, ...], entry by Scalar entry.

    Products also run on place_blocks operands, whose untouched rows are
    one shared zero row, and on pairs whose entries are sums that cancel
    to zero, some of them before a later term arrives.
    """
    rng = random.Random(47)
    for _ in range(15):
        n, m, k = (rng.randrange(1, 6) for _ in range(3))
        a, b = (_sparse_matrix(field, n, m, rng) for _ in range(2))
        c = _sparse_matrix(field, m, k, rng)

        def entrywise(fn):
            return Matrix(field, [[fn(i, j) for j in range(m)]
                                  for i in range(n)])

        assert a + b == entrywise(lambda i, j: a[i, j] + b[i, j])
        assert a - b == entrywise(lambda i, j: a[i, j] - b[i, j])
        for x in (field.zero, -field.one, field.random(rng), -7):
            scaled = entrywise(lambda i, j: a[i, j] * x)
            assert a * x == scaled
            assert x * a == scaled
        assert a * c == _scalar_product(a, c)
        # Block placements leave the last block row as one shared zero row.
        s, nblocks = rng.randrange(1, 4), rng.randrange(2, 5)
        x, y = (place_blocks(field, s, nblocks, {
            (rng.randrange(nblocks - 1), rng.randrange(nblocks)):
                _sparse_matrix(field, s, s, rng)
            for _ in range(rng.randrange(1, nblocks + 1))})
            for _ in range(2))
        assert all(z._rows[-1] is z._rows[-s] for z in (x, y))
        assert x * y == _scalar_product(x, y)
        assert y * x == _scalar_product(y, x)
        # [a | a] [c; -c] = ac - ac: each entry of ac is a sum that
        # cancels; appending b and d makes bd land on the cancelled sums.
        twice_a = [a.row(i) + a.row(i) for i in range(n)]
        c_minus_c = [*map(c.row, range(m)), *map((-c).row, range(m))]
        assert (Matrix(field, twice_a) * Matrix(field, c_minus_c)).is_zero()
        d = _sparse_matrix(field, m, k, rng)
        left = Matrix(field, [r + b.row(i) for i, r in enumerate(twice_a)])
        right = Matrix(field, c_minus_c + list(map(d.row, range(m))))
        assert left * right == _scalar_product(left, right) == b * d
        sq = _sparse_matrix(field, m, m, rng)
        cols = [[rng.choice((field.zero, field.random(rng)))
                 for _ in range(m)]]
        for _ in range(m - 1):
            cols.append([sum([sq[i, t] * cols[-1][t] for t in range(m)],
                             field.zero) for i in range(m)])
        assert companion_centralizer_element(sq, cols[0]) == \
            Matrix(field, list(zip(*cols)))


def test_scalar_and_int_scaling():
    a = Matrix(F5, [[1, 2], [3, 4]])
    assert a * 2 == Matrix(F5, [[2, 4], [6, 8 % 5]])
    assert 2 * a == a * F5.scalar(2)
    assert a * F5.zero == Matrix.zeros(F5, 2, 2)


def test_shape_and_field_errors():
    a = _random_matrix(F3, 2, 2, random.Random(0))
    b = _random_matrix(F3, 3, 3, random.Random(0))
    with pytest.raises(ShapeMismatchError):
        a * b
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a + _random_matrix(F5, 2, 2, random.Random(0))
    with pytest.raises(ShapeMismatchError):
        Matrix(F3, [[1, 2], [3]])
    with pytest.raises(ShapeMismatchError):
        Matrix(F3, [])


def test_corner_matrix_squares_to_zero():
    for s in (2, 3, 5):
        e = corner_matrix(F3, s)
        assert (e * e).is_zero()
        assert e[0, s - 1] == F3.one
        assert sum(1 for v in e.flat() if v) == 1
    assert corner_matrix(F3, 1) == Matrix.identity(F3, 1)


def test_power():
    a = Matrix(F3, [[1, 1], [0, 1]])
    assert a ** 0 == Matrix.identity(F3, 2)
    assert a ** 3 == a * a * a
    with pytest.raises(NotSquareError):
        Matrix.zeros(F3, 2, 3) ** 2
    with pytest.raises(ShapeMismatchError):
        a ** -1


def test_kernel_conventions():
    assert Matrix.identity(F3, 4).kernel_basis() == []
    zero = Matrix.zeros(F3, 3, 3)
    vecs = zero.kernel_basis()
    assert len(vecs) == 3
    for i, v in enumerate(vecs):
        assert v == Matrix.column(F3, [int(j == i) for j in range(3)])
    ones = Matrix(F2, [[1, 1], [1, 1]])
    vecs = ones.kernel_basis()
    assert len(vecs) == 1
    assert vecs[0] == Matrix.column(F2, [1, 1])


def test_kernel_free_variable_identity():
    # each kernel vector carries a 1 on its own free column, 0 on others
    rng = random.Random(23)
    for field in (F2, F5, QQ, FT2):
        for _ in range(60):
            a = _random_matrix(field, rng.randrange(1, 6),
                               rng.randrange(1, 6), rng)
            vecs = a.kernel_basis()
            assert a.rank() + len(vecs) == a.cols
            for v in vecs:
                assert (a * v).is_zero()
            free_cols = []
            for v in vecs:
                support = [i for i in range(a.cols) if v[i, 0]]
                mine = [i for i in support
                        if all(not w[i, 0] for w in vecs if w is not v)]
                ones = [i for i in mine if v[i, 0] == field.one]
                assert ones, "no identity coordinate in kernel vector"
                free_cols.append(max(ones))
            assert len(set(free_cols)) == len(vecs)


def _det_by_cofactors(a):
    n = a.rows
    if n == 1:
        return a[0, 0]
    field = a.field
    acc = field.zero
    sign = field.one
    for j in range(n):
        minor = Matrix(field, [[a[i, c] for c in range(n) if c != j]
                               for i in range(1, n)])
        acc = acc + sign * a[0, j] * _det_by_cofactors(minor)
        sign = -sign
    return acc


def test_determinant_examples():
    assert Matrix.identity(F3, 4).determinant() == F3.one
    singular = Matrix(F3, [[1, 2], [2, 4 % 3]])
    assert singular.determinant() == F3.zero
    # companion determinant equals (-1)^s c0, via an independent cofactor oracle
    for field, text in ((F3, "x^2+1"), (F5, "x^3+x+1"), (F2, "x^3+x+1")):
        p = Poly.parse(text, field)
        c = companion_matrix(p)
        expected = (-field.one) ** p.degree * p.coeff(0)
        assert c.determinant() == expected
        assert _det_by_cofactors(c) == expected


def test_determinant_multiplicative():
    rng = random.Random(77)
    for field in (F2, F3, QQ, FT2):
        for _ in range(100):
            n = rng.randrange(1, 5)
            a = _random_matrix(field, n, n, rng)
            b = _random_matrix(field, n, n, rng)
            assert (a * b).determinant() == a.determinant() * b.determinant()


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(78)
    for field in (F3, QQ, FT2):
        for _ in range(60):
            n = rng.randrange(1, 5)
            a = _random_matrix(field, n, n, rng)
            assert a.determinant() == _det_by_cofactors(a)


def test_inverse():
    rng = random.Random(3)
    for field in (F3, F5, QQ, FT2):
        found = 0
        while found < 25:
            a = _random_matrix(field, 3, 3, rng)
            if not a.determinant():
                continue
            found += 1
            assert a * a.inverse() == Matrix.identity(field, 3)
            assert a.inverse() * a == Matrix.identity(field, 3)
    with pytest.raises(SingularMatrixError):
        Matrix.zeros(F3, 2, 2).inverse()
    with pytest.raises(NotSquareError):
        Matrix.zeros(F3, 2, 3).inverse()


def test_rank_transpose_invariance():
    rng = random.Random(31)
    for _ in range(80):
        a = _random_matrix(F3, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        assert a.rank() == a.transpose().rank()


def test_poly_at_matrix():
    p = Poly.parse("x^2+1", F3)
    c = companion_matrix(p)
    assert poly_at_matrix(p, c).is_zero()
    a = _random_matrix(F3, 3, 3, random.Random(9))
    assert poly_at_matrix(Poly.x(F3), a) == a
    assert poly_at_matrix(Poly.one(F3), a) == Matrix.identity(F3, 3)
    with pytest.raises(NotSquareError):
        poly_at_matrix(p, Matrix.zeros(F3, 2, 3))


@pytest.mark.parametrize("field", [F5, QQ, FT2],
                         ids=lambda f: f.name)
def test_block_below_diagonal_matches_block_grid(field):
    rng = random.Random(17)
    for _ in range(40):
        sizes = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        grid = [[_random_matrix(field, r, c, rng) if rng.random() < 0.3
                 else Matrix.zeros(field, r, c) for c in sizes]
                for r in sizes]
        m = Matrix(field, [[v for block in brow for v in block.row(i)]
                           for brow in grid for i in range(brow[0].rows)])
        cuts = (0, *itertools.accumulate(sizes))
        first = next(((bi, bj) for bi, row in enumerate(grid)
                      for bj, block in enumerate(row[:bi])
                      if not block.is_zero()), None)
        assert block_below_diagonal(m, cuts) == first
    with pytest.raises(ShapeMismatchError):
        block_below_diagonal(Matrix.zeros(field, 3, 3), (0, 1, 2))
    # One nonzero planted in each below-diagonal block of the level grid
    # of alpha = (3, 2, 2, 1): tau = (4, 3, 1), s = 2, cuts (0, 8, 14, 16).
    spec = make_spec(Poly.parse("x^2+x+1", field), (3, 2, 2, 1),
                     assume_irreducible=True)
    cuts = weyr_layout(spec)
    assert cuts == (0, 8, 14, 16)
    for bi in range(1, len(cuts) - 1):
        for bj in range(bi):
            rows = [[field.zero] * spec.n for _ in range(spec.n)]
            rows[rng.randrange(cuts[bi], cuts[bi + 1])][
                rng.randrange(cuts[bj], cuts[bj + 1])] = field.one
            assert block_below_diagonal(Matrix(field, rows), cuts) == (bi, bj)


def _dense_placement(field, s, nblocks, placed):
    n = nblocks * s
    rows = [[field.zero] * n for _ in range(n)]
    for (bi, bj), block in placed.items():
        for i in range(s):
            for j in range(s):
                rows[bi * s + i][bj * s + j] = block[i, j]
    return Matrix(field, rows)


@pytest.mark.parametrize("field", [F5, QQ, FT2],
                         ids=lambda f: f.name)
def test_place_blocks_matches_dense_reference(field):
    rng = random.Random(16)
    for nblocks in range(1, 5):
        for s in range(1, 4):
            cells = [(bi, bj) for bi in range(nblocks)
                     for bj in range(nblocks)]
            for keep in (0, len(cells), rng.randrange(1, len(cells) + 1)):
                placed = {at: _random_matrix(field, s, s, rng)
                          for at in rng.sample(cells, keep)}
                m = place_blocks(field, s, nblocks, placed)
                assert m == _dense_placement(field, s, nblocks, placed)
                # block rows that hold no block share one zero row
                empty = set(range(nblocks)) - {bi for bi, _ in placed}
                zero_rows = {id(m._rows[bi * s + i])
                             for bi in empty for i in range(s)}
                assert len(zero_rows) <= 1


def test_block_permutation_conjugation():
    rng = random.Random(8)
    for s in (1, 2, 3):
        n_blocks = 4
        a = _random_matrix(F5, s * n_blocks, s * n_blocks, rng)
        perm = list(range(n_blocks))
        rng.shuffle(perm)
        conj = conjugate_by_block_permutation(a, perm, s)
        pm = block_permutation_matrix(F5, perm, s)
        assert pm.inverse() * a * pm == conj
        assert pm * pm.transpose() == Matrix.identity(F5, s * n_blocks)
        assert conj.rank() == a.rank()
        assert conj.determinant() == a.determinant()
        assert conjugate_by_block_permutation(a, list(range(n_blocks)), s) == a
        inverse_perm = [perm.index(i) for i in range(n_blocks)]
        assert conjugate_by_block_permutation(conj, inverse_perm, s) == a
    one = Matrix(F5, [[3]])
    assert conjugate_by_block_permutation(one, [0], 1) == one
    # shared and merely equal rows: each output row is still its own remap
    shared = place_blocks(F5, 2, 4, {(0, 1): _random_matrix(F5, 2, 2, rng),
                                     (3, 3): Matrix.identity(F5, 2)})
    equal = Matrix(F5, [[1, 2, 0, 4]] * 2 + [[0, 0, 3, 1]] * 2)
    for a, perm, s in ((shared, [2, 0, 3, 1], 2), (equal, [2, 0, 3, 1], 1),
                       (equal, [1, 0], 2)):
        src = [perm[i // s] * s + i % s for i in range(a.rows)]
        expect = Matrix(F5, [[a[i, j] for j in src] for i in src])
        pm = block_permutation_matrix(F5, perm, s)
        assert conjugate_by_block_permutation(a, perm, s) == expect
        assert pm.inverse() * a * pm == expect
    with pytest.raises(BadPermutationError):
        conjugate_by_block_permutation(Matrix.zeros(F5, 4, 4), [0, 0], 2)
    with pytest.raises(ShapeMismatchError):
        conjugate_by_block_permutation(Matrix.zeros(F5, 3, 3), [0, 1], 2)
    with pytest.raises(NotSquareError):
        conjugate_by_block_permutation(Matrix.zeros(F5, 2, 4), [0, 1], 2)


def test_text_round_trip():
    rng = random.Random(44)
    fields = [F2, F3, QQ, FT2]
    for field in fields:
        for _ in range(25):
            a = _random_matrix(field, rng.randrange(1, 5),
                               rng.randrange(1, 5), rng)
            assert matrix_from_text(matrix_to_text(a)) == a


def test_text_format_shape():
    a = Matrix(F3, [[1, 2], [0, 1]])
    assert matrix_to_text(a) == "2 2 gf:3\n1 2\n0 1"
    q = Matrix(QQ, [["1/2", "-3"]])
    assert matrix_to_text(q) == "1 2 q\n1/2 -3"


def test_text_format_repeated_rows():
    for field in (F5, QQ, FT2):
        rng = random.Random(46)
        block = _random_matrix(field, 2, 2, rng)
        row = [field.random(rng) for _ in range(3)]
        for m in (place_blocks(field, 2, 3, {(1, 0): block, (1, 2): block}),
                  Matrix(field, [row, row, [0, 0, 0], row, [0, 0, 0]])):
            lines = [matrix_to_text(Matrix(field, [m.row(i)])).split("\n")[1]
                     for i in range(m.rows)]
            assert matrix_to_text(m).split("\n") == \
                [f"{m.rows} {m.cols} {field.name}", *lines]


def test_json_round_trip():
    rng = random.Random(45)
    for field in (F3, QQ, rational_function_field(3)):
        for _ in range(25):
            a = _random_matrix(field, rng.randrange(1, 5),
                               rng.randrange(1, 5), rng)
            blob = json.dumps(matrix_to_json_obj(a))
            assert matrix_from_json_obj(json.loads(blob)) == a
    obj = matrix_to_json_obj(Matrix(F3, [[1, 2], [0, 1]]))
    assert obj == {"rows": 2, "cols": 2, "field": "gf:3",
                   "entries": [[1, 2], [0, 1]]}
