"""Brute-force commutant solver used as the independent cross-check.

The solver reduces the input to Hessenberg form and solves for k*n
unknowns; _dense_sylvester here is the plain n^2 x n^2 system it
replaced, kept as the reference.  Its free-variable kernel basis,
reshaped, must equal commutant_basis exactly, and n^2 minus its rank
must equal commutant_dimension.
"""

import random
from fractions import Fraction

import pytest

from centra import (
    QQ,
    FieldMismatchError,
    Matrix,
    NotSquareError,
    ParseError,
    Poly,
    ShapeMismatchError,
    TooLargeError,
    block_permutation_matrix,
    commutant_basis,
    commutant_dimension,
    commutes,
    companion_matrix,
    jordan_form,
    make_spec,
    prime_field,
    rational_function_field,
    sylvester_system,
)
from centra.matrices import place_blocks
from test_matrices import _scalar_product

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
FBIG = prime_field(4294967291)
FT2 = rational_function_field(2)


def _dense_sylvester(a):
    """The n^2 x n^2 matrix of X -> AX - XA over column-stacked coordinates.

    Entry (i, j) of X sits at coordinate i + j*n.  Built with Scalars
    only, sharing no code with the solver.
    """
    if not a.is_square():
        raise NotSquareError("commuting space of a nonsquare matrix")
    n = a.rows
    rows = [[a.field.zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            row = rows[i + j * n]
            for k in range(n):
                row[k + j * n] += a[i, k]
                row[i + k * n] -= a[k, j]
    return Matrix(a.field, rows)


def _reference_basis(a):
    n = a.rows
    out = []
    for v in _dense_sylvester(a).kernel_basis():
        stacked = v.column_values(0)
        out.append(Matrix(a.field, [stacked[i::n] for i in range(n)]))
    return out


def _check_against_reference(a):
    dense = _dense_sylvester(a)
    basis = commutant_basis(a)
    assert basis == _reference_basis(a)
    assert commutant_dimension(a) == len(basis) == a.rows ** 2 - dense.rank()
    for b in basis:
        assert commutes(a, b)


def test_identity_commutant_is_everything():
    basis = commutant_basis(Matrix.identity(F3, 2))
    assert len(basis) == 4
    assert commutant_dimension(Matrix.identity(F3, 2)) == 4


def test_irreducible_companion_dimension():
    c = companion_matrix(Poly.parse("x^2+1", F3))
    basis = commutant_basis(c)
    assert len(basis) == 2
    for b in basis:
        assert b * c == c * b


def test_nilpotent_two_chains():
    # chains of lengths 2 and 1: dimension 2*min+2*min+... = 5
    a = Matrix(F5, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert commutant_dimension(a) == 5
    basis = commutant_basis(a)
    assert len(basis) == 5
    stacked = Matrix(F5, [b.flat() for b in basis])
    assert stacked.rank() == 5


def test_sylvester_system_shape():
    a = Matrix(F3, [[1, 2], [0, 1]])
    sys = _dense_sylvester(a)
    assert sys.rows == 4 and sys.cols == 4
    # row for entry (i, j) applies a on the left minus a on the right
    x = Matrix(F3, [[1, 1], [0, 1]])
    vec = [x[i % 2, i // 2] for i in range(4)]
    prod = [sum((sys[r, k] * vec[k] for k in range(4) if vec[k]), F3.zero)
            for r in range(4)]
    lhs = a * x - x * a
    assert prod == [lhs[i % 2, i // 2] for i in range(4)]
    with pytest.raises(NotSquareError):
        _dense_sylvester(Matrix(F3, [[1, 2, 0]]))


def test_reduced_system_has_k_times_n_unknowns():
    # Upper Hessenberg with one zero subdiagonal entry: k = 2 blocks.
    a = Matrix(F5, [[1, 2, 0, 3], [1, 0, 4, 1], [0, 0, 2, 1], [0, 0, 3, 4]])
    sys = sylvester_system(a)
    assert (sys.rows, sys.cols) == (8, 8)
    assert sys.cols - sys.rank() == 16 - _dense_sylvester(a).rank()
    # Unreduced (one block), scalar (k = n) and 1 x 1.
    assert sylvester_system(Matrix(F5, [[0, 1], [1, 0]])).cols == 2
    assert sylvester_system(Matrix.identity(F5, 3)).cols == 9
    assert sylvester_system(Matrix(F5, [[4]])).cols == 1


@pytest.mark.parametrize("rows", [[[1, 2, 0]], [[1], [1], [2]]],
                         ids=["wide", "tall"])
def test_nonsquare_input_is_rejected(rows):
    a = Matrix(F3, rows)
    for fn in (sylvester_system, commutant_basis, commutant_dimension):
        with pytest.raises(NotSquareError):
            fn(a)


def _similar(field, g, rng):
    """L U g (L U)^-1 for unit triangular L, U with entries in {-1, 0, 1}."""
    n = g.rows
    lower = Matrix(field, [[1 if i == j else rng.randint(-1, 1) if j < i
                            else 0 for j in range(n)] for i in range(n)])
    upper = Matrix(field, [[1 if i == j else rng.randint(-1, 1) if j > i
                            else 0 for j in range(n)] for i in range(n)])
    q = lower * upper
    return q * g * q.inverse()


def _entry_maker(field):
    """Drawn Scalars of the field, zero and one among them often."""
    if field is QQ:
        def draw(rng):
            return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7)))
    elif field is FT2:
        menu = ["0", "1", "t", "t+1", "(1)/(t)", "(t)/(t^2+t+1)"]

        def draw(rng):
            return rng.choice(menu)
    else:
        p = field.characteristic

        def draw(rng):
            return rng.choice((0, 1, p - 1, rng.randrange(p)))
    return lambda rng: field.scalar(draw(rng))


def _seeded_inputs(field, n, rng):
    """Dense, scalar, zero, nilpotent, Hessenberg and block inputs."""
    entry = _entry_maker(field)
    dense = Matrix(field, [[entry(rng) for _ in range(n)] for _ in range(n)])
    scalar = Matrix.identity(field, n) * entry(rng)
    nilpotent = _similar(field, Matrix(
        field, [[entry(rng) if j < i else 0 for j in range(n)]
                for i in range(n)]), rng)
    hessenberg = [[entry(rng) if j >= i - 1 else 0 for j in range(n)]
                  for i in range(n)]
    if n > 2:
        hessenberg[n // 2][n // 2 - 1] = 0
    # Two equal eigenvalues and a third: not similar to any single form.
    diag = Matrix(field, [[(i % 3 == 1) * (i == j) for j in range(n)]
                          for i in range(n)])
    return [dense, scalar, Matrix.zeros(field, n, n), nilpotent,
            Matrix(field, hessenberg), _similar(field, diag, rng)]


# GF(2)(t) stops at n = 4: entries there reach high degree, and the
# Scalar reference then takes seconds.
@pytest.mark.parametrize("field,n", [
    (field, n) for field in (F2, F3, FBIG, QQ) for n in (1, 2, 3, 5, 7)]
    + [(FT2, n) for n in (1, 2, 3, 4)],
    ids=lambda v: v.name if hasattr(v, "name") else str(v))
def test_basis_matches_dense_reference(field, n):
    rng = random.Random(f"reference:{field.name}:{n}")
    for a in _seeded_inputs(field, n, rng):
        _check_against_reference(a)


@pytest.mark.parametrize("spec_args", [
    (F3, "x^2+1", (2, 1)), (F2, "x^2+x+1", (1, 1, 1)), (F5, "x+2", (3, 2, 2)),
    (QQ, "x^2-2", (2, 1)), (FT2, "x^2+t*x+t", (1, 1))])
def test_forms_and_similar_matrices_match_dense_reference(spec_args):
    field, poly, alpha = spec_args
    spec = make_spec(Poly.parse(poly, field), alpha, assume_irreducible=True)
    g = jordan_form(spec)
    rng = random.Random(f"form:{field.name}:{poly}")
    for a in (g, _similar(field, g, rng)):
        _check_against_reference(a)


def _commutes_checked(a, x):
    """commutes(a, x), asserted equal to the Scalar-product comparison,
    both ways."""
    got = commutes(a, x)
    assert got == (_scalar_product(a, x) == _scalar_product(x, a)) \
        == commutes(x, a)
    return got


def test_commutes_predicate():
    a = Matrix(F3, [[0, 0], [1, 0]])
    assert commutes(a, Matrix.identity(F3, 2))
    assert commutes(a, a)
    assert not commutes(a, a.transpose())
    with pytest.raises(ShapeMismatchError):
        commutes(a, Matrix.identity(F3, 3))
    with pytest.raises(NotSquareError):
        commutes(Matrix(F3, [[1, 2]]), Matrix(F3, [[1, 2]]))
    with pytest.raises(FieldMismatchError):
        commutes(a, Matrix(F5, [[0, 0], [1, 0]]))
    for field, c in ((F2, "1"), (F5, "3"), (QQ, "3/7"), (FT2, "t/(t+1)")):
        c = field.scalar(c)
        one, ident = field.one, Matrix.identity(field, 2)
        # a is idempotent, so a(I - a) = (I - a)a = 0.  Entry (0,1) of
        # a(I - a) is c - c, a sum of two nonzero terms that cancels,
        # while (I - a)a has no term there at all.
        a = Matrix(field, [[one, c], [0, 0]])
        assert _commutes_checked(a, ident - a)
        assert not _commutes_checked(a, ident + a.transpose())
        # Block-diagonal companions against placements that leave block
        # row 1 zero: its two rows are one shared row object.
        comp = companion_matrix(Poly.parse("x^2+x+1", field))
        diag = place_blocks(field, 2, 3, {(k, k): comp for k in range(3)})
        x = place_blocks(field, 2, 3, {(0, 1): comp * comp * c,
                                       (2, 0): ident})
        assert x._rows[2] is x._rows[3]
        assert _commutes_checked(diag, x)
        # One entry more, at (2,2), and the pair no longer commutes.
        y = x + place_blocks(field, 2, 3,
                             {(1, 1): Matrix(field, [[c, 0], [0, 0]])})
        assert sum(u != v for r, q in zip(x._rows, y._rows)
                   for u, v in zip(r, q)) == 1
        assert not _commutes_checked(diag, y)


def test_dimension_invariant_under_conjugation():
    rng = random.Random(21)
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    g = jordan_form(spec)
    base = commutant_dimension(g)
    order = list(range(3))
    for _ in range(5):
        rng.shuffle(order)
        pm = block_permutation_matrix(F3, order, 2)
        assert commutant_dimension(pm.inverse() * g * pm) == base


def test_direct_sum_additivity_for_coprime_blocks():
    # distinct eigenvalues: the commutant splits along the two summands
    g1 = jordan_form(make_spec(Poly.parse("x+1", F5), (2,)))
    g2 = jordan_form(make_spec(Poly.parse("x+2", F5), (1, 1)))
    n1, n2 = g1.rows, g2.rows
    big = Matrix(F5, [[g1[i, j] if i < n1 and j < n1
                       else g2[i - n1, j - n1] if i >= n1 and j >= n1
                       else 0 for j in range(n1 + n2)]
                      for i in range(n1 + n2)])
    assert commutant_dimension(big) == \
        commutant_dimension(g1) + commutant_dimension(g2)


def test_basis_elements_commute_pairwise_with_generator():
    a = jordan_form(make_spec(Poly.parse("x^2+x+1", F2), (2, 2)))
    basis = commutant_basis(a)
    assert len(basis) == commutant_dimension(a)
    for b in basis:
        assert commutes(a, b)


def test_size_cap():
    a = Matrix.identity(F2, 3)
    with pytest.raises(TooLargeError):
        commutant_basis(a, max_n=2)
    with pytest.raises(TooLargeError):
        commutant_dimension(a, max_n=2)
    assert commutant_dimension(a, max_n=5) == 9
    # 0 is a cap like any other; a negative one is an error.
    with pytest.raises(TooLargeError):
        commutant_dimension(a, max_n=0)
    with pytest.raises(ParseError, match="--max-n"):
        commutant_dimension(a, max_n=-1)
