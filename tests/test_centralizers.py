"""Centralizer bases: single companion, single block, full forms, utilities."""

import hashlib
import random

import pytest

from centra import (
    E_KIND,
    FIRST_KIND,
    LengthMismatchError,
    Matrix,
    NoSolutionError,
    NotCoprimeError,
    NotInCentralizerError,
    NotSquareError,
    ParamSlot,
    Poly,
    QQ,
    ShapeMismatchError,
    centralizer_dimension,
    commutant_dimension,
    companion_centralizer_basis,
    companion_centralizer_element,
    companion_matrix,
    corner_matrix,
    direct_sum_dimension,
    field_from_name,
    from_last_row,
    is_automorphism,
    jordan_block,
    jordan_centralizer_basis,
    jordan_form,
    last_row_toeplitz,
    make_spec,
    matrix_to_text,
    prime_field,
    rational_function_field,
    sample_element,
    segre_indexing,
    solve_corner_coupling,
    weyr_centralizer_basis,
    weyr_centralizer_basis_direct,
    weyr_determinant,
    weyr_form,
    weyr_layout,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
FT2 = rational_function_field(2)

IRREDUCIBLE = {
    (2, 1): "x+1", (2, 2): "x^2+x+1", (2, 3): "x^3+x+1",
    (3, 1): "x+1", (3, 2): "x^2+1", (3, 3): "x^3+2*x+1",
}


def _poly(q, s):
    return Poly.parse(IRREDUCIBLE[(q, s)], prime_field(q))


def _stacked_rank(field, mats):
    return Matrix(field, [m.flat() for m in mats]).rank()


def _coarse_support(mats, s):
    """Union of s-block supports over a family of equal-sized matrices."""
    blocks = mats[0].rows // s
    out = set()
    for m in mats:
        for bi in range(blocks):
            for bj in range(blocks):
                if (bi + 1, bj + 1) in out:
                    continue
                if any(m[bi * s + i, bj * s + j]
                       for i in range(s) for j in range(s)):
                    out.add((bi + 1, bj + 1))
    return out


def _grid_to_pairs(grid):
    return {(r, c) for r, cols in grid.items() for c in cols}


# block-level support of the commutant of the block-diagonal form with
# chain lengths (5,4,3,1,1): chains start at rows 1, 6, 10, 13, 14
JORDAN_SUPPORT_54311 = {
    1: {1},
    2: {1, 2, 6},
    3: {1, 2, 3, 6, 7, 10},
    4: {1, 2, 3, 4, 6, 7, 8, 10, 11},
    5: set(range(1, 15)),
    6: {1, 6},
    7: {1, 2, 6, 7, 10},
    8: {1, 2, 3, 6, 7, 8, 10, 11},
    9: {1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14},
    10: {1, 6, 10},
    11: {1, 2, 6, 7, 10, 11},
    12: {1, 2, 3, 6, 7, 8, 10, 11, 12, 13, 14},
    13: {1, 6, 10, 13, 14},
    14: {1, 6, 10, 13, 14},
}

# block-level support of the same commutant after the level reordering,
# tau = (5,3,3,2,1): levels start at rows 1, 6, 9, 12, 14
WEYR_SUPPORT_54311 = {
    1: set(range(1, 15)),
    2: set(range(2, 15)),
    3: {3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14},
    4: {4, 5, 11, 13, 14},
    5: {4, 5, 11, 13, 14},
    6: set(range(6, 15)),
    7: set(range(7, 15)),
    8: {8, 10, 11, 12, 13, 14},
    9: set(range(9, 15)),
    10: set(range(10, 15)),
    11: {11, 13, 14},
    12: {12, 13, 14},
    13: {13, 14},
    14: {14},
}


def test_companion_element_examples():
    c = companion_matrix(Poly.parse("x^2+1", F3))
    one, zero = F3.one, F3.zero
    assert companion_centralizer_element(c, (one, zero)) == \
        Matrix.identity(F3, 2)
    assert companion_centralizer_element(c, (zero, one)) == c
    assert companion_centralizer_element(c, (one, one)) == \
        Matrix(F3, [[1, 2], [1, 1]])
    with pytest.raises(ShapeMismatchError):
        companion_centralizer_element(c, (one,))


@pytest.mark.parametrize("q,s", sorted(IRREDUCIBLE))
def test_companion_basis(q, s):
    p = _poly(q, s)
    c = companion_matrix(p)
    basis = companion_centralizer_basis(c)
    assert basis.dim == s
    assert basis.layout == tuple(ParamSlot(1, 1, 1, e)
                                 for e in range(1, s + 1))
    power = Matrix.identity(p.field, s)
    for b in basis.elements:
        assert b == power
        assert b * c == c * b
        power = power * c
    assert _stacked_rank(p.field, basis.elements) == s
    assert basis.dim == commutant_dimension(c)


@pytest.mark.parametrize("q,s", sorted(IRREDUCIBLE))
def test_companion_element_singular_only_at_zero(q, s):
    # the commuting algebra of an irreducible companion matrix is a field
    field = prime_field(q)
    c = companion_matrix(_poly(q, s))
    scalars = [field.scalar(i) for i in range(q)]
    stack = [[]]
    for _ in range(s):
        stack = [v + [a] for v in stack for a in scalars]
    for v in stack:
        z = companion_centralizer_element(c, v)
        if any(v):
            assert z.determinant()
        else:
            assert not z.determinant()


def test_from_last_row_golden():
    c = companion_matrix(Poly.parse("x^2+1", F3))
    z = from_last_row(c, (F3.scalar(1), F3.scalar(2)))
    # b*I + a*C for last row (a, b) = (1, 2)
    assert z == Matrix(F3, [[2, 2], [1, 2]])
    assert z.row(1) == (F3.one, F3.scalar(2))
    with pytest.raises(ShapeMismatchError):
        from_last_row(c, (F3.one,))


def test_from_last_row_round_trip():
    rng = random.Random(11)
    for q, s in sorted(IRREDUCIBLE):
        field = prime_field(q)
        c = companion_matrix(_poly(q, s))
        for _ in range(100):
            v = [field.random(rng) for _ in range(s)]
            z = companion_centralizer_element(c, v)
            assert from_last_row(c, z.row(s - 1)) == z


def test_last_row_toeplitz():
    x = Matrix(F5, [[1, 2], [3, 4]])
    assert last_row_toeplitz(x) == Matrix(F5, [[0, 3], [0, 0]])
    y = Matrix(F5, [[0, 0, 0], [0, 0, 0], [1, 2, 3]])
    assert last_row_toeplitz(y) == Matrix(F5, [[0, 1, 2],
                                               [0, 0, 1],
                                               [0, 0, 0]])
    # the last row of a strictly upper triangular matrix is zero
    assert last_row_toeplitz(last_row_toeplitz(y)).is_zero()
    with pytest.raises(NotSquareError):
        last_row_toeplitz(Matrix(F5, [[1, 2, 3]]))


def test_corner_coupling_solutions():
    p = Poly.parse("x^2+1", F3)
    c = companion_matrix(p)
    e = corner_matrix(F3, 2)
    zero = Matrix.zeros(F3, 2, 2)
    y, family = solve_corner_coupling(c, e, zero)
    assert y == zero and family.offset == zero
    y, family = solve_corner_coupling(c, e, Matrix.identity(F3, 2))
    assert y == Matrix.identity(F3, 2)
    rng = random.Random(12)
    basis = companion_centralizer_basis(c)
    for _ in range(100):
        x = sample_element(basis, seed=rng.randrange(10 ** 9))
        x = x + last_row_toeplitz(sample_element(basis,
                                                 seed=rng.randrange(10 ** 9)))
        y, family = solve_corner_coupling(c, e, x)
        assert y == x
        for t in (family.offset,) + tuple(family.offset + b
                                          for b in family.basis):
            assert e * x + c * t == t * c + x * e
    with pytest.raises(NoSolutionError):
        solve_corner_coupling(c, e, Matrix(F3, [[1, 0], [0, 0]]))
    with pytest.raises(ShapeMismatchError):
        solve_corner_coupling(c, e, Matrix.zeros(F3, 3, 3))


def test_single_block_basis_scalar_case():
    # s = 1 reduces to lower triangular Toeplitz in the shift powers
    p = Poly.parse("x+3", F5)
    basis = jordan_centralizer_basis(make_spec(p, (3,)))
    shift = Matrix(F5, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert basis.elements == (Matrix.identity(F5, 3), shift, shift * shift)


@pytest.mark.parametrize("q", [2, 3])
def test_single_block_basis_properties(q):
    for s in (1, 2, 3):
        p = _poly(q, s)
        for ell in range(1, 5):
            basis = jordan_centralizer_basis(make_spec(p, (ell,)))
            g = jordan_block(p, ell, E_KIND)
            assert basis.generator == g
            assert basis.dim == ell * s
            for b in basis.elements:
                assert b * g == g * b
            assert _stacked_rank(p.field, basis.elements) == ell * s
            if ell == 1:
                assert basis.elements == \
                    companion_centralizer_basis(companion_matrix(p)).elements


def test_single_block_basis_matches_oracle():
    for q, s, ell in ((2, 1, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2)):
        p = _poly(q, s)
        assert jordan_centralizer_basis(make_spec(p, (ell,))).dim == \
            commutant_dimension(jordan_block(p, ell, E_KIND))


def test_jordan_basis_support_golden():
    # the union of supports over the basis is the block-Toeplitz pattern,
    # identical at every s because tilde slots sit under power slots
    for field, text in ((F7, "x+3"), (F3, "x^2+1")):
        spec = make_spec(Poly.parse(text, field), (5, 4, 3, 1, 1))
        basis = jordan_centralizer_basis(spec)
        assert _coarse_support(basis.elements, spec.s) == \
            _grid_to_pairs(JORDAN_SUPPORT_54311)


def test_jordan_basis_diagonalizable_case():
    # all chains trivial: the commutant is the full matrix algebra
    spec = make_spec(Poly.parse("x+3", F5), (1, 1, 1))
    basis = jordan_centralizer_basis(spec)
    assert basis.dim == 9
    assert _stacked_rank(F5, basis.elements) == 9


@pytest.mark.parametrize("field,text", [(F2, "x+1"), (F3, "x^2+1")])
def test_jordan_basis_32(field, text):
    spec = make_spec(Poly.parse(text, field), (3, 2))
    basis = jordan_centralizer_basis(spec)
    g = jordan_form(spec)
    assert basis.dim == 9 * spec.s
    for b in basis.elements:
        assert b * g == g * b
    assert _stacked_rank(field, basis.elements) == basis.dim
    assert basis.dim == commutant_dimension(g)


def test_jordan_basis_layout_order():
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    layout = jordan_centralizer_basis(spec).layout
    assert layout[0] == ParamSlot(1, 1, 1, 1)
    assert layout[-1] == ParamSlot(2, 2, 1, 2)
    cells = [(slot.chain_row, slot.chain_col) for slot in layout]
    assert cells == sorted(cells)


def test_weyr_basis_support_golden():
    spec = make_spec(Poly.parse("x+3", F7), (5, 4, 3, 1, 1))
    basis = weyr_centralizer_basis(spec)
    assert _coarse_support(basis.elements, 1) == \
        _grid_to_pairs(WEYR_SUPPORT_54311)


def _spec_corpus():
    out = []
    for q in (2, 3):
        for s in (1, 2):
            p = _poly(q, s)
            for alpha in ((1,), (2,), (2, 1), (2, 2), (3, 2, 2)):
                out.append(make_spec(p, alpha))
    out.append(make_spec(_poly(2, 3), (2, 1)))
    out.append(make_spec(Poly.parse("x^2+1", F3), (2, 1), kind=FIRST_KIND))
    return out


def test_weyr_basis_properties():
    for spec in _spec_corpus():
        basis = weyr_centralizer_basis(spec)
        w = weyr_form(spec)
        cuts = weyr_layout(spec)
        dim = centralizer_dimension(spec.segre.alpha, spec.s)
        assert basis.dim == dim
        for b in basis.elements:
            assert b * w == w * b
            for bi in range(len(cuts) - 1):
                for bj in range(bi):
                    assert all(not b[i, j]
                               for i in range(cuts[bi], cuts[bi + 1])
                               for j in range(cuts[bj], cuts[bj + 1]))
        assert _stacked_rank(spec.field, basis.elements) == dim
        assert basis.elements == weyr_centralizer_basis_direct(spec).elements


def test_weyr_basis_trivial_partition():
    spec = make_spec(Poly.parse("x^2+1", F3), (1,))
    basis = weyr_centralizer_basis(spec)
    c = companion_matrix(spec.p)
    assert basis.elements == companion_centralizer_basis(c).elements


def test_weyr_span_matches_oracle():
    for field, text, alpha in ((F2, "x+1", (3, 2, 2)),
                               (F3, "x^2+1", (2, 2)),
                               (F2, "x^3+x+1", (2, 1))):
        spec = make_spec(Poly.parse(text, field), alpha)
        basis = weyr_centralizer_basis(spec)
        assert basis.dim == commutant_dimension(weyr_form(spec))
        assert _stacked_rank(field, basis.elements) == basis.dim


def test_centralizer_dimension_goldens():
    assert centralizer_dimension((3, 2), 1) == 9
    assert centralizer_dimension((3, 2), 2) == 18
    assert centralizer_dimension((5, 4, 3, 1, 1), 1) == 48
    assert centralizer_dimension((5, 4, 3, 1, 1), 2) == 96
    assert centralizer_dimension((1,), 6) == 6
    assert centralizer_dimension((3, 2, 2), 2) == 38


def test_centralizer_dimension_pair_minimum_identity():
    # independent third formula: s * sum over chain pairs of min length
    rng = random.Random(13)
    for _ in range(500):
        alpha = tuple(sorted((rng.randrange(1, 7)
                              for _ in range(rng.randrange(1, 6))),
                             reverse=True))
        if sum(alpha) > 12:
            alpha = alpha[:2]
        s = rng.randrange(1, 4)
        by_pairs = s * sum(min(a, b) for a in alpha for b in alpha)
        assert centralizer_dimension(alpha, s) == by_pairs


def test_weyr_determinant_matches_full_determinant():
    spec = make_spec(Poly.parse("x^2+1", F3), (3, 2, 2))
    basis = weyr_centralizer_basis(spec)
    assert weyr_determinant(Matrix.identity(F3, spec.n), spec) == F3.one
    for seed in range(25):
        k = sample_element(basis, seed=seed)
        assert weyr_determinant(k, spec) == k.determinant()
    with pytest.raises(ShapeMismatchError):
        weyr_determinant(Matrix.identity(F3, 4), spec)


def test_weyr_determinant_rejects_lower_block():
    spec = make_spec(Poly.parse("x+1", F3), (2, 1))
    bad = Matrix(F3, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    with pytest.raises(ShapeMismatchError):
        weyr_determinant(bad, spec)


def test_weyr_determinant_names_the_first_lower_block():
    # alpha (3,3), s = 1: three levels of two rows, cuts 0, 2, 4, 6.  The
    # message names the first block row with a nonzero entry left of its
    # diagonal block, and the lowest block column it reaches there.
    spec = make_spec(Poly.parse("x+1", F3), (3, 3))

    def with_ones(cells):
        rows = [[int(i == j) for j in range(6)] for i in range(6)]
        for i, j in cells:
            rows[i][j] = 1
        return Matrix(F3, rows)

    for cells, at in (([(4, 3), (5, 1)], "(3,1)"), ([(4, 3)], "(3,2)"),
                      ([(5, 1), (2, 0)], "(2,1)"), ([(3, 1), (0, 5)], "(2,1)")):
        with pytest.raises(ShapeMismatchError) as err:
            weyr_determinant(with_ones(cells), spec)
        assert str(err.value) == \
            f"nonzero block below the level diagonal at {at}"
    upper = with_ones([(0, 5), (1, 2), (3, 4)])
    assert weyr_determinant(upper, spec) == upper.determinant()


def test_weyr_determinant_grouped_closed_form():
    # chains (5,4,3,1,1): the level-one diagonal parameters a, b, c and
    # the 2x2 tail [[d, g], [f, e]] determine the whole determinant as
    # a^5 b^4 c^3 (de - gf)
    spec = make_spec(Poly.parse("x+3", F7), (5, 4, 3, 1, 1))
    basis = weyr_centralizer_basis(spec)
    for seed in range(20):
        k = sample_element(basis, seed=seed)
        a, b, c, d, e = (k[i, i] for i in range(5))
        g, f = k[3, 4], k[4, 3]
        grouped = a ** 5 * b ** 4 * c ** 3 * (d * e - g * f)
        assert weyr_determinant(k, spec) == grouped == k.determinant()


def test_is_automorphism():
    spec = make_spec(Poly.parse("x^2+1", F3), (3, 2))
    basis = weyr_centralizer_basis(spec)
    assert is_automorphism(Matrix.identity(F3, spec.n), spec)
    assert not is_automorphism(Matrix.zeros(F3, spec.n, spec.n), spec)
    with pytest.raises(NotInCentralizerError):
        is_automorphism(Matrix(F3, [[i == 0 and j == 1 for j in range(10)]
                                    for i in range(10)]), spec)
    with pytest.raises(ShapeMismatchError):
        is_automorphism(Matrix.identity(F3, 4), spec)


def test_zeroed_leading_parameter_kills_invertibility():
    # the slot (1,1,1,1) parameter is the only source of the first
    # level-one diagonal entry, so zeroing it forces determinant zero
    spec = make_spec(Poly.parse("x+3", F7), (5, 4, 3, 1, 1))
    basis = weyr_centralizer_basis(spec)
    rng = random.Random(14)
    idx = basis.layout.index(ParamSlot(1, 1, 1, 1))
    for _ in range(10):
        coeffs = [F7.random(rng) for _ in range(basis.dim)]
        coeffs[idx] = F7.zero
        k = sample_element(basis, coeffs=coeffs)
        assert not weyr_determinant(k, spec)
        assert not is_automorphism(k, spec)


def test_direct_sum_dimension():
    p1 = Poly.parse("x+1", F5)
    p2 = Poly.parse("x+2", F5)
    assert direct_sum_dimension([(p1, (2, 1)), (p2, (1,))]) == 6
    assert direct_sum_dimension([(p1, (3, 2))]) == \
        centralizer_dimension((3, 2), 1)
    with pytest.raises(NotCoprimeError):
        direct_sum_dimension([(p1, (2,)), (p1, (1,))])
    # oracle: block diagonal of the two forms
    g1 = jordan_form(make_spec(p1, (2, 1)))
    g2 = jordan_form(make_spec(p2, (1,)))
    n1, n2 = g1.rows, g2.rows
    field = F5
    big = Matrix(field, [[g1[i, j] if i < n1 and j < n1
                          else g2[i - n1, j - n1] if i >= n1 and j >= n1
                          else 0 for j in range(n1 + n2)]
                         for i in range(n1 + n2)])
    assert commutant_dimension(big) == 6


def test_sample_element():
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    basis = weyr_centralizer_basis(spec)
    zero = sample_element(basis, coeffs=[0] * basis.dim)
    assert zero.is_zero()
    e1 = [0] * basis.dim
    e1[0] = 1
    assert sample_element(basis, coeffs=e1) == basis.elements[0]
    assert sample_element(basis, seed=5) == sample_element(basis, seed=5)
    w = weyr_form(spec)
    seen = set()
    for seed in range(10):
        k = sample_element(basis, seed=seed)
        assert k * w == w * k
        seen.add(str(k))
    assert len(seen) > 1
    with pytest.raises(LengthMismatchError):
        sample_element(basis, coeffs=[1, 2])


def _reference_sample(basis, coeffs):
    """sum c_i B_i by Matrix add and scale, one term at a time."""
    field = basis.field
    n = basis.generator.rows
    acc = Matrix.zeros(field, n, n)
    for c, b in zip(coeffs, basis.elements):
        acc = acc + b * field.scalar(c)
    return acc


@pytest.mark.parametrize("field, poly, alpha", [
    (F3, "x^2+1", (2, 1)), (QQ, "x^2+1", (2, 2, 1)),
    (FT2, "x^2+t*x+t", (2, 1))])
def test_sample_element_matches_term_by_term_sum(field, poly, alpha):
    spec = make_spec(Poly.parse(poly, field), alpha, assume_irreducible=True)
    for basis in (jordan_centralizer_basis(spec),
                  weyr_centralizer_basis(spec)):
        rng = random.Random(f"sample:{field.name}")
        coeffs = [field.zero if i % 3 == 0 else field.random(rng)
                  for i in range(basis.dim)]
        if field is QQ:
            assert any(c.value.denominator > 1 for c in coeffs)
        assert sample_element(basis, coeffs=coeffs) == \
            _reference_sample(basis, coeffs)
        # A seed draws the coefficients in order from random.Random(seed).
        rng = random.Random(7)
        drawn = [field.random(rng) for _ in range(basis.dim)]
        assert sample_element(basis, seed=7) == \
            _reference_sample(basis, drawn)
        assert sample_element(basis, coeffs=[0] * basis.dim).is_zero()


def test_sample_element_dimension_one():
    basis = weyr_centralizer_basis(make_spec(Poly.parse("x+1", F3), (1,)))
    assert basis.dim == 1
    for c in (0, 1, 2):
        k = sample_element(basis, coeffs=[c])
        assert k == Matrix(F3, [[c]]) == _reference_sample(basis, [c])


# sha256 of the texts of sample_element(basis, seed=i), i = 0..4, joined
# by newlines, per (field, poly, alpha, kind, basis).  Recorded before
# sampling moved to the nonzero entries; a seeded sample never changes.
_SAMPLE_DIGESTS = {
    ("gf:2", "x^2+x+1", (2, 1), "e", "jordan"):
        "c26a1663a783dddf1d38f4f89dd05130f2ea5fe43a46915b2cd6578bb1c91310",
    ("gf:2", "x^2+x+1", (2, 1), "e", "weyr"):
        "35f49f7fbadec97fcc1aa547c1654c7de0c6094d3479cffffebff3647011bc64",
    ("gf:2", "x^2+x+1", (2, 1), "first", "jordan"):
        "1fe675f1c2ca0230dcb595e470758971184699cbc281bfb1b4985b8d09e734c2",
    ("gf:2", "x^2+x+1", (2, 1), "first", "weyr"):
        "9ed70a7584100e910aa63c5fcae99aa69eb83079950fa9c3adbb1b29fc52b3c5",
    ("gf:3", "x^2+1", (3, 1, 1), "e", "jordan"):
        "788fa209917b791e11dc8111961a90dc75452d9e8b2744b27439b9716f3c82e0",
    ("gf:3", "x^2+1", (3, 1, 1), "e", "weyr"):
        "dbc23a6151f88929b839766df6ba10068acbf13ddf2aa8d86989c2cf9d3e7128",
    ("gf:3", "x^2+1", (3, 1, 1), "first", "jordan"):
        "5daa31920957764c02dfb45d900b398458c13921ab60893353ff4f98a34b91da",
    ("gf:3", "x^2+1", (3, 1, 1), "first", "weyr"):
        "7a929376954d8c4c504bbef7bd1ad1275cec9f2c85dbc12133eef82c07701b5c",
    ("gf:5", "x^2+2", (2, 2, 1), "e", "jordan"):
        "bc40adf2a7227401695e5e75e87ab33c6b04cd3960138f6309de7bd2a1b7b03c",
    ("gf:5", "x^2+2", (2, 2, 1), "e", "weyr"):
        "c48596ec8a707273d3b65d74d5d71086a81a9883f43ac495e774db93036c844c",
    ("gf:5", "x^2+2", (2, 2, 1), "first", "jordan"):
        "e9e57778379782956ee1ea8d88e2837ee5ccda3f331bc05c86c650e3a48c09cd",
    ("gf:5", "x^2+2", (2, 2, 1), "first", "weyr"):
        "5ff08545f9c678a5dc25250ecdf9f1a4977ac5c11c5ee3b4f12db750902e2d9c",
    ("gf:4294967291", "x^2+1", (3, 2, 1), "e", "jordan"):
        "df8f9b9b1ac298a3c03028042e4843a9ff242a7c48a77616fc47f4ba8774f3ed",
    ("gf:4294967291", "x^2+1", (3, 2, 1), "e", "weyr"):
        "5d1ff3d7ec96a8759ea0759eb441429b02b3f9d981d127062c169c91a6465ac2",
    ("gf:4294967291", "x^2+1", (3, 2, 1), "first", "jordan"):
        "a6cf3ecca1495f65b17c70738fe077614d407fe0bb51eae521b752a3c7ba2fc7",
    ("gf:4294967291", "x^2+1", (3, 2, 1), "first", "weyr"):
        "0797fa0849c0a5f54fa13bfc98328afb5643ae30cdd9c353d6289e42663dbe93",
    ("q", "x^2+1", (2, 1), "e", "jordan"):
        "762b36e9e5fae6edf0edcc878c02313be2987a5b7477750b89d3e0275009798e",
    ("q", "x^2+1", (2, 1), "e", "weyr"):
        "98178f09e20cde44e5ce4443b707b9c854b66845b5209c585ef62ed9a02c215b",
    ("q", "x^2+1", (2, 1), "first", "jordan"):
        "5945e84d7402049f83fad3c9ea45ab05ae19ed99e4790ebeba6fba9b6f9711c6",
    ("q", "x^2+1", (2, 1), "first", "weyr"):
        "ac4d70c193e21cad188bd9b017ae9b4b1067002df5f39cd79592c4f5ba11d566",
    ("gft:2", "x^2+x+t", (2, 1), "e", "jordan"):
        "8435ce410bb9fbd55345b994ce48a11aacd878b55785829e0595ed9090d85920",
    ("gft:2", "x^2+x+t", (2, 1), "e", "weyr"):
        "ac71525274796f2854e2221d7563122ad6299bea2af88bde412caa081fdf9c1a",
    ("gft:2", "x^2+x+t", (2, 1), "first", "jordan"):
        "90e35a96223a95ff9b9b1fa6db21da037d9b7d799f8e532c4223d62b4799bb21",
    ("gft:2", "x^2+x+t", (2, 1), "first", "weyr"):
        "e4b88bdf26c50cc7de4cf9f3fc5f59a8939501b9e0508afa8965c4d8fb83e153",
}


@pytest.mark.parametrize("case", sorted(_SAMPLE_DIGESTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_seeded_samples_are_pinned(case):
    name, poly, alpha, kind, which = case
    field = field_from_name(name)
    spec = make_spec(Poly.parse(poly, field), alpha, kind,
                     assume_irreducible=True)
    build = {"jordan": jordan_centralizer_basis,
             "weyr": weyr_centralizer_basis}[which]
    basis = build(spec)
    texts = "\n".join(matrix_to_text(sample_element(basis, seed=i))
                      for i in range(5))
    assert hashlib.sha256(texts.encode()).hexdigest() == \
        _SAMPLE_DIGESTS[case]


def test_first_kind_basis_no_tilde_terms():
    # identity coupling keeps every cell a pure polynomial in the
    # companion block, so the support has no subdiagonal spill
    spec = make_spec(Poly.parse("x^2+1", F3), (2,), kind=FIRST_KIND)
    basis = jordan_centralizer_basis(spec)
    g = jordan_form(spec)
    assert basis.dim == 4
    for b in basis.elements:
        assert b * g == g * b
    assert basis.dim == commutant_dimension(g)
    segre = segre_indexing((2,))
    assert segre.tau == (1, 1)
    # slot 2 element is supported on the lower coarse diagonal only
    slot2 = basis.elements[basis.layout.index(ParamSlot(1, 1, 2, 1))]
    assert _coarse_support([slot2], 2) == {(2, 1)}
