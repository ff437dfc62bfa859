"""Canonical form constructions: blocks, forms, permutation, characteristic."""

import random

import pytest

from centra import (
    DegreeZeroError,
    E_KIND,
    FIRST_KIND,
    Matrix,
    NonPositivePartError,
    NonSeparableFirstKindError,
    NotMonicError,
    NotMultipleOfSError,
    NotSortedDescendingError,
    ParseError,
    Poly,
    QQ,
    ReducibleError,
    SIZE_CAP,
    TooLargeError,
    block_permutation_matrix,
    companion_matrix,
    conjugate_by_block_permutation,
    conjugate_partition,
    corner_matrix,
    dn_split,
    jordan_block,
    jordan_form,
    make_spec,
    poly_at_matrix,
    prime_field,
    rational_function_field,
    segre_indexing,
    weyr_characteristic,
    weyr_form,
    weyr_permutation,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)

IRREDUCIBLE = {
    (2, 1): "x+1", (2, 2): "x^2+x+1", (2, 3): "x^3+x+1",
    (3, 1): "x+1", (3, 2): "x^2+1", (3, 3): "x^3+2*x+1",
    (5, 1): "x+2", (5, 2): "x^2+2", (5, 3): "x^3+x+1",
}


def _poly(q, s):
    return Poly.parse(IRREDUCIBLE[(q, s)], prime_field(q))


def test_companion_examples():
    c = companion_matrix(Poly.parse("x^2+1", F3))
    assert c == Matrix(F3, [[0, 2], [1, 0]])
    lam = companion_matrix(Poly.parse("x+3", F5))
    assert lam == Matrix(F5, [[2]])
    with pytest.raises(NotMonicError):
        companion_matrix(Poly.parse("2*x+1", F3))
    with pytest.raises(DegreeZeroError):
        companion_matrix(Poly.one(F3))


def test_companion_is_nonderogatory():
    # p(C)=0 and powers I..C^(s-1) independent force char = minimal = p
    for (q, s), text in IRREDUCIBLE.items():
        p = Poly.parse(text, prime_field(q))
        c = companion_matrix(p)
        assert poly_at_matrix(p, c).is_zero()
        powers = []
        m = Matrix.identity(p.field, s)
        for _ in range(s):
            powers.append(m.flat())
            m = m * c
        assert Matrix(p.field, powers).rank() == s


def test_segre_indexing_goldens():
    d = segre_indexing((3, 2, 2))
    assert d.sigma == (3, 5, 7)
    assert d.tau == (3, 3, 1)
    assert d.levels == (0, 3, 6, 7)
    assert d.r == 7 and d.m == 3
    assert segre_indexing((5, 4, 3, 1, 1)).tau == (5, 3, 3, 2, 1)
    single = segre_indexing((4,))
    assert single.sigma == (4,) and single.levels == (0, 1, 2, 3, 4)
    with pytest.raises(NotSortedDescendingError):
        segre_indexing((2, 3))
    with pytest.raises(NonPositivePartError):
        segre_indexing((2, 0))
    with pytest.raises(NonPositivePartError):
        segre_indexing(())


def test_conjugate_partition():
    assert conjugate_partition((3, 2, 2)) == (3, 3, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)
    assert conjugate_partition((5, 4, 3, 1, 1)) == (5, 3, 3, 2, 1)
    rng = random.Random(6)
    for _ in range(200):
        alpha = tuple(sorted((rng.randrange(1, 8)
                              for _ in range(rng.randrange(1, 7))),
                             reverse=True))
        assert conjugate_partition(conjugate_partition(alpha)) == alpha
        assert sum(conjugate_partition(alpha)) == sum(alpha)


def test_jordan_block_shapes():
    p = Poly.parse("x^2+1", F3)
    assert jordan_block(p, 1, E_KIND) == companion_matrix(p)
    g = jordan_block(p, 3, E_KIND)
    assert g.rows == 6
    c = companion_matrix(p)
    e = corner_matrix(F3, 2)
    for bi in range(3):
        for bj in range(3):
            block = Matrix(F3, [[g[bi * 2 + i, bj * 2 + j]
                                 for j in range(2)] for i in range(2)])
            if bi == bj:
                assert block == c
            elif bi == bj + 1:
                assert block == e
            else:
                assert block.is_zero()


def test_jordan_block_s1_is_classical():
    p = Poly.parse("x+3", F5)  # eigenvalue 2
    g = jordan_block(p, 3, E_KIND)
    assert g == Matrix(F5, [[2, 0, 0], [1, 2, 0], [0, 1, 2]])


def test_first_kind_uses_identity_coupling():
    p = Poly.parse("x^2+1", F3)
    g = jordan_block(p, 2, FIRST_KIND)
    sub = Matrix(F3, [[g[2 + i, j] for j in range(2)] for i in range(2)])
    assert sub == Matrix.identity(F3, 2)
    ft = rational_function_field(2)
    with pytest.raises(NonSeparableFirstKindError):
        make_spec(Poly.parse("x^2+t", ft), (2,), kind=FIRST_KIND,
                  assume_irreducible=True)


@pytest.mark.parametrize("q", [2, 3])
def test_block_minimal_polynomial(q):
    for s in (1, 2, 3):
        p = _poly(q, s)
        for ell in range(1, 5):
            g = jordan_block(p, ell, E_KIND)
            power = Matrix.identity(p.field, s * ell)
            pk = poly_at_matrix(p, g)
            for _ in range(ell - 1):
                power = power * pk
            assert not power.is_zero()
            assert (power * pk).is_zero()


def test_jordan_block_checks_the_spec():
    """jordan_block runs make_spec's checks before building anything."""
    x2 = Poly.parse("x^2+1", F3)
    gft_p = Poly.parse("x^2+t", rational_function_field(2))
    for args, error in [
            ((Poly.parse("x^2+2", F3), 2), ReducibleError),
            ((Poly.parse("x+1", F3), SIZE_CAP + 1), TooLargeError),
            ((x2, 0), NonPositivePartError),
            ((gft_p, 2, FIRST_KIND), NonSeparableFirstKindError),
            ((x2, 2, "weird"), ParseError)]:
        with pytest.raises(error):
            jordan_block(*args)


def test_jordan_form_layout():
    spec = make_spec(Poly.parse("x^2+1", F3), (3, 2))
    g = jordan_form(spec)
    assert g.rows == 10
    b1 = jordan_block(spec.p, 3, E_KIND)
    b2 = jordan_block(spec.p, 2, E_KIND)
    assert Matrix(F3, [[g[i, j] for j in range(6)] for i in range(6)]) == b1
    assert Matrix(F3, [[g[6 + i, 6 + j] for j in range(4)]
                       for i in range(4)]) == b2
    assert all(not g[i, 6 + j] for i in range(6) for j in range(4))
    assert all(not g[6 + i, j] for i in range(4) for j in range(6))
    single = make_spec(Poly.parse("x^2+1", F3), (1,))
    assert jordan_form(single) == companion_matrix(spec.p)


def test_make_spec_validation():
    with pytest.raises(ReducibleError):
        make_spec(Poly.parse("x^2+2", F3), (2,))
    with pytest.raises(ParseError):
        make_spec(Poly.parse("x^2+1", F3), (2,), kind="weird")
    with pytest.raises(NotSortedDescendingError):
        make_spec(Poly.parse("x^2+1", F3), (1, 2))
    spec = make_spec(Poly.parse("x^2+1", QQ), (2, 1), assume_irreducible=True)
    assert spec.s == 2 and spec.n == 6
    # n = s * sum(alpha) above SIZE_CAP is refused before any indexing.
    x2 = Poly.parse("x^2+1", F3)
    assert make_spec(x2, (SIZE_CAP // 2 - 1, 1)).n == SIZE_CAP
    for alpha in ((SIZE_CAP // 2, 1), (10 ** 40,)):
        with pytest.raises(TooLargeError):
            make_spec(x2, alpha)


def test_dn_split():
    spec = make_spec(Poly.parse("x^2+1", F3), (2,), kind=FIRST_KIND)
    d, n = dn_split(spec)
    assert d + n == jordan_form(spec)
    assert d * n == n * d
    ft = rational_function_field(2)
    spec_e = make_spec(Poly.parse("x^2+t", ft), (2,), assume_irreducible=True)
    d, n = dn_split(spec_e)
    assert d + n == jordan_form(spec_e)
    assert d * n != n * d
    trivial = make_spec(Poly.parse("x^2+1", F3), (1,))
    d, n = dn_split(trivial)
    assert n.is_zero()
    assert d * n == n * d


def test_weyr_permutation_golden():
    spec = make_spec(Poly.parse("x^2+1", F3), (3, 2, 2))
    order = weyr_permutation(spec)
    assert [o + 1 for o in order] == [3, 5, 7, 2, 4, 6, 1]
    pm = block_permutation_matrix(F3, order, 2)
    assert pm * pm.transpose() == Matrix.identity(F3, 14)
    single = make_spec(Poly.parse("x^2+1", F3), (1,))
    assert weyr_permutation(single) == [0]
    pm1 = block_permutation_matrix(F3, weyr_permutation(single), 2)
    assert pm1 == Matrix.identity(F3, 2)


def _coarse_support(m, s):
    blocks = m.rows // s
    out = set()
    for bi in range(blocks):
        for bj in range(blocks):
            if any(m[bi * s + i, bj * s + j]
                   for i in range(s) for j in range(s)):
                out.add((bi + 1, bj + 1))
    return out


def test_weyr_form_golden_322():
    # seven s-blocks: companion diagonal plus couplings (1,4),(2,5),(3,6),(4,7)
    for field, text in ((F2, "x+1"), (F3, "x^2+1")):
        p = Poly.parse(text, field)
        spec = make_spec(p, (3, 2, 2))
        w = weyr_form(spec)
        s = spec.s
        c = companion_matrix(p)
        e = corner_matrix(field, s)
        expected = {(i, i) for i in range(1, 8)} | {(1, 4), (2, 5), (3, 6),
                                                    (4, 7)}
        assert _coarse_support(w, s) == expected
        for i in range(7):
            block = Matrix(field, [[w[i * s + a, i * s + b]
                                    for b in range(s)] for a in range(s)])
            assert block == c
        for bi, bj in ((0, 3), (1, 4), (2, 5), (3, 6)):
            block = Matrix(field, [[w[bi * s + a, bj * s + b]
                                    for b in range(s)] for a in range(s)])
            assert block == e


def test_weyr_form_golden_54311():
    spec = make_spec(Poly.parse("x+1", F2), (5, 4, 3, 1, 1))
    w = weyr_form(spec)
    couplings = {(1, 6), (2, 7), (3, 8), (6, 9), (7, 10), (8, 11), (9, 12),
                 (10, 13), (12, 14)}
    expected = {(i, i) for i in range(1, 15)} | couplings
    assert _coarse_support(w, 1) == expected


def test_weyr_form_no_nilpotent_part():
    spec = make_spec(Poly.parse("x^2+1", F3), (1, 1))
    w = weyr_form(spec)
    c = companion_matrix(spec.p)
    assert w == Matrix(F3, [[c[0, 0], c[0, 1], 0, 0],
                            [c[1, 0], c[1, 1], 0, 0],
                            [0, 0, c[0, 0], c[0, 1]],
                            [0, 0, c[1, 0], c[1, 1]]])


def _spec_corpus():
    out = []
    for q in (2, 3):
        for s in (1, 2, 3):
            p = _poly(q, s)
            for alpha in ((1,), (2,), (3, 1), (2, 2), (3, 2, 2), (4, 2, 1)):
                out.append(make_spec(p, alpha))
    ft = rational_function_field(2)
    out.append(make_spec(Poly.parse("x^2+t", ft), (2, 1),
                         assume_irreducible=True))
    out.append(make_spec(Poly.parse("x^2+1", QQ), (2, 2),
                         assume_irreducible=True))
    return out


def test_conjugation_identity_corpus():
    for spec in _spec_corpus():
        g = jordan_form(spec)
        w = weyr_form(spec)
        order = weyr_permutation(spec)
        pm = block_permutation_matrix(spec.field, order, spec.s)
        assert conjugate_by_block_permutation(g, order, spec.s) == w
        assert pm.inverse() * g * pm == w


def test_weyr_characteristic_corpus():
    for spec in _spec_corpus():
        w = weyr_form(spec)
        assert weyr_characteristic(w, spec.p) == spec.segre.tau


def test_weyr_characteristic_examples():
    spec = make_spec(Poly.parse("x^2+1", F3), (1,))
    assert weyr_characteristic(weyr_form(spec), spec.p) == (1,)
    # a kernel step that is not a multiple of s flags a mismatched p
    nilp3 = Matrix(F3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(NotMultipleOfSError):
        weyr_characteristic(nilp3, Poly.parse("x^2", F3))
    # a polynomial coprime to the minimal polynomial sees a zero kernel chain
    spec322 = make_spec(Poly.parse("x^2+1", F3), (3, 2, 2))
    assert weyr_characteristic(weyr_form(spec322), Poly.parse("x+1", F3)) == ()
    with pytest.raises(DegreeZeroError):
        weyr_characteristic(nilp3, Poly.one(F3))


def test_minimal_polynomial_of_form():
    for spec in _spec_corpus():
        g = jordan_form(spec)
        a1 = spec.segre.alpha[0]
        pk = poly_at_matrix(spec.p, g)
        power = Matrix.identity(spec.field, spec.n)
        for _ in range(a1 - 1):
            power = power * pk
        assert not power.is_zero()
        assert (power * pk).is_zero()


def test_first_kind_weyr_uses_identity_coupling():
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1), kind=FIRST_KIND)
    w = weyr_form(spec)
    # coupling block sits at coarse (1,3) for tau=(2,1)
    sub = Matrix(F3, [[w[0 + i, 4 + j] for j in range(2)] for i in range(2)])
    assert sub == Matrix.identity(F3, 2)
    g = jordan_form(spec)
    order = weyr_permutation(spec)
    assert conjugate_by_block_permutation(g, order, spec.s) == w
