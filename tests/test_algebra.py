"""Field arithmetic, polynomial arithmetic, irreducibility, separability."""

import random
from fractions import Fraction

import pytest

from centra import (
    BothZeroError,
    DegreeZeroError,
    DivisionByZeroError,
    FieldMismatchError,
    IrreducibilityUnsupportedError,
    NotMonicError,
    ParseError,
    Poly,
    QQ,
    Scalar,
    is_irreducible,
    is_separable,
    poly_gcd,
    prime_field,
    rational_function_field,
)

FIELDS = [
    prime_field(2),
    prime_field(3),
    prime_field(5),
    prime_field(65521),
    QQ,
    rational_function_field(2),
    rational_function_field(3),
]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_field_axioms(field):
    rng = random.Random(20240601)
    one = field.one
    zero = field.zero
    for _ in range(1000):
        a = field.random(rng)
        b = field.random(rng)
        c = field.random(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero
        if b != zero:
            assert b * b.inverse() == one
            assert (a / b) * b == a


def test_scalar_examples():
    f5 = prime_field(5)
    assert f5.scalar(2).inverse() == f5.scalar(3)
    assert QQ.scalar("1/2") + QQ.scalar("1/3") == QQ.scalar("5/6")
    assert QQ.scalar(Fraction(1, 2)).value == Fraction(1, 2)
    with pytest.raises(DivisionByZeroError):
        prime_field(3).zero.inverse()
    with pytest.raises(DivisionByZeroError):
        f5.one / f5.zero


def test_field_mismatch():
    a = prime_field(3).one
    b = prime_field(5).one
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * QQ.one


def test_scalar_parsing_and_text():
    f7 = prime_field(7)
    assert f7.scalar("12") == f7.scalar(5)
    assert f7.scalar("-1") == f7.scalar(6)
    assert str(f7.scalar(5)) == "5"
    assert str(QQ.scalar("-3/4")) == "-3/4"
    ft = rational_function_field(3)
    a = ft.scalar("(t^2+2*t+1)/(t+1)")
    assert a == ft.scalar("t+1")
    assert ft.scalar("(t+1)/(2*t+2)") == ft.scalar("2")
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(50):
            a = field.random(rng)
            assert field.scalar(str(a)) == a


def test_rational_function_reduction_invariants():
    ft = rational_function_field(5)
    rng = random.Random(99)
    for _ in range(200):
        a = ft.random(rng)
        num, den = a.value
        g = poly_gcd(ft._num(a.value), ft._den(a.value)) \
            if num or den else None
        if g is not None:
            assert g.degree == 0
        assert ft._den(a.value).is_monic()


def test_poly_parse_round_trip():
    cases = [
        (prime_field(3), "x^3+2*x+1"),
        (prime_field(3), "x"),
        (prime_field(3), "2"),
        (prime_field(2), "x^4+x+1"),
        (QQ, "x^2-3/4*x+1/2"),
        (rational_function_field(2), "x^2+t"),
        (rational_function_field(3), "(t+1)*x^2+(t^2+1)/(t+2)*x+2"),
    ]
    for field, text in cases:
        p = Poly.parse(text, field)
        again = Poly.parse(str(p), field)
        assert again == p
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(60):
            coeffs = [field.random(rng) for _ in range(rng.randrange(1, 6))]
            p = Poly(field, coeffs)
            assert Poly.parse(str(p), field) == p


def test_poly_parse_errors():
    f3 = prime_field(3)
    for bad in ["", "x+", "x^-1", "((x)", "x^^2", "y+1", "x^"]:
        with pytest.raises(ParseError):
            Poly.parse(bad, f3)


def test_poly_divmod_identity():
    rng = random.Random(41)
    for field in (prime_field(2), prime_field(5), QQ):
        for _ in range(300):
            a = Poly(field, [field.random(rng)
                             for _ in range(rng.randrange(0, 7))])
            b = Poly(field, [field.random(rng)
                             for _ in range(rng.randrange(1, 5))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_poly_gcd_properties():
    f2 = prime_field(2)
    assert poly_gcd(Poly.parse("x^2-1", QQ), Poly.parse("x-1", QQ)) == \
        Poly.parse("x-1", QQ)
    assert poly_gcd(Poly.parse("x^5+x+1", f2), Poly.one(f2)).degree == 0
    with pytest.raises(BothZeroError):
        poly_gcd(Poly.zero(f2), Poly.zero(f2))
    ft = rational_function_field(2)
    p = Poly.parse("x^2+t", ft)
    assert poly_gcd(p, p.derivative()) == p
    rng = random.Random(5)
    for field in (prime_field(3), QQ):
        for _ in range(150):
            a = Poly(field, [field.random(rng)
                             for _ in range(rng.randrange(1, 6))])
            b = Poly(field, [field.random(rng)
                             for _ in range(rng.randrange(1, 6))])
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert g.is_monic()
            if not a.is_zero():
                assert (a % g).is_zero()
            if not b.is_zero():
                assert (b % g).is_zero()


def test_poly_derivative():
    f3 = prime_field(3)
    assert Poly.parse("x^2+1", f3).derivative() == Poly.parse("2*x", f3)
    ft = rational_function_field(2)
    assert Poly.parse("x^2+t", ft).derivative().is_zero()
    assert Poly.parse("5", QQ).derivative().is_zero()
    assert Poly.parse("x^3", QQ).derivative() == Poly.parse("3*x^2", QQ)


def _all_monic(field, degree):
    if degree == 0:
        yield Poly.one(field)
        return
    span = [field.scalar(v) for v in range(field.characteristic)]
    def rec(coeffs):
        if len(coeffs) == degree:
            yield Poly(field, coeffs + [field.one])
            return
        for c in span:
            yield from rec(coeffs + [c])
    yield from rec([])


def _irreducible_by_search(p):
    """Trial division by every monic of degree 1..deg/2."""
    for d in range(1, p.degree // 2 + 1):
        for cand in _all_monic(p.field, d):
            if (p % cand).is_zero():
                return False
    return True


@pytest.mark.parametrize("q", [2, 3, 5])
def test_irreducibility_matches_exhaustive_search(q):
    field = prime_field(q)
    for degree in range(1, 5):
        for p in _all_monic(field, degree):
            assert is_irreducible(p) == _irreducible_by_search(p), str(p)


def test_irreducibility_examples():
    assert is_irreducible(Poly.parse("x^2+1", prime_field(3))) is True
    assert is_irreducible(Poly.parse("x^2+1", prime_field(5))) is False
    assert is_irreducible(Poly.parse("x^2+x+1", prime_field(2))) is True
    with pytest.raises(NotMonicError):
        is_irreducible(Poly.parse("2*x+1", prime_field(3)))
    with pytest.raises(DegreeZeroError):
        is_irreducible(Poly.one(prime_field(3)))


def test_irreducibility_asserted_fields():
    p = Poly.parse("x^2+1", QQ)
    with pytest.raises(IrreducibilityUnsupportedError):
        is_irreducible(p)
    assert bool(is_irreducible(p, assume_irreducible=True))
    assert is_irreducible(Poly.parse("x-2", QQ)) is True
    # a square factors visibly through gcd with the derivative
    sq = Poly.parse("x^2-2*x+1", QQ)
    assert is_irreducible(sq, assume_irreducible=True) is False
    ft = rational_function_field(2)
    assert bool(is_irreducible(Poly.parse("x^2+t", ft),
                               assume_irreducible=True))


def test_separability():
    assert is_separable(Poly.parse("x^2+1", prime_field(3)))
    ft = rational_function_field(2)
    assert not is_separable(Poly.parse("x^2+t", ft))
    # finite fields are perfect: every irreducible in the corpus is separable
    for q in (2, 3, 5):
        field = prime_field(q)
        for degree in range(1, 5):
            for p in _all_monic(field, degree):
                if is_irreducible(p):
                    assert is_separable(p), str(p)
                    assert poly_gcd(p, p.derivative()).degree == 0


def test_pow_mod_matches_naive():
    f5 = prime_field(5)
    modulus = Poly.parse("x^3+x+1", f5)
    rng = random.Random(17)
    for _ in range(40):
        base = Poly(f5, [f5.random(rng) for _ in range(3)])
        e = rng.randrange(0, 60)
        naive = Poly.one(f5)
        for _ in range(e):
            naive = (naive * base) % modulus
        assert base.pow_mod(e, modulus) == naive


def test_scalar_pow():
    f7 = prime_field(7)
    a = f7.scalar(3)
    assert a ** 0 == f7.one
    assert a ** 3 == f7.scalar(27)
    assert a ** -1 == a.inverse()
    assert isinstance(a ** 2, Scalar)
    e = 10 ** 6 + 3
    assert (a ** e).value == pow(3, e, 7)
    assert a ** -e == (a ** e).inverse()
    assert (a ** -e).value == pow(pow(3, -1, 7), e, 7)
    with pytest.raises(DivisionByZeroError):
        f7.zero ** -2
    assert f7.zero ** 0 == f7.one
    q = QQ.scalar("2/3")
    assert q ** 5 == QQ.scalar("32/243") and q ** -2 == QQ.scalar("9/4")
