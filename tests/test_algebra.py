"""Field arithmetic, polynomial arithmetic, irreducibility, separability."""

import operator
import random
import sys
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
    SIZE_CAP,
    Matrix,
    Scalar,
    TooLargeError,
    field_from_name,
    is_irreducible,
    is_separable,
    poly_gcd,
    prime_field,
    rational_function_field,
)
from centra.algebra import _power

FIELDS = [
    prime_field(2),
    prime_field(3),
    prime_field(5),
    prime_field(65521),
    prime_field(4294967291),
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
        assert a - b == a + (-b)
        if b != zero:
            assert b * b.inverse() == one
            assert (a / b) * b == a
            assert a / b == a * b.inverse()
    for x in (field.random(rng), field.one):
        with pytest.raises(DivisionByZeroError):
            x / zero
    with pytest.raises(DivisionByZeroError):
        1 / zero


def test_field_constructors_are_cached():
    assert prime_field(7) is prime_field(7)
    assert rational_function_field(3) is rational_function_field(3)
    for _ in range(2):  # a refused size is refused again, not cached
        with pytest.raises(ParseError):
            prime_field(4)


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


def test_poly_coerces_coefficients_into_its_field():
    f3, f5 = prime_field(3), prime_field(5)
    with pytest.raises(FieldMismatchError):
        Poly(f5, [f3.scalar(2), 1])
    with pytest.raises(FieldMismatchError):
        Poly(f5, [1]) + Poly(f3, [1])
    p = Poly(f5, [f5.scalar(7), "3", 1, 0])
    assert p.coeffs == (2, 3, 1) and p.coeff(0) == f5.scalar(2)
    ft = rational_function_field(2)
    q = Poly.parse("(t+1)*x^2+1/t", ft)
    assert not any(isinstance(c, Scalar) for c in q.coeffs)
    assert q.coeffs[0] == ((1,), (0, 1))


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
        num, den = (Poly(ft.base, half) for half in a.value)
        assert poly_gcd(num, den).degree == 0
        assert den.is_monic()


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


def test_parse_size_cap():
    """Degrees and Q exponents above SIZE_CAP, and integers past the digit
    limit of int(), end at once in TooLargeError."""
    f2, ft = prime_field(2), rational_function_field(2)
    assert Poly.parse(f"x^{SIZE_CAP}+1", f2).degree == SIZE_CAP
    assert QQ.scalar(f"1e-{SIZE_CAP}") == QQ.scalar(10) ** -SIZE_CAP
    for parse, text in [
            (lambda t: Poly.parse(t, f2), f"x^{SIZE_CAP + 1}"),
            (lambda t: Poly.parse(t, f2), "x^99999999999999"),
            (ft.scalar, "(t+1)/(t^99999999999999)"),
            (lambda t: Poly.parse(t, ft), "t^99999999999999*x"),
            (QQ.scalar, f"1e{SIZE_CAP + 1}"),
            (QQ.scalar, "2.5E-1_000_000_000"),
            (QQ.scalar, "0e99999999"),
            (QQ.scalar, "1e" + "9" * 5000),
            (QQ.scalar, "1" * 5000),
            (prime_field(3).scalar, "1" * 5000),
            (field_from_name, "gf:" + "1" * 5000),
            (lambda t: Poly.parse(t, f2), "x^" + "1" * 5000)]:
        with pytest.raises(TooLargeError):
            parse(text)
    # Not literals at all, whatever the size of the exponent.
    for text in ["1/2e99999999", "1e 99999999"]:
        with pytest.raises(ParseError):
            QQ.scalar(text)


def test_rational_past_print_digit_limit():
    """A Q value longer than Python's int-to-str digit limit (4300 by
    default) parses and computes, but printing it is a TooLargeError."""
    big = QQ.scalar("1e5000")
    assert big == QQ.scalar(10) ** 5000
    assert str(QQ.scalar("1e4000")) == "1" + "0" * 4000
    limit = sys.get_int_max_str_digits()
    with pytest.raises(TooLargeError, match=f"{limit}-digit limit"):
        str(big)


# Edge texts of the parenthesis and sign scanning, pinned to the values
# and error types recorded before the scanning loops were merged into one.
@pytest.mark.parametrize("entry,field,text,expected", [
    ("scalar", "gft:2", "(t+1)(t)", ParseError),
    ("scalar", "gft:2", "((t+1))/(t)", "(t+1)/(t)"),
    ("poly", "gft:2", "((t+1))/(t)", "(t+1)/(t)"),
    ("poly", "gf:5", "--x", "x"),
    ("scalar", "gft:2", "--x", ParseError),
    ("poly", "gf:5", "x+-1", "x+4"),
    ("poly", "q", "x+-1", "x-1"),
    ("poly", "gf:5", "x+", ParseError),
    ("scalar", "gft:2", "x+", ParseError),
    ("scalar", "gft:2", "(t)/(t)/(t)", ParseError),
    ("poly", "q", ")(", ParseError),
    ("scalar", "gft:2", ")(", ParseError),
    ("poly", "gf:5", "x(", ParseError),
    ("poly", "gf:5", "(x)", ParseError),
    ("poly", "gft:2", "((x))", ParseError),
    ("poly", "q", "-x^2+x-1", "-1*x^2+x-1"),
    ("poly", "gf:5", "-x^2+x-1", "4*x^2+x+4"),
    ("poly", "gft:2", "-(t)", "t"),
    ("scalar", "gft:2", "-t+1", "t+1"),
    ("poly", "gft:2", "-t+1", "(t+1)"),
    ("scalar", "gft:2", "(t+1)/(t^2+1)", "(1)/(t+1)"),
    ("poly", "gft:2", "x^2-(t)*x+(t+1)/(t)", "x^2+t*x+(t+1)/(t)"),
])
def test_parser_edge_texts(entry, field, text, expected):
    field = field_from_name(field)
    parse = field.scalar if entry == "scalar" else (
        lambda t: Poly.parse(t, field))
    if isinstance(expected, str):
        assert str(parse(text)) == expected
    else:
        with pytest.raises(expected):
            parse(text)


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


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_irreducibility_matches_exhaustive_search(q):
    field = prime_field(q)
    for degree in range(1, 4 if q == 7 else 5):
        for p in _all_monic(field, degree):
            assert is_irreducible(p) == _irreducible_by_search(p), str(p)


@pytest.mark.parametrize("q", [4294967291, 10 ** 9 + 7])
def test_irreducibility_wide_prime_quadratics(q):
    """x^2 - a factors iff a is a square, which Euler's criterion decides."""
    field = prime_field(q)
    seen = set()
    for a in range(2, 100):
        square = pow(a, (q - 1) // 2, q) == 1
        if square not in seen:
            seen.add(square)
            assert is_irreducible(Poly(field, [-a, 0, 1])) is not square, a
    assert seen == {True, False}


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


# Small exponents of every bit pattern up to 64, and one large seeded one.
_EXPONENTS = [0, 1, 2, 3, 5, 8, 13, 64,
              random.Random("power").randrange(300, 600)]


def _copies(x, mul, one):
    """{e: the product of e copies of x} for every e in _EXPONENTS."""
    out, acc = {}, one
    for e in range(max(_EXPONENTS) + 1):
        if e in _EXPONENTS:
            out[e] = acc
        acc = mul(acc, x)
    return out


@pytest.mark.parametrize("field,literal", [
    (prime_field(5), "3"), (prime_field(4294967291), "123456789"),
    (QQ, "-2/3"), (rational_function_field(2), "1/(t+1)"),
], ids=lambda x: getattr(x, "name", x))
def test_scalar_power_equals_repeated_product(field, literal):
    x = field.scalar(literal)
    for e, want in _copies(x, operator.mul, field.one).items():
        assert x ** e == want, e


def test_pow_mod_equals_repeated_product():
    f5 = prime_field(5)
    modulus = Poly.parse("x^4+2*x+3", f5)
    x = Poly.parse("3*x^3+x+4", f5)
    for e, want in _copies(x, lambda a, b: (a * b) % modulus,
                           Poly.one(f5)).items():
        assert x.pow_mod(e, modulus) == want, e


@pytest.mark.parametrize("field", [prime_field(3), QQ],
                         ids=lambda f: f.name)
def test_matrix_power_equals_repeated_product(field):
    a = Matrix(field, [[1, 2, 0], [0, 1, -1], [1, 0, "1/2" if field is QQ
                                                else 2]])
    for e, want in _copies(a, operator.mul,
                           Matrix.identity(field, 3)).items():
        assert a ** e == want, e


def test_power_product_count():
    """bit_length - 1 squarings and one product fewer than the set bits."""
    for e in _EXPONENTS + [7, 255, 256, 2 ** 70 + 1]:
        calls = []

        def mul(a, b):
            calls.append(None)
            return a * b % 1009

        assert _power(3, e, mul, 1) == pow(3, e, 1009)
        assert len(calls) == (max(0, e.bit_length() - 1)
                              + max(0, bin(e).count("1") - 1)), e


def test_matrix_power_takes_no_extra_square(monkeypatch):
    """a ** 8 is three squarings: no identity product, no final square."""
    calls = []
    product = Matrix.__mul__

    def counting(self, other):
        calls.append(None)
        return product(self, other)

    a = Matrix(prime_field(3), [[1, 1], [0, 1]])
    monkeypatch.setattr(Matrix, "__mul__", counting)
    assert a ** 8 == Matrix(prime_field(3), [[1, 8], [0, 1]])
    assert len(calls) == 3


_OPERATORS = [(operator.add, "_add"), (operator.sub, "_sub"),
              (operator.mul, "_mul"), (operator.truediv, "_div")]


@pytest.mark.parametrize("field,literal", [
    (prime_field(5), "2"), (prime_field(4294967291), "123456789"),
    (QQ, "2/7"), (rational_function_field(2), "(t+1)/t"),
], ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("op,kernel", _OPERATORS,
                         ids=lambda x: getattr(x, "__name__", x))
def test_scalar_operator_protocol(field, literal, op, kernel):
    """Each operator and its reflected form coerce an int, refuse other
    types with TypeError and a Scalar of another field with
    FieldMismatchError, on either side."""
    s, k = field.scalar(literal), 3
    kern, kv = getattr(field, kernel), field.scalar(k).value
    for got, want in ((op(s, k), kern(s.value, kv)),
                      (op(k, s), kern(kv, s.value))):
        assert isinstance(got, Scalar) and got.field is field
        assert got.value == want
    for bad in ("3", 1.5):
        with pytest.raises(TypeError):
            op(s, bad)
        with pytest.raises(TypeError):
            op(bad, s)
    other = prime_field(7).scalar(2)
    with pytest.raises(FieldMismatchError):
        op(s, other)
    with pytest.raises(FieldMismatchError):
        op(other, s)
