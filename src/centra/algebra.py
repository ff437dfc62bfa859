"""Exact scalar and polynomial arithmetic over GF(p), Q and GF(p)(t).

Every field element is a canonical payload:

  GF(p)     residue int in [0, p), p prime, p < 2**32
  Q         fractions.Fraction in lowest terms
  GF(p)(t)  pair (num, den) of GF(p)[t] polynomials as residue-int
            tuples, coprime, den monic and nonzero

Field objects carry the payload arithmetic, and all of it is pure and
canonical, so equality and hashing are structural.  A polynomial over a
field is an ascending tuple of its payloads with trailing zeros stripped;
the field's poly_* kernels run on such tuples, so a GF(p)[x] polynomial,
and each half of a GF(p)(t) payload, is a tuple of ints.  Poly wraps one
tuple with its field; the zero polynomial is the empty tuple and its
degree is the float('-inf') sentinel, which keeps gcd and degree
comparisons free of special cases.

A Scalar is an immutable wrapper around one payload that exposes the
arithmetic through the usual operators.  It is the boundary type: user
code, Poly.coeff(), parsing and formatting see Scalars; Poly coefficients
and GF(p)(t) payloads never hold one.

Text syntax.  Field selectors: ``gf:5``, ``q``, ``gft:2`` (= GF(2)(t)).
Polynomial terms: ``k``, ``x``, ``x^e`` with an optional ``*`` between
coefficient and variable, e.g. ``x^3+2*x+1``.  Scalar literals are
field-dependent: ``3``, ``2/7``, ``(t^2+1)/(t+1)``.
"""

import re
import sys
from fractions import Fraction
from functools import cache
from math import isqrt

from .errors import (
    BothZeroError,
    DegreeZeroError,
    DivisionByZeroError,
    FieldMismatchError,
    IrreducibilityUnsupportedError,
    NotMonicError,
    ParseError,
    TooLargeError,
)
from .rows import PackedRows, PayloadRows, RationalRows

NEG_INF = float("-inf")

# The size cap: the largest degree Poly.parse accepts (so the largest x^N
# or t^N term), the largest decimal exponent of a Q literal, and the
# largest n = s * sum(alpha) canonical.make_spec accepts.  It sits far
# above what any dense exact computation here finishes, and exists so an
# absurd size ends at once in TooLargeError instead of being built.
SIZE_CAP = 10 ** 5


def _refuse_long_int(exc, what, cap=None):
    """TooLargeError naming what, if exc is int()'s digit-limit ValueError.

    Called before reporting bad syntax: text with more digits than
    sys.get_int_max_str_digits() is refused without repeating it.
    """
    if "integer string conversion" in str(exc):
        limit = (f"the size cap {cap}" if cap else f"the "
                 f"{sys.get_int_max_str_digits()}-digit limit on integers")
        raise TooLargeError(f"{what} exceeds {limit}") from None


def _power(base, e, mul, one):
    """base**e for an int e >= 0 by square-and-multiply, low bit first.

    Starts from base, not one, and skips the square after the top bit:
    e.bit_length() - 1 squarings and popcount(e) - 1 other products.
    """
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if result is None else result


class Scalar:
    """An element of one of the supported exact fields; each binary
    operator runs through _apply, which coerces a Scalar or int operand by
    Field.scalar (_coerce) and returns NotImplemented for any other."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, (Scalar, int)):
            return self.field.scalar(other)
        return None

    def _apply(self, kernel, other, swap=False):
        """kernel on the two payloads, other's first if swap."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = (other, self) if swap else (self, other)
        return Scalar(self.field, kernel(a.value, b.value))

    def __add__(self, other):
        return self._apply(self.field._add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(self.field._sub, other)

    def __rsub__(self, other):
        return self._apply(self.field._sub, other, swap=True)

    def __mul__(self, other):
        return self._apply(self.field._mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(self.field._div, other)

    def __rtruediv__(self, other):
        return self._apply(self.field._div, other, swap=True)

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        field = self.field
        base = (self.inverse() if exponent < 0 else self).value
        return Scalar(field, _power(base, abs(exponent), field._mul,
                                    field._one_payload))

    def inverse(self):
        return Scalar(self.field, self.field._inv(self.value))

    def is_zero(self):
        return self.value == self.field._zero_payload

    def __bool__(self):
        return self.value != self.field._zero_payload

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.field.name, self.value))

    def __str__(self):
        return self.field._format(self.value)

    def __repr__(self):
        return f"{self.field.name}[{self}]"


class Field:
    """Common behaviour of the three supported fields.

    Subclasses define the payload representation and its arithmetic:
    _from_int, _add, _neg, _mul, _inv, _parse, _format and _random.  _sub
    (_add of _neg) and _div (_mul by _inv, which refuses 0) are derived
    here, and a subclass may override either for speed.  User code works
    with Scalars.  The three row kernels, row_add, row_sub and row_scale,
    run that arithmetic over whole payload rows for Matrix sums, scalar
    multiples and elimination updates, and the poly_* kernels over ascending
    payload tuples with no trailing zero for Poly and the GF(p)(t) payloads.
    Both skip zero terms, which are costly in Q and GF(p)(t), by comparing
    with _zero_payload: a GF(p)(t) payload is a tuple and always truthy.  No
    subclass overrides them, so each kernel has one definition; its results
    are canonical because each payload operation returns canonical payloads
    (GF(p) reduces every sum and product mod p).

    row_store() makes the working rows of one elimination for the single
    routine in matrices: payload lists (rows.PayloadRows) here, used by
    GF(p)(t) only; one packed int per row (rows.PackedRows) in PrimeField;
    primitive integer rows over one denominator (rows.RationalRows) in
    RationalField.
    """

    name = None
    characteristic = None

    def scalar(self, x):
        """Coerce x (Scalar, int, text literal, or payload) into this field."""
        if isinstance(x, Scalar):
            if x.field is not self and x.field != self:
                raise FieldMismatchError(
                    f"scalar of {x.field.name} given to {self.name}")
            return x
        if isinstance(x, int):
            return Scalar(self, self._from_int(x))
        if isinstance(x, str):
            return Scalar(self, self._parse(x))
        payload = self._from_payload(x)
        if payload is not None:
            return Scalar(self, payload)
        raise ParseError(f"cannot coerce {x!r} into {self.name}")

    def _from_payload(self, x):
        """Field-specific non-literal coercion hook; None if unsupported."""
        return None

    @property
    def zero(self):
        return Scalar(self, self._zero_payload)

    @property
    def one(self):
        return Scalar(self, self._one_payload)

    def random(self, rng):
        """Deterministic sample driven by the given random.Random."""
        return Scalar(self, self._random(rng))

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _div(self, a, b):
        return self._mul(a, self._inv(b))

    def row_add(self, ra, rb):
        add, zero = self._add, self._zero_payload
        return [a if b == zero else add(a, b) for a, b in zip(ra, rb)]

    def row_sub(self, ra, rb):
        sub, zero = self._sub, self._zero_payload
        return [a if b == zero else sub(a, b) for a, b in zip(ra, rb)]

    def row_scale(self, row, c):
        mul, zero = self._mul, self._zero_payload
        return [a if a == zero else mul(c, a) for a in row]

    def row_store(self, rows):
        """Working rows for one elimination over this field."""
        return PayloadRows(self, rows)

    def _strip(self, cs):
        """The list cs as a polynomial tuple: trailing zeros dropped."""
        zero = self._zero_payload
        while cs and cs[-1] == zero:
            cs.pop()
        return tuple(cs)

    def poly_add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        add = self._add
        return self._strip([add(x, y) for x, y in zip(a, b)] +
                           list(a[len(b):]))

    def poly_neg(self, a):
        return tuple(map(self._neg, a))

    def poly_sub(self, a, b):
        return self.poly_add(a, self.poly_neg(b))

    def poly_scale(self, a, c):
        """a times the nonzero payload c."""
        mul = self._mul
        return tuple([mul(c, x) for x in a])

    def poly_mul(self, a, b):
        if not a or not b:
            return ()
        add, mul, zero = self._add, self._mul, self._zero_payload
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != zero:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
        return tuple(out)

    def poly_divmod(self, a, b):
        """(quotient, remainder) by schoolbook long division."""
        if not b:
            raise DivisionByZeroError("polynomial division by zero")
        dn = len(b) - 1
        if len(a) <= dn:
            return (), a
        sub, mul, zero = self._sub, self._mul, self._zero_payload
        inv = self._inv(b[-1])
        rem = list(a)
        quot = [zero] * (len(a) - dn)
        for k in range(len(quot) - 1, -1, -1):
            f = mul(rem[k + dn], inv)
            if f != zero:
                quot[k] = f
                for i in range(dn):
                    rem[k + i] = sub(rem[k + i], mul(f, b[i]))
        return tuple(quot), self._strip(rem[:dn])

    def poly_gcd(self, a, b):
        """Monic gcd by the Euclidean algorithm."""
        if not a and not b:
            raise BothZeroError("gcd(0, 0) is undefined")
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        lead = a[-1]
        return a if lead == self._one_payload else self.poly_scale(
            a, self._inv(lead))

    def poly_powmod(self, a, e, m):
        """a**e reduced mod m, by _power; e = 0 gives the constant 1."""
        mul, divmod_ = self.poly_mul, self.poly_divmod
        return _power(divmod_(a, m)[1], e,
                      lambda x, y: divmod_(mul(x, y), m)[1],
                      (self._one_payload,))

    def __eq__(self, other):
        return isinstance(other, Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    top = isqrt(n)
    while d <= top:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField(Field):
    """GF(p) with residue-int payloads."""

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2 ** 32:
            raise ParseError(f"prime field size out of range: {p!r}")
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.name = f"gf:{p}"
        self.characteristic = p
        self._zero_payload = 0
        self._one_payload = 1 % p

    def _from_int(self, k):
        return k % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def _parse(self, text):
        try:
            return int(text, 10) % self.p
        except ValueError as exc:
            _refuse_long_int(exc, f"{self.name} literal")
            raise ParseError(f"bad {self.name} literal {text!r}") from None

    _format = staticmethod(str)

    def _random(self, rng):
        return rng.randrange(self.p)

    def row_store(self, rows):
        return PackedRows(self.p, rows)


class RationalField(Field):
    """Q with fractions.Fraction payloads."""

    def __init__(self):
        self.name = "q"
        self.characteristic = 0
        self._zero_payload = Fraction(0)
        self._one_payload = Fraction(1)

    def _from_int(self, k):
        return Fraction(k)

    def _from_payload(self, x):
        if isinstance(x, Fraction):
            return x
        return None

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of 0 in q")
        return 1 / a

    def _parse(self, text):
        # Fraction builds 10**exponent in full, so a literal with a huge
        # exponent is checked with its digits zeroed, then refused.
        head, e, exp = text.lower().rpartition("e")
        try:
            small = not e or abs(int(exp)) <= SIZE_CAP
            value = Fraction(text if small else
                             head + e + re.sub(r"\d", "0", exp))
        except (ValueError, ZeroDivisionError) as exc:
            _refuse_long_int(exc, "rational literal")
            raise ParseError(f"bad rational literal {text!r}") from None
        if not small:
            raise TooLargeError(
                f"exponent in {text!r} exceeds the size cap {SIZE_CAP}")
        return value

    def _format(self, a):
        try:
            return str(a)
        except ValueError:  # an int past Python's digit limit for str()
            raise TooLargeError(f"rational value exceeds the "
                                f"{sys.get_int_max_str_digits()}-digit limit"
                                f" on printing integers") from None

    def _random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def row_store(self, rows):
        return RationalRows(rows)


class RationalFunctionField(Field):
    """GF(p)(t): reduced fractions of polynomials in t over GF(p)."""

    def __init__(self, p):
        self.base = prime_field(p)
        self.name = f"gft:{p}"
        self.characteristic = p
        self._zero_payload = ((), (1,))
        self._one_payload = ((1,), (1,))

    # Payloads are pairs of residue-int tuples run through the base
    # field's poly_* kernels; den monic, num/den coprime.  A constant den
    # needs no gcd.

    def _reduce(self, num, den):
        if not den:
            raise DivisionByZeroError(f"zero denominator in {self.name}")
        if not num:
            return self._zero_payload
        base = self.base
        if len(den) > 1:
            g = base.poly_gcd(num, den)
            if len(g) > 1:
                num = base.poly_divmod(num, g)[0]
                den = base.poly_divmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            inv = base._inv(lead)
            num = base.poly_scale(num, inv)
            den = base.poly_scale(den, inv)
        return (num, den)

    def _from_int(self, k):
        c = k % self.base.p
        return ((c,) if c else (), (1,))

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        base = self.base
        if d1 == d2:
            return self._reduce(base.poly_add(n1, n2), d1)
        return self._reduce(base.poly_add(base.poly_mul(n1, d2),
                                          base.poly_mul(n2, d1)),
                            base.poly_mul(d1, d2))

    def _mul(self, a, b):
        mul = self.base.poly_mul
        return self._reduce(mul(a[0], b[0]), mul(a[1], b[1]))

    def _neg(self, a):
        return (self.base.poly_neg(a[0]), a[1])

    def _inv(self, a):
        if not a[0]:
            raise DivisionByZeroError(f"inverse of 0 in {self.name}")
        return self._reduce(a[1], a[0])

    def _parse(self, text):
        text = "".join(text.split())
        if not text:
            raise ParseError(f"empty {self.name} literal")
        cuts = _toplevel(text, "/")
        if len(cuts) > 1:
            raise ParseError(f"more than one '/' in {text!r}")
        halves = (text[:cuts[0]], text[cuts[0] + 1:]) if cuts else (text, "1")
        num, den = (Poly.parse(_strip_parens(h), self.base, var="t").coeffs
                    for h in halves)
        return self._reduce(num, den)

    def _format(self, a):
        num, den = a
        if not num:
            return "0"
        if len(den) == 1:
            return poly_text(self.base, num, "t")
        return (f"({poly_text(self.base, num, 't')})/"
                f"({poly_text(self.base, den, 't')})")

    def _random(self, rng):
        p = self.base.p
        num = [rng.randrange(p) for _ in range(rng.randint(0, 3))]
        den = (1,) if rng.random() < 0.5 else (rng.randrange(p), 1)
        return self._reduce(self.base._strip(num), den)


QQ = RationalField()
prime_field = cache(PrimeField)
rational_function_field = cache(RationalFunctionField)


def field_from_name(text):
    """Resolve a field selector: gf:5, q, gft:2."""
    if not isinstance(text, str):
        raise ParseError(f"unknown field selector {text!r}")
    sel = text.strip().lower()
    if sel == "q":
        return QQ
    for prefix, maker in (("gf:", prime_field), ("gft:", rational_function_field)):
        if sel.startswith(prefix):
            try:
                return maker(int(sel[len(prefix):], 10))
            except ParseError:
                raise
            except ValueError as exc:
                _refuse_long_int(exc, "field size")
                break
    raise ParseError(f"unknown field selector {text!r}")


def _toplevel(text, chars):
    """Indices of the characters in chars that sit outside parentheses.

    A ')' that closes a group counts as outside.  Raises ParseError when
    the parentheses do not balance.
    """
    found = []
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                break
        if depth == 0 and c in chars:
            found.append(i)
    if depth:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return found


def _strip_parens(text):
    """text without the parentheses that enclose all of it."""
    while text[:1] == "(" and _toplevel(text, ")")[0] == len(text) - 1:
        text = text[1:-1]
    return text


class Poly:
    """Univariate polynomial: a field and an ascending tuple of payloads.

    coeffs holds the field's payloads (residue ints over GF(p)) with no
    trailing zero, and every operation runs the field's poly_* kernels on
    it.  Scalars appear only in coeff() and in parsing and formatting.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        """Coerce every coefficient (Scalar, int, literal) into field."""
        self.field = field
        self.coeffs = field._strip([field.scalar(c).value for c in coeffs])

    @classmethod
    def _make(cls, field, coeffs):
        """Unchecked constructor from a kernel's payload tuple."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls, field):
        return cls._make(field, ())

    @classmethod
    def one(cls, field):
        return cls._make(field, (field._one_payload,))

    @classmethod
    def x(cls, field):
        return cls._make(field, (field._zero_payload, field._one_payload))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field._one_payload

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return Scalar(self.field, self.coeffs[i])
        return self.field.zero

    def _check(self, other):
        if isinstance(other, Scalar) or isinstance(other, int):
            return Poly(self.field, (other,))
        if not isinstance(other, Poly):
            return None
        if other.field != self.field:
            raise FieldMismatchError(
                f"mixed fields {self.field.name} and {other.field.name}")
        return other

    def _apply(self, kernel, other, swap=False):
        """kernel on the two coefficient tuples, other's first if swap."""
        other = self._check(other)
        if other is None:
            return NotImplemented
        a, b = (other, self) if swap else (self, other)
        return Poly._make(self.field, kernel(a.coeffs, b.coeffs))

    def __add__(self, other):
        return self._apply(self.field.poly_add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(self.field.poly_sub, other)

    def __rsub__(self, other):
        return self._apply(self.field.poly_sub, other, swap=True)

    def __neg__(self):
        return Poly._make(self.field, self.field.poly_neg(self.coeffs))

    def __mul__(self, other):
        return self._apply(self.field.poly_mul, other)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        q, r = self.field.poly_divmod(self.coeffs, other.coeffs)
        return Poly._make(self.field, q), Poly._make(self.field, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        field = self.field
        return Poly._make(field, field._strip(
            [field._mul(field._from_int(i), c)
             for i, c in enumerate(self.coeffs)][1:]))

    def pow_mod(self, e, modulus):
        """self**e reduced mod modulus, by binary exponentiation."""
        modulus = self._check(modulus)
        return Poly._make(self.field, self.field.poly_powmod(
            self.coeffs, e, modulus.coeffs))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __str__(self):
        return poly_text(self.field, self.coeffs, "x")

    def __repr__(self):
        return f"<{self} over {self.field.name}>"

    @classmethod
    def parse(cls, text, field, var="x"):
        """Parse polynomial text like x^3+2*x+1 in the given variable."""
        text = "".join(text.split())
        if not text:
            raise ParseError("empty polynomial text")
        coeffs = {}
        for sign, term in _split_terms(text):
            e, c = _parse_term(term, field, var)
            cur = coeffs.get(e, field.zero)
            coeffs[e] = cur + c if sign > 0 else cur - c
        if not coeffs:
            raise ParseError(f"no terms in {text!r}")
        top = max(coeffs)
        return cls(field, [coeffs.get(i, field.zero) for i in range(top + 1)])


def _split_terms(text):
    """Split at top-level +/- into (sign, term) pairs."""
    out = []
    sign = 1
    start = 0
    for i in _toplevel(text, "+-"):
        if i > start:
            out.append((sign, text[start:i]))
            sign = 1
        if text[i] == "-":
            sign = -sign
        start = i + 1
    if start == len(text):
        raise ParseError(f"dangling sign in {text!r}")
    out.append((sign, text[start:]))
    return out


def _parse_term(term, field, var):
    """One term -> (exponent, coefficient Scalar)."""
    cuts = _toplevel(term, var)
    if not cuts:
        return 0, field.scalar(term)
    prefix, suffix = term[:cuts[0]], term[cuts[0] + 1:]
    if prefix.endswith("*"):
        prefix = prefix[:-1]
    coeff = field.one if not prefix else field.scalar(prefix)
    if not suffix:
        return 1, coeff
    if not suffix.startswith("^"):
        raise ParseError(f"bad term {term!r}")
    try:
        e = int(suffix[1:], 10)
    except ValueError as exc:
        _refuse_long_int(exc, "degree", SIZE_CAP)
        raise ParseError(f"bad exponent in {term!r}") from None
    if e < 0:
        raise ParseError(f"negative exponent in {term!r}")
    if e > SIZE_CAP:
        raise TooLargeError(
            f"degree {e} in {term!r} exceeds the size cap {SIZE_CAP}")
    return e, coeff


def poly_text(field, coeffs, var):
    """Render a payload tuple in the term syntax, highest degree first."""
    if not coeffs:
        return "0"
    zero, one = field._zero_payload, field._one_payload
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == zero:
            continue
        cs = field._format(c)
        if any(i > 0 for i in _toplevel(cs, "+-")):
            cs = f"({cs})"
        if e == 0:
            parts.append(cs)
        else:
            v = var if e == 1 else f"{var}^{e}"
            parts.append(v if c == one else f"{cs}*{v}")
    text = "+".join(parts)
    return text.replace("+-", "-")


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    b = a._check(b)
    return Poly._make(a.field, a.field.poly_gcd(a.coeffs, b.coeffs))


def is_irreducible(p, assume_irreducible=False):
    """Exact test over GF(q); taken on assertion over Q and GF(p)(t).

    Degree 1 is irreducible over every field.  Over a prime field this
    runs the deterministic distinct-degree criterion on the residue-int
    coefficient tuple: p of degree n is irreducible iff x**(q**n) == x
    mod p and gcd(x**(q**(n/d)) - x, p) = 1 for every prime divisor d of n.

    Over Q and GF(p)(t) no factorization is attempted.  p' != 0 with p
    not separable proves reducibility and returns False; otherwise the
    caller must pass assume_irreducible=True to get True.
    """
    if not p.is_monic():
        raise NotMonicError(f"not monic: {p!r}")
    n = p.degree
    if n < 1:
        raise DegreeZeroError(f"degree must be at least 1: {p!r}")
    if n == 1:
        return True
    field = p.field
    if isinstance(field, PrimeField):
        f, x = p.coeffs, (0, 1)
        frob = [x]
        for _ in range(n):
            frob.append(field.poly_powmod(frob[-1], field.p, f))
        return frob[n] == x and all(
            len(field.poly_gcd(field.poly_sub(frob[n // d], x), f)) == 1
            for d in range(2, n + 1) if n % d == 0 and _is_prime(d))
    if not is_separable(p) and not p.derivative().is_zero():
        return False
    if assume_irreducible:
        return True
    raise IrreducibilityUnsupportedError(
        f"no exact irreducibility test over {field.name}; "
        "pass assume_irreducible=True to accept the hypothesis")


def is_separable(p):
    """True iff gcd(p, p') = 1; for irreducible p this means p' != 0."""
    d = p.derivative()
    if d.is_zero():
        return False
    return poly_gcd(p, d).degree == 0
