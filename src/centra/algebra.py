"""Exact scalar and polynomial arithmetic over GF(p), Q and GF(p)(t).

A Scalar is an immutable wrapper around a canonical payload:

  GF(p)     residue int in [0, p), p prime, p < 2**32
  Q         fractions.Fraction in lowest terms
  GF(p)(t)  pair (num, den) of Poly over GF(p) in the variable t,
            coprime, den monic and nonzero

Field objects carry the payload arithmetic; Scalars expose it through the
usual operators.  All operations are pure and return canonical reduced
values, so equality and hashing are structural.

Polynomials are ascending coefficient tuples with trailing zeros stripped;
the zero polynomial is the empty tuple and its degree is the float('-inf')
sentinel, which keeps gcd and degree comparisons free of special cases.

Text syntax.  Field selectors: ``gf:5``, ``q``, ``gft:2`` (= GF(2)(t)).
Polynomial terms: ``k``, ``x``, ``x^e`` with an optional ``*`` between
coefficient and variable, e.g. ``x^3+2*x+1``.  Scalar literals are
field-dependent: ``3``, ``2/7``, ``(t^2+1)/(t+1)``.
"""

from fractions import Fraction
from math import isqrt

from .errors import (
    BothZeroError,
    DegreeZeroError,
    DivisionByZeroError,
    FieldMismatchError,
    IrreducibilityUnsupportedError,
    NotMonicError,
    ParseError,
)

NEG_INF = float("-inf")


class Asserted:
    """Truthy marker for irreducibility accepted on caller assertion."""

    def __bool__(self):
        return True

    def __repr__(self):
        return "Asserted"


ASSERTED = Asserted()


class Scalar:
    """An element of one of the supported exact fields."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"mixed fields {self.field.name} and {other.field.name}")
            return other
        if isinstance(other, int):
            return Scalar(self.field, self.field._from_int(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._sub(self.value, other.value))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._sub(other.value, self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._div(self.value, other.value))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._div(other.value, self.value))

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        field = self.field
        base = (self.inverse() if exponent < 0 else self).value
        result = field._one_payload
        for bit in bin(abs(exponent))[2:]:
            result = field._mul(result, result)
            if bit == "1":
                result = field._mul(result, base)
        return Scalar(field, result)

    def inverse(self):
        return Scalar(self.field, self.field._inv(self.value))

    def is_zero(self):
        return self.value == self.field._zero_payload

    def is_one(self):
        return self.value == self.field._one_payload

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

    Subclasses define the payload representation and the _-prefixed
    payload arithmetic; user code works with Scalars.  The row_* kernels
    run that arithmetic over whole payload rows for Matrix.  They skip zero
    terms, which are costly in Q and GF(p)(t), by comparing with
    _zero_payload: a GF(p)(t) payload is a tuple and always truthy.
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
        if isinstance(x, bool):
            return Scalar(self, self._from_int(int(x)))
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

    def row_add(self, ra, rb):
        add, zero = self._add, self._zero_payload
        return [a if b == zero else add(a, b) for a, b in zip(ra, rb)]

    def row_sub(self, ra, rb):
        sub, zero = self._sub, self._zero_payload
        return [a if b == zero else sub(a, b) for a, b in zip(ra, rb)]

    def row_scale(self, row, c):
        mul, zero = self._mul, self._zero_payload
        return [a if a == zero else mul(c, a) for a in row]

    def row_axpy(self, row, f, prow):
        """row - f*prow."""
        sub, mul, zero = self._sub, self._mul, self._zero_payload
        return [a if b == zero else sub(a, mul(f, b))
                for a, b in zip(row, prow)]

    def row_matmul(self, arow, brows):
        """The row vector arow times the matrix whose rows are brows."""
        add, mul, zero = self._add, self._mul, self._zero_payload
        acc = [zero] * len(brows[0])
        for a, brow in zip(arow, brows):
            if a != zero:
                acc = [s if b == zero else add(s, mul(a, b))
                       for s, b in zip(acc, brow)]
        return acc

    def row_dot(self, ra, rb):
        add, mul, zero = self._add, self._mul, self._zero_payload
        acc = zero
        for a, b in zip(ra, rb):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        return acc

    def __eq__(self, other):
        return isinstance(other, Field) and other.name == self.name

    def __ne__(self, other):
        return not self.__eq__(other)

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

    def _div(self, a, b):
        return (a * self._inv(b)) % self.p

    def _parse(self, text):
        try:
            return int(text, 10) % self.p
        except ValueError:
            raise ParseError(f"bad {self.name} literal {text!r}") from None

    def _format(self, a):
        return str(a)

    def _random(self, rng):
        return rng.randrange(self.p)

    # Residue row kernels, inline; products accumulate before one reduction.

    def row_add(self, ra, rb):
        p = self.p
        return [(a + b) % p for a, b in zip(ra, rb)]

    def row_sub(self, ra, rb):
        p = self.p
        return [(a - b) % p for a, b in zip(ra, rb)]

    def row_scale(self, row, c):
        p = self.p
        return [c * a % p for a in row]

    def row_axpy(self, row, f, prow):
        p = self.p
        return [(a - f * b) % p for a, b in zip(row, prow)]

    def row_matmul(self, arow, brows):
        acc = [0] * len(brows[0])
        for a, brow in zip(arow, brows):
            if a:
                acc = [s + a * b for s, b in zip(acc, brow)]
        p = self.p
        return [s % p for s in acc]

    def row_dot(self, ra, rb):
        return sum([a * b for a, b in zip(ra, rb)]) % self.p

    def elements(self):
        """All field elements; exhaustive tests only."""
        return [Scalar(self, a) for a in range(self.p)]


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

    def _div(self, a, b):
        if b == 0:
            raise DivisionByZeroError("division by 0 in q")
        return a / b

    def _parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational literal {text!r}") from None

    def _format(self, a):
        return str(a)

    def _random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


class RationalFunctionField(Field):
    """GF(p)(t): reduced fractions of polynomials in t over GF(p)."""

    def __init__(self, p):
        self.base = prime_field(p)
        self.name = f"gft:{p}"
        self.characteristic = p
        zero = ()
        one = (self.base.one,)
        self._zero_payload = (zero, one)
        self._one_payload = (one, one)

    # Payloads are pairs of ascending GF(p) coefficient tuples wrapped in
    # Poly at the boundary of each operation; den monic, num/den coprime.

    def _num(self, a):
        return Poly(self.base, a[0])

    def _den(self, a):
        return Poly(self.base, a[1])

    def _reduce(self, num, den):
        if den.is_zero():
            raise DivisionByZeroError(f"zero denominator in {self.name}")
        if num.is_zero():
            return self._zero_payload
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.div_exact(g)
            den = den.div_exact(g)
        lead = den.coeffs[-1]
        if not lead.is_one():
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        return (num.coeffs, den.coeffs)

    def _from_int(self, k):
        c = self.base.scalar(k)
        num = (c,) if c else ()
        return (num, (self.base.one,))

    def _add(self, a, b):
        n1, d1 = self._num(a), self._den(a)
        n2, d2 = self._num(b), self._den(b)
        return self._reduce(n1 * d2 + n2 * d1, d1 * d2)

    def _sub(self, a, b):
        n1, d1 = self._num(a), self._den(a)
        n2, d2 = self._num(b), self._den(b)
        return self._reduce(n1 * d2 - n2 * d1, d1 * d2)

    def _mul(self, a, b):
        return self._reduce(self._num(a) * self._num(b),
                            self._den(a) * self._den(b))

    def _neg(self, a):
        return (tuple(-c for c in a[0]), a[1])

    def _inv(self, a):
        if not a[0]:
            raise DivisionByZeroError(f"inverse of 0 in {self.name}")
        return self._reduce(self._den(a), self._num(a))

    def _div(self, a, b):
        if not b[0]:
            raise DivisionByZeroError(f"division by 0 in {self.name}")
        return self._reduce(self._num(a) * self._den(b),
                            self._den(a) * self._num(b))

    def _parse(self, text):
        text = "".join(text.split())
        if not text:
            raise ParseError(f"empty {self.name} literal")
        cut = _toplevel_slash(text)
        if cut is None:
            num = Poly.parse(_strip_parens(text), self.base, var="t")
            return self._reduce(num, Poly.one(self.base))
        num = Poly.parse(_strip_parens(text[:cut]), self.base, var="t")
        den = Poly.parse(_strip_parens(text[cut + 1:]), self.base, var="t")
        return self._reduce(num, den)

    def _format(self, a):
        num, den = self._num(a), self._den(a)
        if num.is_zero():
            return "0"
        if den.degree == 0:
            return poly_text(num, "t")
        return f"({poly_text(num, 't')})/({poly_text(den, 't')})"

    def _random(self, rng):
        num = Poly(self.base,
                   [rng.randrange(self.base.p) for _ in range(rng.randint(0, 3))])
        if rng.random() < 0.5:
            den = Poly.one(self.base)
        else:
            den = Poly(self.base, [rng.randrange(self.base.p), 1])
        return self._reduce(num, den)


_PRIME_FIELDS = {}
_RATFUNC_FIELDS = {}
QQ = RationalField()


def prime_field(p):
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def rational_function_field(p):
    if p not in _RATFUNC_FIELDS:
        _RATFUNC_FIELDS[p] = RationalFunctionField(p)
    return _RATFUNC_FIELDS[p]


def field_from_name(text):
    """Resolve a field selector: gf:5, q, gft:2."""
    sel = text.strip().lower()
    if sel == "q":
        return QQ
    for prefix, maker in (("gf:", prime_field), ("gft:", rational_function_field)):
        if sel.startswith(prefix):
            try:
                return maker(int(sel[len(prefix):], 10))
            except ParseError:
                raise
            except ValueError:
                break
    raise ParseError(f"unknown field selector {text!r}")


def _toplevel_slash(text):
    """Index of the single '/' outside parentheses, or None."""
    depth = 0
    found = None
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        elif c == "/" and depth == 0:
            if found is not None:
                raise ParseError(f"more than one '/' in {text!r}")
            found = i
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return found


def _strip_parens(text):
    while len(text) >= 2 and text[0] == "(" and text[-1] == ")":
        depth = 0
        for i, c in enumerate(text):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0 and i < len(text) - 1:
                    return text
        text = text[1:-1]
    return text


class Poly:
    """Univariate polynomial with ascending Scalar coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [c if isinstance(c, Scalar) else field.scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (field.scalar(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
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

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(self.field.scalar(other))
        other = self._check(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def scale(self, c):
        return Poly(self.field, [c * a for a in self.coeffs])

    def __divmod__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZeroError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        if len(rem) < dn:
            return Poly.zero(self.field), self
        inv_lead = other.coeffs[-1].inverse()
        quot = [self.field.zero] * (len(rem) - dn + 1)
        for k in range(len(rem) - dn, -1, -1):
            f = rem[k + dn - 1] * inv_lead
            if not f:
                continue
            quot[k] = f
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - f * b
        return Poly(self.field, quot), Poly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def div_exact(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ParseError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            raise DivisionByZeroError("monic of the zero polynomial")
        lead = self.coeffs[-1]
        if lead.is_one():
            return self
        return self.scale(lead.inverse())

    def derivative(self):
        field = self.field
        return Poly(field, [field.scalar(i) * c
                            for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        x = self.field.scalar(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pow_mod(self, e, modulus):
        """self**e reduced mod modulus, by binary exponentiation."""
        result = Poly.one(self.field)
        base = self % modulus
        while e > 0:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __str__(self):
        return poly_text(self, "x")

    def __repr__(self):
        return f"<{poly_text(self, 'x')} over {self.field.name}>"

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
    buf = []
    depth = 0
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and c in "+-" and buf:
            out.append((sign, "".join(buf)))
            buf = []
            sign = 1 if c == "+" else -1
            continue
        if depth == 0 and c in "+-" and not buf:
            sign = sign if c == "+" else -sign
            continue
        buf.append(c)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if not buf:
        raise ParseError(f"dangling sign in {text!r}")
    out.append((sign, "".join(buf)))
    return out


def _parse_term(term, field, var):
    """One term -> (exponent, coefficient Scalar)."""
    depth = 0
    cut = None
    for i, c in enumerate(term):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == var and depth == 0:
            cut = i
            break
    if cut is None:
        return 0, field.scalar(term)
    prefix, suffix = term[:cut], term[cut + 1:]
    if prefix.endswith("*"):
        prefix = prefix[:-1]
    coeff = field.one if not prefix else field.scalar(prefix)
    if not suffix:
        return 1, coeff
    if not suffix.startswith("^"):
        raise ParseError(f"bad term {term!r}")
    try:
        e = int(suffix[1:], 10)
    except ValueError:
        raise ParseError(f"bad exponent in {term!r}") from None
    if e < 0:
        raise ParseError(f"negative exponent in {term!r}")
    return e, coeff


def poly_text(p, var):
    """Render a polynomial in the term syntax, highest degree first."""
    if p.is_zero():
        return "0"
    parts = []
    for e in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        cs = str(c)
        if _needs_parens(cs):
            cs = f"({cs})"
        if e == 0:
            parts.append(cs)
        else:
            v = var if e == 1 else f"{var}^{e}"
            parts.append(v if c.is_one() else f"{cs}*{v}")
    text = "+".join(parts)
    return text.replace("+-", "-")


def _needs_parens(text):
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c in "+-" and depth == 0 and i > 0:
            return True
    return False


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    if a.is_zero() and b.is_zero():
        raise BothZeroError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(p, assume_irreducible=False):
    """Exact test over GF(q); Asserted over Q and GF(p)(t).

    Over a prime field this runs the deterministic distinct-degree
    criterion: p of degree n is irreducible iff x**(q**n) == x mod p and
    gcd(x**(q**(n/d)) - x, p) = 1 for every prime divisor d of n.

    Over Q and GF(p)(t) no factorization is attempted.  A nontrivial
    gcd(p, p') proves reducibility and returns False; otherwise the caller
    must pass assume_irreducible=True and receives the ASSERTED marker.
    """
    if not p.is_monic():
        raise NotMonicError(f"not monic: {p!r}")
    n = p.degree
    if n < 1:
        raise DegreeZeroError(f"degree must be at least 1: {p!r}")
    field = p.field
    if isinstance(field, PrimeField):
        q = field.p
        x = Poly.x(field)
        frob = x
        powers = {0: x}
        for j in range(1, n + 1):
            frob = frob.pow_mod(q, p)
            powers[j] = frob
        if powers[n] != x % p:
            return False
        for d in _prime_divisors(n):
            if poly_gcd(powers[n // d] - x, p).degree != 0:
                return False
        return True
    if n == 1:
        return True
    d = p.derivative()
    if not d.is_zero():
        g = poly_gcd(p, d)
        if 0 < g.degree < n:
            return False
    if assume_irreducible:
        return ASSERTED
    raise IrreducibilityUnsupportedError(
        f"no exact irreducibility test over {field.name}; "
        "pass assume_irreducible=True to accept the hypothesis")


def is_separable(p):
    """True iff gcd(p, p') = 1; for irreducible p this means p' != 0."""
    d = p.derivative()
    if d.is_zero():
        return False
    return poly_gcd(p, d).degree == 0
