"""Property-based tests: hypothesis draws the inputs, deterministically.

derandomize=True fixes the draws and database=None keeps no example
database, so a run is reproducible.  hypothesis also caches constants it
reads from local source files, at collection time; that cache goes to
the system temporary directory, so a run writes no .hypothesis/
directory.  The suite is skipped where hypothesis is not installed (it
is a dev dependency only).
"""

import functools
import itertools
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from centra import (  # noqa: E402
    E_KIND,
    FIRST_KIND,
    QQ,
    Matrix,
    Poly,
    centralizer_dimension,
    commutant_dimension,
    commutes,
    conjugate_by_block_permutation,
    is_irreducible,
    jordan_centralizer_basis,
    jordan_form,
    make_spec,
    prime_field,
    rational_function_field,
    sample_element,
    weyr_centralizer_basis,
    weyr_centralizer_basis_direct,
    weyr_determinant,
    weyr_form,
    weyr_permutation,
)
from test_elimination import _check  # noqa: E402
from test_oracle import _check_against_reference  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "centra-hypothesis")

_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6 + 3))


@st.composite
def _q_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_q_matrices())
def test_q_elimination_matches_reference(rows):
    """rank, determinant, kernel_basis and inverse over Q."""
    _check(rows, 0)


def _gcd_degree(a, b, p):
    """Degree of gcd(a, b) over GF(p), by Euclid on ascending int lists."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - f * y) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _ratfuncs(p):
    """GF(p)(t) elements n/d built from drawn residue coefficients."""
    field = rational_function_field(p)
    t = field.scalar("t")
    polys = st.lists(st.integers(0, p - 1), max_size=4).map(
        lambda cs: sum((c * t ** i for i, c in enumerate(cs)), field.zero))
    return st.tuples(polys, polys.filter(bool)).map(lambda nd: nd[0] / nd[1])


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.sampled_from([2, 3]).flatmap(
    lambda p: st.tuples(st.just(p), _ratfuncs(p), _ratfuncs(p), _ratfuncs(p))))
def test_rational_function_arithmetic(drawn):
    """Field laws, canonical payloads and text round trip in GF(p)(t)."""
    p, a, b, c = drawn
    field = a.field
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == field.one
    if b:
        assert (a / b) * b == a
    for x in (a, b, c, a * b - c, a + b * c):
        num, den = x.value
        assert type(num) is tuple and type(den) is tuple
        assert all(type(v) is int and 0 <= v < p for v in num + den)  # no Scalar
        assert den and den[-1] == 1 and (not num or num[-1])
        assert _gcd_degree(num, den, p) == 0
        assert field.scalar(str(x)) == x


@functools.cache
def _irreducibles(q, degree):
    field = prime_field(q)
    monic = (Poly(field, list(cs) + [1])
             for cs in itertools.product(range(q), repeat=degree))
    return [p for p in monic if is_irreducible(p)]


@st.composite
def _specs(draw):
    """GF(q) for q <= 7, irreducible p of degree <= 3, r <= 5, either kind."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    p = draw(st.sampled_from(_irreducibles(q, draw(st.integers(1, 3)))))
    rest, alpha = draw(st.integers(1, 5)), []
    while rest:
        alpha.append(draw(st.integers(1, min([rest] + alpha[-1:]))))
        rest -= alpha[-1]
    return make_spec(p, alpha, draw(st.sampled_from([E_KIND, FIRST_KIND])))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_specs())
def test_weyr_transport_and_direct_placement(spec):
    """W = P^-1 G P by index remapping, and both Weyr basis routes agree."""
    order, p_mat = weyr_permutation(spec)
    g, w = jordan_form(spec), weyr_form(spec)
    assert conjugate_by_block_permutation(g, order, spec.s) == w
    assert p_mat.inverse() * g * p_mat == w
    conjugated = tuple(conjugate_by_block_permutation(b, order, spec.s)
                       for b in jordan_centralizer_basis(spec).elements)
    assert conjugated == weyr_centralizer_basis_direct(spec).elements


def _unimodular(draw, field, n):
    """L U with unit diagonals and drawn entries in {-1, 0, 1}."""
    unit = st.integers(-1, 1)
    lower = [[1 if i == j else draw(unit) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else draw(unit) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return Matrix(field, lower) * Matrix(field, upper)


@st.composite
def _oracle_inputs(draw):
    """A square matrix of n <= 7 (n <= 3 over GF(2)(t)) of a drawn shape."""
    field, entries, max_n = draw(st.sampled_from(
        [(prime_field(p), st.one_of(st.sampled_from([0, 1, p - 1]),
                                    st.integers(0, p - 1)), 7)
         for p in (2, 3, 4294967291)]
        + [(QQ, _ENTRIES, 7), (rational_function_field(2), _ratfuncs(2), 3)]))
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(
        ["dense", "scalar", "nilpotent", "hessenberg", "block"]))
    entry = functools.partial(draw, entries)
    if shape == "dense":
        return Matrix(field, [[entry() for _ in range(n)] for _ in range(n)])
    if shape == "scalar":
        return Matrix.identity(field, n) * field.scalar(entry())
    if shape == "hessenberg":
        rows = [[entry() if j >= i - 1 else 0 for j in range(n)]
                for i in range(n)]
        return Matrix(field, rows)
    if shape == "nilpotent":
        core = [[entry() if j < i else 0 for j in range(n)] for i in range(n)]
    else:
        # Repeated diagonal values: not similar to any single form.
        values = [entry() for _ in range(draw(st.integers(1, 2)))]
        core = [[values[i % len(values)] if i == j else 0 for j in range(n)]
                for i in range(n)]
    q = _unimodular(draw, field, n)
    return q * Matrix(field, core) * q.inverse()


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_oracle_inputs())
def test_oracle_matches_dense_reference(a):
    """The Hessenberg-reduced oracle returns the dense oracle's basis."""
    _check_against_reference(a)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.data())
def test_formula_dimension_equals_oracle(data):
    """s * sum (2i-1) alpha_i = dim C(G) = dim C(P^-1 G P), P unimodular."""
    spec = data.draw(_specs())
    g = jordan_form(spec)
    p = _unimodular(data.draw, g.field, g.rows)
    formula = centralizer_dimension(spec.segre.alpha, spec.s)
    assert commutant_dimension(g) == formula
    assert commutant_dimension(p.inverse() * g * p) == formula


@st.composite
def _commuting_candidates(draw):
    """(a, x, x is a polynomial in a), n <= 5 (n <= 3 over GF(2)(t)).

    Entries are zero half the time, so rows vanish and product sums
    cancel; x is a drawn polynomial in a or a drawn matrix.
    """
    field, entries, max_n = draw(st.sampled_from(
        [(prime_field(p), st.integers(0, p - 1), 5) for p in (2, 3)]
        + [(QQ, _ENTRIES, 5), (rational_function_field(2), _ratfuncs(2), 3)]))
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), entries)

    def matrix():
        return Matrix(field, [[draw(entry) for _ in range(n)]
                              for _ in range(n)])

    a = matrix()
    if not draw(st.booleans()):
        return a, matrix(), False
    x, power = Matrix.zeros(field, n, n), Matrix.identity(field, n)
    for _ in range(draw(st.integers(1, 4))):
        x = x + power * field.scalar(draw(entry))
        power = power * a
    return a, x, True


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(_commuting_candidates())
def test_commutes_equals_dense_comparison(drawn):
    """commutes(a, x) is exactly a * x == x * a, the dense product."""
    a, x, polynomial = drawn
    assert commutes(a, x) == (a * x == x * a)
    if polynomial:
        assert commutes(a, x)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(_specs(), st.integers(0, 2 ** 32 - 1))
def test_level_block_determinant_equals_determinant(spec, seed):
    """weyr_determinant(k) = det k for seeded samples k of C(W)."""
    w, basis = weyr_form(spec), weyr_centralizer_basis(spec)
    for i in range(3):
        k = sample_element(basis, seed=seed + i)
        assert commutes(w, k)
        assert weyr_determinant(k, spec) == k.determinant()
