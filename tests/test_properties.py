"""Property-based tests: hypothesis draws the inputs, deterministically.

derandomize=True fixes the draws and database=None keeps no example
database, so a run is reproducible.  hypothesis also caches constants it
reads from local source files, at collection time; that cache goes to
the system temporary directory, so a run writes no .hypothesis/
directory.  The suite is skipped where hypothesis is not installed (it
is a dev dependency only).
"""

import contextlib
import functools
import io
import itertools
import json
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
    SIZE_CAP,
    CentraError,
    Matrix,
    Poly,
    block_permutation_matrix,
    centralizer_dimension,
    commutant_dimension,
    commutes,
    conjugate_by_block_permutation,
    conjugate_partition,
    field_from_name,
    is_irreducible,
    jordan_centralizer_basis,
    jordan_form,
    make_spec,
    matrix_from_json_obj,
    matrix_from_text,
    matrix_to_json,
    matrix_to_json_obj,
    matrix_to_text,
    prime_field,
    rational_function_field,
    sample_element,
    segre_indexing,
    weyr_centralizer_basis,
    weyr_centralizer_basis_direct,
    weyr_determinant,
    weyr_form,
    weyr_layout,
    weyr_permutation,
)
from centra.cli import main  # noqa: E402
from centra.verify import _stacked_rank  # noqa: E402
from test_centralizers import (  # noqa: E402
    _reference_sample,
    _stacked_rank as _dense_stacked_rank,
)
from test_elimination import _check  # noqa: E402
from test_matrices import _scalar_product  # noqa: E402
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


# (field, payload strategy): small and large primes, Q with negative and
# fractional entries, and GF(2)(t) with rational entries.
_ENCODE_FIELDS = [
    (prime_field(2), st.integers(0, 1)),
    (prime_field(3), st.integers(0, 2)),
    (prime_field(4294967291), st.integers(0, 4294967290)),
    (QQ, st.fractions(min_value=-9, max_value=9, max_denominator=9)),
    (rational_function_field(2), _ratfuncs(2).map(lambda x: x.value)),
]


@st.composite
def _matrix_families(draw):
    """Matrices of one field and shape, drawing rows from a shared pool.

    The pool holds row objects and equal copies of them, so the matrices
    share rows both by identity and by value only.
    """
    field, payloads = draw(st.sampled_from(_ENCODE_FIELDS))
    nrows, ncols = (size or draw(st.integers(2, 4)) for size in draw(
        st.sampled_from([(1, 1), (1, None), (None, 1), (None, None)])))
    rows = draw(st.lists(st.lists(payloads, min_size=ncols, max_size=ncols)
                         .map(tuple), min_size=1, max_size=3))
    pool = rows + [tuple(list(r)) for r in rows]
    picks = st.lists(st.sampled_from(pool), min_size=nrows, max_size=nrows)
    return [Matrix._from_payloads(field, r)
            for r in draw(st.lists(picks, min_size=1, max_size=4))]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_matrix_families())
def test_row_table_encoders(mats):
    """matrix_to_json is json.dumps of the object; a shared table changes
    no output and holds each distinct row once."""
    for m in mats:
        assert matrix_to_json(m) == json.dumps(matrix_to_json_obj(m))
    rows = [r for m in mats for r in m._rows]
    distinct = len(set(map(id, rows)) if mats[0].field is QQ else set(rows))
    for encode in (matrix_to_text, matrix_to_json):
        seen = {}
        assert [encode(m, seen) for m in mats] == list(map(encode, mats))
        assert len(seen) == distinct


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
    return make_spec(p, _partition(draw, 5),
                     draw(st.sampled_from([E_KIND, FIRST_KIND])))


def _partition(draw, most):
    """A drawn partition of a drawn r <= most, parts in descending order."""
    rest, alpha = draw(st.integers(1, most)), []
    while rest:
        alpha.append(draw(st.integers(1, min([rest] + alpha[-1:]))))
        rest -= alpha[-1]
    return alpha


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=9),
       st.integers(1, 3))
def test_levels_are_prefix_sums_of_tau(parts, s):
    """levels is 0 then the running sums of tau; weyr_layout is s times it."""
    alpha = tuple(sorted(parts, reverse=True))
    running = [0]
    for t in conjugate_partition(alpha):
        running.append(running[-1] + t)
    assert segre_indexing(alpha).levels == tuple(running)
    spec = make_spec(_irreducibles(2, s)[0], alpha)
    assert weyr_layout(spec) == tuple(s * c for c in running)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_specs())
def test_weyr_transport_and_direct_placement(spec):
    """W = P^-1 G P by index remapping, and both Weyr basis routes agree."""
    order = weyr_permutation(spec)
    p_mat = block_permutation_matrix(spec.field, order, spec.s)
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
    """commutes(a, x) is exactly AX == XA, with both products summed
    entry by Scalar entry."""
    a, x, polynomial = drawn
    assert commutes(a, x) == (_scalar_product(a, x) == _scalar_product(x, a))
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


# (field, irreducible polys of degree 1 and 2, coefficients): GF(p) for
# small and large p, Q with fractional and GF(2)(t) with rational values.
_SAMPLE_FIELDS = [
    (prime_field(2), ["x+1", "x^2+x+1"], st.integers(0, 1)),
    (prime_field(5), ["x+2", "x^2+2"], st.integers(0, 4)),
    (prime_field(4294967291), ["x+3", "x^2+1"], st.integers(0, 4294967290)),
    (QQ, ["x+1", "x^2+1"],
     st.fractions(min_value=-9, max_value=9, max_denominator=9)),
    (rational_function_field(2), ["x+t", "x^2+x+t"], _ratfuncs(2)),
]


@st.composite
def _sample_inputs(draw):
    """A basis of either route and kind, and coefficients, zeros included."""
    field, polys, entries = draw(st.sampled_from(_SAMPLE_FIELDS))
    p = Poly.parse(draw(st.sampled_from(polys)), field)
    spec = make_spec(p, _partition(draw, 4),
                     draw(st.sampled_from([E_KIND, FIRST_KIND])),
                     assume_irreducible=True)
    build = draw(st.sampled_from([jordan_centralizer_basis,
                                  weyr_centralizer_basis]))
    basis = build(spec)
    dim = basis.dim
    coeffs = draw(st.one_of(
        st.just([0] * dim),
        st.lists(st.one_of(st.just(0), entries), min_size=dim,
                 max_size=dim)))
    return basis, coeffs


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_sample_inputs())
def test_sample_element_equals_dense_sum(drawn):
    """sample_element(basis, coeffs) is sum c * E by Matrix * and +."""
    basis, coeffs = drawn
    assert sample_element(basis, coeffs) == _reference_sample(basis, coeffs)


@st.composite
def _sparse_stacks(draw):
    """1-6 square matrices with at most n nonzero entries each, drawn from
    a pool that holds the zero matrix, so stacks repeat matrices."""
    field, payloads = draw(st.sampled_from(_ENCODE_FIELDS))
    n = draw(st.integers(1, 4))
    zero = field._zero_payload

    def sparse():
        rows = [[zero] * n for _ in range(n)]
        for k, v in draw(st.lists(st.tuples(st.integers(0, n * n - 1),
                                            payloads), max_size=n)):
            rows[k // n][k % n] = v
        return Matrix._from_payloads(field, rows)

    pool = [Matrix.zeros(field, n, n)]
    pool += [sparse() for _ in range(draw(st.integers(1, 3)))]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_sparse_stacks())
def test_support_column_rank_equals_dense_rank(mats):
    """verify's rank on support columns equals the rank of the stacked
    full n^2-entry vectorizations."""
    assert _stacked_rank(mats[0].field, mats) == \
        _dense_stacked_rank(mats[0].field, mats)


# -- fuzzing: bad text ends in a CentraError, and the CLI in exit 0, 1 or 2

# Glue holds no decimal digit, so every digit run is one drawn number:
# either at most two digits, or above SIZE_CAP (up to 30 digits), so
# exponents, degrees and partition parts are small or refused at once by
# the size cap, and each call takes milliseconds.  No mid-size value is
# drawn: one would be accepted and could make a call run long.
_GLUE = st.one_of(
    st.sampled_from(["x", "t", "^", "x^", "t^", "+", "-", "*", "/", "(", ")",
                     " ", ",", ":", ".", "e", "\n", "gf", "gft", "q", "{",
                     "}", "[", "]", '"', "_"]),
    st.characters(blacklist_categories=("Nd", "Cs")))
_BIG = st.integers(SIZE_CAP + 1, 10 ** 30).map(str)
_NUMBER = st.one_of(st.just(""), st.integers(0, 12).map(str), _BIG)
_TEXT = st.tuples(_NUMBER, st.lists(st.tuples(_GLUE, _NUMBER), max_size=8)
                  ).map(lambda d: d[0] + "".join(g + n for g, n in d[1]))
# Sums of well-formed terms (k*x^e, k*t^e, k e e, k/e), so that a drawn
# number also reaches the exponent, degree and literal parsers, not only
# the first syntax error.
_TERMS = st.lists(st.builds(
    str.__add__, _NUMBER, st.builds(str.__add__, st.sampled_from(
        ["x^", "t^", "*x^", "*t^", "e", "e-", "/"]), _NUMBER)),
    min_size=1, max_size=3).map("+".join)
_FIELD_NAMES = st.one_of(
    _TEXT,
    st.sampled_from(["gf:2", "gf:5", "q", "gft:2", "gf:4", "GFT:3", " q "]),
    st.builds(str.__add__, st.sampled_from(["gf:", "gft:", "gf: "]),
              st.integers(-3, 2 ** 33).map(str)))
_MATRIX_TEXTS = st.one_of(_TEXT, st.builds(
    lambda r, c, f, lines: "\n".join([f"{r} {c} {f}", *lines]),
    _NUMBER, _NUMBER, _FIELD_NAMES, st.lists(_TEXT, max_size=4)))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)
_MATRIX_KEYS = {
    "rows": st.integers(-1, 3) | _JSON,
    "cols": st.integers(-1, 3) | _JSON,
    "field": _FIELD_NAMES | _JSON,
    "entries": st.lists(st.lists(st.integers(-9, 9) | _TEXT | _JSON,
                                 max_size=3), max_size=3) | _JSON}
_MATRIX_OBJS = st.one_of(_JSON, st.fixed_dictionaries(_MATRIX_KEYS),
                         st.fixed_dictionaries({}, optional=_MATRIX_KEYS))
_PARSE_FIELDS = [prime_field(2), prime_field(5), QQ, rational_function_field(2)]


def _only_centra_errors(fn, *args):
    try:
        fn(*args)
    except CentraError:
        pass


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_TEXT | _TERMS, _FIELD_NAMES, _MATRIX_TEXTS)
def test_text_parsers_raise_only_centra_errors(text, name, matrix_text):
    """Poly.parse, scalar literals, field names and matrix text."""
    for field in _PARSE_FIELDS:
        _only_centra_errors(Poly.parse, text, field)
        _only_centra_errors(field.scalar, text)
    _only_centra_errors(field_from_name, name)
    _only_centra_errors(matrix_from_text, matrix_text)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_MATRIX_OBJS)
def test_matrix_objects_raise_only_centra_errors(obj):
    """matrix_from_json_obj on JSON values and near-matrix objects."""
    _only_centra_errors(matrix_from_json_obj, obj)


_INPUTS = {
    "@weyr": "4 4 gf:2\n1 1 0 1\n0 1 1 0\n0 0 1 1\n0 0 0 1",
    "@json": '{"rows": 2, "cols": 2, "field": "q", '
             '"entries": [["1/2", "0"], ["3", "-1"]]}',
    "@wide": "1 2 gf:3\n1 2",
    "@bad": "2 2 gf:3\n1 x\n0 1",
}
_SPEC_FLAGS = st.sampled_from([
    ("gf:2", "x^2+x+1"), ("gf:2", "x"), ("gf:2", "x^3+x+1"),
    ("gf:3", "x^2+1"), ("gf:3", "x+2"), ("q", "x^2-2"), ("q", "x-1/2"),
    ("gft:2", "x^2+t"), ("gft:2", "x+t"), ("gf:2", "x^2+1"), ("gf:4", "x"),
    ("q", "x^2-1"), ("gf:3", "2*x"), ("gf:3", ""), ("gf:2", "x^^2")])
_PARTITION = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda a: sum(a) <= 6).map(
    lambda a: ",".join(map(str, sorted(a, reverse=True))))
_PARTS = st.lists(st.integers(-1, 4), max_size=3).filter(
    lambda a: sum(a) <= 6).map(lambda a: ",".join(map(str, a)))
_ALPHA = st.sampled_from([_PARTITION] * 3 + [_PARTS, _TEXT, _BIG]).flatmap(
    lambda strategy: strategy)
_CLI_VALUES = {
    "--kind": st.sampled_from(["e", "first", "third"]),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--seed": st.sampled_from(["0", "7", "-1", "x"]),
    "--max-n": st.sampled_from(["0", "3", "40", "-1", "x"]),
    "--form": st.sampled_from(["jordan", "weyr", "other"]),
    "--samples": st.sampled_from(["0", "2", "-1", "x"]),
    "--input": st.sampled_from([*_INPUTS, "@missing", "@dir"]),
    "--alpha": _ALPHA,
}
_SPEC_ONLY = ["--kind", "--assume-irreducible", "--alpha"]
_COMMAND_FLAGS = {
    "jordan": _SPEC_ONLY, "weyr": _SPEC_ONLY, "permutation": _SPEC_ONLY,
    "centralizer": [*_SPEC_ONLY, "--form"], "dim": [*_SPEC_ONLY, "--oracle"],
    "det": [*_SPEC_ONLY, "--input"], "verify": [*_SPEC_ONLY, "--samples"],
    "oracle": ["--input"]}
_JUNK = st.one_of(_TEXT, st.sampled_from(
    ["--oracle", "--form", "--samples", "--input", "--no-such-flag", "--",
     "-", "-h", "a\nb", "\r", "\x1e", "\u2028"]))


@st.composite
def _argvs(draw):
    """Mostly well-formed invocations: a command, its spec, drawn flags.

    Parts stay <= 4 and r <= 6, or one part exceeds SIZE_CAP and the
    size cap refuses it, so no call runs long.  One time in five a
    junk token (text, a line break, a flag of another command, -h) goes
    in at a drawn place.
    """
    command = draw(st.sampled_from([*_COMMAND_FLAGS]))
    argv = [command]
    if command != "oracle":
        field, poly = draw(_SPEC_FLAGS)
        argv += ["--field", field, "--poly", poly, "--alpha", draw(_ALPHA)]
        if field in ("q", "gft:2") and draw(st.booleans()):
            argv.append("--assume-irreducible")
    if command in ("det", "oracle"):
        argv += ["--input", draw(_CLI_VALUES["--input"])]
    flags = ["--format", "--seed", "--max-n", *_COMMAND_FLAGS[command]]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(flags))
        argv.append(flag)
        if flag in _CLI_VALUES:
            argv.append(draw(_CLI_VALUES[flag]))
    if draw(st.sampled_from([False] * 4 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {"@missing": str(root / "missing"), "@dir": str(root)}
    for key, text in _INPUTS.items():
        path = root / key[1:]
        path.write_text(text)
        paths[key] = str(path)
    return paths


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(argv=_argvs())
def test_cli_exit_status_contract(input_paths, argv):
    """Exit 0, 1 (verify or det only) or 2 with one error: line."""
    argv = [input_paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # -h prints the usage and exits 0
            rc = exc.code
    assert rc in (0, 1, 2)
    if rc == 1:
        assert {"verify", "det"} & set(argv)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        assert err.getvalue() == ""
