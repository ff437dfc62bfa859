"""Elimination against a plain Gauss-Jordan reference written here.

rank, determinant, kernel_basis and inverse run on packed rows over GF(p)
and on primitive integer rows over Q; every result is compared with a
Gauss-Jordan over residues or Fractions that shares no code with the
package.  p = 0 stands for Q.  4294967291 is the largest prime below
2**32; its slots are wider than any array item once a row has two
entries.  Q entries take denominators up to 10**6+3.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from centra import QQ, Matrix, SingularMatrixError, prime_field
from centra.matrices import _forward
from centra.rows import PackedRows, RationalRows
from test_oracle import _dense_sylvester

PRIMES = (2, 3, 5, 4294967291)
FIELDS = PRIMES + (pytest.param(0, id="q"),)
Q_DENOMINATORS = (1, 1, 2, 3, 7, 10 ** 6 + 3)


def _reduce(v, p):
    """v as an element of GF(p), or of Q for p = 0."""
    return v % p if p else Fraction(v)


def _inverse(v, p):
    return pow(v, p - 2, p) if p else 1 / v


def _reference(rows, p):
    """(RREF rows, pivot columns, determinant if square) by Gauss-Jordan."""
    a = [[_reduce(v, p) for v in r] for r in rows]
    nrows, ncols = len(a), len(a[0])
    pivots, det = [], 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = _reduce(det * a[r][c], p)
        inv = _inverse(a[r][c], p)
        a[r] = [_reduce(v * inv, p) for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [_reduce(x - f * y, p) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < nrows:
        det = 0
    return a[:len(pivots)], pivots, _reduce(det, p)


def _reference_kernel(rows, p):
    rref, pivots, _ = _reference(rows, p)
    ncols = len(rows[0])
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for c, row in zip(pivots, rref):
            vec[c] = _reduce(-row[f], p)
        out.append(vec)
    return out


def _values(m):
    return [[s.value for s in m.row(i)] for i in range(m.rows)]


def _check(rows, p):
    field = prime_field(p) if p else QQ
    m = Matrix(field, rows)
    _, pivots, det = _reference(rows, p)
    assert m.rank() == len(pivots)
    assert [[s.value for s in v.flat()] for v in m.kernel_basis()] == \
        _reference_kernel(rows, p)
    if m.rows != m.cols:
        return
    assert m.determinant().value == det
    if det == 0:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    n = m.rows
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    aug, _, _ = _reference([r + e for r, e in zip(rows, ident)], p)
    assert _values(m.inverse()) == [r[n:] for r in aug]


def _entry(rng, p):
    if p:
        return rng.randrange(p)
    return Fraction(rng.randint(-9, 9), rng.choice(Q_DENOMINATORS))


def _nonzero(rng, p):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.choice(Q_DENOMINATORS))


def _random_rows(rng, p, nrows, ncols, fill=1.0):
    return [[_entry(rng, p) if rng.random() < fill else 0
             for _ in range(ncols)] for _ in range(nrows)]


def _low_rank_rows(rng, p, nrows, ncols, rank):
    left = _random_rows(rng, p, nrows, rank)
    right = _random_rows(rng, p, rank, ncols)
    return [[_reduce(sum(a * b for a, b in zip(lr, col)), p)
             for col in zip(*right)] for lr in left]


def _shapes(rng, p):
    # -1 in GF(p); in Q a negative lead over the largest denominator.
    minus = p - 1 if p else Fraction(-1, Q_DENOMINATORS[-1])
    yield [[0] * 4 for _ in range(3)]
    yield [[0]]
    yield [[_nonzero(rng, p)]]
    yield [[minus]]
    yield _random_rows(rng, p, 7, 3)
    yield _random_rows(rng, p, 3, 7)
    yield _random_rows(rng, p, 6, 6)
    yield _random_rows(rng, p, 9, 9, fill=0.3)
    yield _random_rows(rng, p, 12, 20, fill=0.15)
    yield _low_rank_rows(rng, p, 8, 8, 5)
    yield _low_rank_rows(rng, p, 10, 6, 3)
    yield [[minus] * 8 for _ in range(8)]
    yield _random_rows(rng, p, 30, 40)
    # A singular square matrix whose first column is zero.
    yield [[0] + r for r in _random_rows(rng, p, 5, 4)]
    # Every lead negative, also after elimination.
    yield [[-abs(_nonzero(rng, p)) if j <= i else _entry(rng, p)
            for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("seed", range(4))
def test_matches_reference(p, seed):
    rng = random.Random(f"elim:{p}:{seed}")
    for rows in _shapes(rng, p):
        _check(rows, p)


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("n", (3, 5))
def test_sylvester_systems_match_reference(p, n):
    field = prime_field(p) if p else QQ
    rng = random.Random(f"sylvester:{p}:{n}")
    lower = [[int(i == j) if j >= i else _entry(rng, p) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) if j <= i else _entry(rng, p) for j in range(n)]
             for i in range(n)]
    q = Matrix(field, lower) * Matrix(field, upper)
    # Dense, and similar to diag(1, 1, 2, 2, ...), so the kernel is large.
    diag = Matrix(field, [[(i // 2 + 1) * (i == j) for j in range(n)]
                          for i in range(n)])
    dense = q * diag * q.inverse()
    for m in (Matrix(field, _random_rows(rng, p, n, n)), dense):
        _check(_values(_dense_sylvester(m)), p)


@pytest.mark.parametrize("seed", range(4))
def test_rational_rows_stay_primitive(seed):
    rng = random.Random(f"primitive:{seed}")
    for rows in _shapes(rng, 0):
        store = RationalRows([[Fraction(v) for v in r] for r in rows])
        pivots, _, _ = _forward(store, QQ)
        for ints, den, lead in zip(store.rows, store.den, store.lead):
            assert den > 0 and gcd(*ints, den) == 1
            assert not any(ints[:lead])
            assert lead == store.ncols or ints[lead]
        # Normalized pivot rows lead with 1.
        for r, c in enumerate(pivots):
            assert store.rows[r][c] == store.den[r]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ncols", (1, 2, 40, 400))
def test_slot_width_holds_the_bound(p, ncols):
    store = PackedRows(p, [[p - 1] * ncols])
    bound = (p - 1) + ncols * (p - 1) ** 2
    assert bound < 1 << store.w
    # Array items while the bound fits in 8 bytes, to_bytes beyond.
    assert (store.code is None) == (bound >= 1 << 64)
    assert store.values(store.rows[0], 0, ncols) == [p - 1] * ncols


@pytest.mark.parametrize("p", (2, 3, 5, 7, 31, 4294967291))
@pytest.mark.parametrize("ncols", (1, 3, 40, 400))
def test_packed_reduce_matches_slot_mod(p, ncols):
    """Byte-plane reduction (small p) and unpacking (large p) agree with %."""
    store = PackedRows(p, [[0] * ncols])
    rng = random.Random(f"reduce:{p}:{ncols}")
    for m in (1, 5, 64):
        vals = [rng.randrange(1 << store.w) for _ in range(m)]
        vals[0] = (1 << store.w) - 1
        reduced = store._reduce(store.pack(vals), m)
        assert store.values(reduced, 0, m) == [v % p for v in vals]


@pytest.mark.parametrize("p", FIELDS)
def test_store_combine_matches_reference(p):
    """combine over every store equals sum(c * v) entry by entry."""
    field = prime_field(p) if p else QQ
    rng = random.Random(f"combine:{p}")
    for nterms in (0, 1, 2, 9):
        m = rng.randint(1, 12)
        coeffs = [_entry(rng, p) for _ in range(nterms)]
        vecs = [[_entry(rng, p) if rng.random() < 0.6 else 0
                 for _ in range(m)] for _ in range(nterms)]
        want = [_reduce(sum(c * v[j] for c, v in zip(coeffs, vecs)), p)
                for j in range(m)]
        store = field.row_store([[field._zero_payload] * max(nterms, 1)])
        packed = [store.vector([field.scalar(x).value for x in v])
                  for v in vecs]
        got = store.combine([field.scalar(c).value for c in coeffs], packed,
                            m)
        assert store.payloads(got, m) == want
