"""GF(p) elimination against a plain Gauss-Jordan reference written here.

rank, determinant, kernel_basis and inverse run on packed rows over GF(p);
every result is compared with a list-of-residues Gauss-Jordan that shares
no code with the package.  4294967291 is the largest prime below 2**32;
its slots are wider than any array item once a row has two entries.
"""

import random

import pytest

from centra import Matrix, SingularMatrixError, prime_field, sylvester_system
from centra.rows import PackedRows

PRIMES = (2, 3, 5, 4294967291)


def _reference(rows, p):
    """(RREF rows, pivot columns, determinant if square) by Gauss-Jordan."""
    a = [[v % p for v in r] for r in rows]
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
        det = det * a[r][c] % p
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    if len(pivots) < nrows:
        det = 0
    return a[:len(pivots)], pivots, det % p


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
            vec[c] = -row[f] % p
        out.append(vec)
    return out


def _values(m):
    return [[s.value for s in m.row(i)] for i in range(m.rows)]


def _check(rows, p):
    field = prime_field(p)
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


def _random_rows(rng, p, nrows, ncols, fill=1.0):
    return [[rng.randrange(p) if rng.random() < fill else 0
             for _ in range(ncols)] for _ in range(nrows)]


def _low_rank_rows(rng, p, nrows, ncols, rank):
    left = _random_rows(rng, p, nrows, rank)
    right = _random_rows(rng, p, rank, ncols)
    return [[sum(a * b for a, b in zip(lr, col)) % p for col in zip(*right)]
            for lr in left]


def _shapes(rng, p):
    yield [[0] * 4 for _ in range(3)]
    yield [[0]]
    yield [[rng.randrange(1, p)]]
    yield [[p - 1]]
    yield _random_rows(rng, p, 7, 3)
    yield _random_rows(rng, p, 3, 7)
    yield _random_rows(rng, p, 6, 6)
    yield _random_rows(rng, p, 9, 9, fill=0.3)
    yield _random_rows(rng, p, 12, 20, fill=0.15)
    yield _low_rank_rows(rng, p, 8, 8, 5)
    yield _low_rank_rows(rng, p, 10, 6, 3)
    yield [[p - 1] * 8 for _ in range(8)]
    yield _random_rows(rng, p, 30, 40)
    # A singular square matrix whose first column is zero.
    yield [[0] + r for r in _random_rows(rng, p, 5, 4)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(4))
def test_matches_reference(p, seed):
    rng = random.Random(f"elim:{p}:{seed}")
    for rows in _shapes(rng, p):
        _check(rows, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (3, 5))
def test_sylvester_systems_match_reference(p, n):
    field = prime_field(p)
    rng = random.Random(f"sylvester:{p}:{n}")
    lower = [[int(i == j) if j >= i else rng.randrange(p) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) if j <= i else rng.randrange(p) for j in range(n)]
             for i in range(n)]
    q = Matrix(field, lower) * Matrix(field, upper)
    # Dense, and similar to diag(1, 1, 2, 2, ...), so the kernel is large.
    diag = Matrix(field, [[(i // 2 + 1) * (i == j) for j in range(n)]
                          for i in range(n)])
    dense = q * diag * q.inverse()
    for m in (Matrix(field, _random_rows(rng, p, n, n)), dense):
        _check(_values(sylvester_system(m)), p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ncols", (1, 2, 40, 400))
def test_slot_width_holds_the_bound(p, ncols):
    store = PackedRows(p, [[p - 1] * ncols])
    bound = (p - 1) + ncols * (p - 1) ** 2
    assert bound < 1 << store.w
    # Array items while the bound fits in 8 bytes, to_bytes beyond.
    assert (store.code is None) == (bound >= 1 << 64)
    assert store.values(store.rows[0], 0, ncols) == [p - 1] * ncols
