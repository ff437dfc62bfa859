"""Brute-force commuting-space computation, independent of any structure.

Solves AX = XA as linear algebra on the matrix alone, by the
Hessenberg-Schur reduction of Golub, Nash and Van Loan (*A Hessenberg-Schur
method for the problem AX + XB = C*, IEEE TAC 1979), and knows nothing
about canonical forms so it can serve as an oracle for them:
- reduce A to upper Hessenberg H = S^-1 A S by elementary similarity;
- HY = YH fixes column j+1 of Y from columns 0..j wherever the
  subdiagonal entry h[j+1][j] is nonzero, so only y_0 and the columns
  after a zero subdiagonal entry are unknown: k*n unknowns for k
  unreduced diagonal blocks, against n^2 for the dense system, and n
  equations closing each block (sylvester_system);
- expand each kernel vector of that system to Y and map it back by
  X = S Y S^-1;
- bring the basis to the free-variable convention of the dense n^2 x n^2
  system in column-stacked coordinates (entry (i, j) of X at i + j*n),
  which depends only on the kernel, so the output is the dense oracle's
  byte for byte.
Every vector step is one row-store combine, in the store the field picks.
The size cap, argument max_n (default DEFAULT_MAX_N), keeps large inputs
from being solved by accident; no other module knows or checks it.
commutes is a * x == x * a: this module has no product kernel of its own.
"""

from itertools import compress
from operator import itemgetter

from .errors import NotSquareError, ParseError, ShapeMismatchError, TooLargeError
from .matrices import Matrix, _forward, _vector_store

DEFAULT_MAX_N = 40


def _check_cap(a, max_n):
    if max_n < 0:
        raise ParseError(f"--max-n must be >= 0, got {max_n}")
    if a.rows > max_n:
        raise TooLargeError(
            f"matrix size {a.rows} exceeds the oracle cap {max_n}")


def _hessenberg(a):
    """(H, S, S^-1) as payload row lists with H = S^-1 A S upper Hessenberg.

    Column j takes the first nonzero entry below the diagonal as pivot,
    swaps it to row j+1 and clears the rows below with Gauss transforms,
    each applied as a similarity.  S and S^-1 are None while no step has
    been taken, that is, when A is upper Hessenberg already.
    """
    if not a.is_square():
        raise NotSquareError("commuting space of a nonsquare matrix")
    field = a.field
    zero, one = field._zero_payload, field._one_payload
    add, mul = field._add, field._mul
    sub, scale = field.row_sub, field.row_scale
    n = a.rows
    h = [list(r) for r in a._rows]
    s = sinv = None
    for j in range(n - 2):
        below = [i for i in range(j + 1, n) if h[i][j] != zero]
        if not below or below == [j + 1]:
            continue
        if s is None:
            s = [[one if i == k else zero for k in range(n)]
                 for i in range(n)]
            sinv = [list(r) for r in s]
        piv, q = below[0], j + 1
        if piv != q:
            for rows in (h, sinv):
                rows[piv], rows[q] = rows[q], rows[piv]
            for rows in (h, s):
                for r in rows:
                    r[piv], r[q] = r[q], r[piv]
        inv = field._inv(h[q][j])
        # below[1:] are the nonzero rows other than the pivot; a swapped
        # row q holds a zero at j and needs no transform.
        fs = [(i, mul(h[i][j], inv)) for i in below[1:]]
        for i, f in fs:
            h[i] = sub(h[i], scale(h[q], f))
            sinv[i] = sub(sinv[i], scale(sinv[q], f))
        for rows in (h, s):
            for r in rows:
                for i, f in fs:
                    if r[i] != zero:
                        r[q] = add(r[q], mul(f, r[i]))
    return h, s, sinv


def _unfold(field, h, store, m, fresh, close=True):
    """The columns y_0..y_{n-1} of Y that HY = YH determines.

    fresh holds n vectors per unreduced block, the entries of its first
    column.  Returns (columns, closing): closing has, for each block, the
    n vectors H y_j - sum_{k<=j} h[k][j] y_k at its last column j, which
    vanish exactly when Y commutes with H; with close=False they are not
    computed and closing is empty.  Every entry is one combine of at most
    2n vectors.
    """
    n = len(h)
    zero, one, neg, mul, add = (field._zero_payload, field._one_payload,
                                field._neg, field._mul, field._add)
    cols, closing = [], []
    start = 0
    y = fresh[:n]
    for j in range(n):
        cols.append(y)
        sub = h[j + 1][j] if j + 1 < n else zero
        if sub == zero:
            start += n
            nxt = fresh[start:start + n]
            if not close:
                y = nxt
                continue
        rows, left = h, [neg(h[k][j]) for k in range(j + 1)]
        if sub != zero and sub != one:
            # y_{j+1} = (H y_j - sum_{k<=j} h[k][j] y_k) / h[j+1][j]
            inv = field._inv(sub)
            rows = [field.row_scale(r, inv) for r in h]
            left = [mul(inv, c) for c in left]
        t = []
        for i in range(n):
            # y_j[i] is in both sums: fold its two coefficients into one.
            coeffs = list(rows[i])
            coeffs[i] = add(coeffs[i], left[j])
            t.append(store.combine(coeffs + left[:j],
                                   y + [c[i] for c in cols[:j]], m))
        if sub == zero:
            closing += t
            y = nxt
        else:
            y = t
    return cols, closing


def sylvester_system(a):
    """The k*n x k*n matrix of X -> AX - XA after Hessenberg reduction.

    Its unknowns are the entries of y_0 and of each column of Y after a
    zero subdiagonal entry of H, block by block, and its rows the n
    closing equations of each unreduced block of H (see _unfold); its
    kernel is the commuting space of H.
    """
    return _system(a.field, _hessenberg(a)[0])


def _system(field, h):
    """sylvester_system for the upper Hessenberg payload rows h."""
    n, zero = len(h), field._zero_payload
    m = n * (1 + sum(h[j + 1][j] == zero for j in range(n - 1)))
    store = _vector_store(field, 2 * n)
    units = [store.unit(u, m) for u in range(m)]
    _, closing = _unfold(field, h, store, m, units)
    return Matrix._from_payloads(field,
                                 [store.payloads(v, m) for v in closing])


def _expand(field, reduced, kernel):
    """Column-stacked X = S Y S^-1 for the Y of each kernel vector.

    The recurrence of _unfold and the products with S and S^-1 run on
    vectors packed across the kernel vectors, one entry of X each.
    """
    h, s, sinv = reduced
    n, dim = len(h), len(kernel)
    store = _vector_store(field, 2 * n)
    fresh = [store.vector(u) for u in zip(*kernel)]
    cols, _ = _unfold(field, h, store, dim, fresh, close=False)
    if s is not None:
        sinv_cols = list(zip(*sinv))
        for j, sc in enumerate(sinv_cols):
            z = [store.combine(sc, [c[i] for c in cols], dim)
                 for i in range(n)]
            sinv_cols[j] = [store.combine(s[i], z, dim) for i in range(n)]
        cols = sinv_cols
    return list(zip(*[store.payloads(v, dim) for c in cols for v in c]))


def _canonical(field, rows):
    """The free-variable basis of the row space of independent rows.

    Free column f exists iff some vector of the space has its last
    nonzero entry at f, and v_f is the vector that is e_f on the free
    columns: the rows of the reduced echelon form over the reversed
    columns.  _forward gives the echelon form; back substitution, last
    pivot first, reads a row's pivot entries from its payloads and clears
    the later pivot columns with one combine.
    """
    store = field.row_store([r[::-1] for r in rows])
    pivots, _, _ = _forward(store, field)
    ncols, zero, neg = store.ncols, field._zero_payload, field._neg
    on_pivot = [False] * ncols
    for c in pivots:
        on_pivot[c] = True
    done = []  # reduced rows of pivots[r + 1:], in that order
    for r in reversed(range(len(pivots))):
        e = store.row_vector(r)
        later = list(compress(store.payloads(e, ncols), on_pivot))[r + 1:]
        if later.count(zero) < len(later):
            coeffs, vecs = zip(*[(neg(c), v) for c, v in zip(later, done)
                                 if c != zero])
            e = store.combine((field._one_payload,) + coeffs, (e,) + vecs,
                              ncols)
        done.insert(0, e)
    return [store.payloads(v, ncols)[::-1] for v in reversed(done)]


def commutant_basis(a, max_n=DEFAULT_MAX_N):
    """Kernel of the commutator map, reshaped to n x n matrices.

    When A is upper triangular, S is the identity and the reduced system
    is the dense one, so its kernel basis is the answer as it stands.
    """
    _check_cap(a, max_n)
    reduced = _hessenberg(a)
    system = _system(a.field, reduced[0])
    kernel = [list(map(itemgetter(0), v._rows))
              for v in system.kernel_basis()]
    field, n = a.field, a.rows
    if reduced[1] is not None or system.cols < n * n:
        kernel = _canonical(field, _expand(field, reduced, kernel))
    return [Matrix._from_payloads(field, [v[i::n] for i in range(n)])
            for v in kernel]


def commutant_dimension(a, max_n=DEFAULT_MAX_N):
    """dim of the commuting space: k*n minus the rank of the system."""
    _check_cap(a, max_n)
    system = sylvester_system(a)
    return system.cols - system.rank()


def commutes(a, x):
    """Whether AX equals XA exactly; products run on nonzero entries."""
    if not a.is_square():
        raise NotSquareError("commutation against a nonsquare matrix")
    if a.rows != x.rows or a.cols != x.cols:
        raise ShapeMismatchError(
            f"shapes {a.rows}x{a.cols} and {x.rows}x{x.cols} differ")
    a._same_field(x)
    return a * x == x * a
