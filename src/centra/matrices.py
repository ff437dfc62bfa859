"""Dense exact matrices over the supported fields.

A Matrix stores the field's payloads, not Scalars: residue ints for GF(p),
Fractions for Q and, for GF(p)(t), (num, den) pairs of residue-int tuples
(den monic, coprime to num), row-major in tuples and immutable after
construction.  Sums and scalar multiples run whole rows through Field's
row_add, row_sub and row_scale; the product, the package's one product
kernel, runs on the (column, payload) lists of nonzero entries that
_nonzeros caches.  All three skip zero entries and return canonical
payloads, so no entry is boxed on the way.  Outside this module only
centralizers.sample_element (its sum of c * E) and verify._stacked_rank
(its support columns) read those lists.  Scalars appear only at the
boundary: indexing, row(), flat(), column_values(),
determinant() and parsing or formatting.  Code in this package that
already holds payload rows uses the unchecked Matrix._from_payloads.

place_blocks is the one block assembler: the canonical forms, the
centralizer bases and block_permutation_matrix are all placements of
s x s blocks in a square block grid.  Row tuples may be shared within a
matrix and between matrices, and must never be mutated: place_blocks
gives every row that no block reaches one zero row, and
conjugate_by_block_permutation remaps each distinct row object once and
keeps the sharing.  So a basis repeats a few rows many times, and
matrix_to_text and matrix_to_json encode each distinct row once per
output: a caller printing several matrices passes them one row table
(seen), keyed by row value except over Q (see _once_per_row).

One forward routine (_forward) and one kernel routine (_kernel_vectors)
serve every field and every caller (rank, determinant, kernel_basis,
inverse; commutant also runs _forward to canonicalize its basis).  They
drive a row store that the field alone picks (Field.row_store; the
classes are in rows.py), and only the store differs by field:
- GF(p) packs each row into one int with a fixed-width slot per column,
  so a row update is one big-int multiply-add and entries are reduced
  mod p only when a pivot is read or normalized.  No slot exceeds
  (p-1) + ncols*(p-1)**2, and the slot width holds that bound, so no
  slot carries into the next.
- Q keeps each row as primitive ints over one denominator, so a row
  update is integer arithmetic plus one gcd, and no Fraction is built
  until a pivot or a kernel entry leaves the store.
- GF(p)(t) keeps lists of field payloads.
Vector work outside elimination (commutant's recurrences) runs through
the combine of a store of the same kind (_vector_store).
Pivoting takes the first row whose leading entry lies in the current
column, which is deterministic and needs no magnitude concerns in exact
arithmetic.
Kernel bases follow the free-variable identity convention: each basis
vector carries 1 in its own free coordinate and 0 in the other free
coordinates, so outputs are reproducible byte for byte.

Text format: first line ``rows cols field``, then one line per row of
whitespace-separated entries in the field's scalar syntax.  The JSON form
is ``{"rows": r, "cols": c, "field": "gf:3", "entries": [[...], ...]}``
with integer entries for GF(p) and scalar-syntax strings otherwise.
"""

from bisect import bisect_right
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .algebra import (
    PrimeField,
    RationalField,
    Scalar,
    _power,
    _refuse_long_int,
    field_from_name,
)
from .errors import (
    BadPermutationError,
    FieldMismatchError,
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
)


class Matrix:
    __slots__ = ("field", "rows", "cols", "_rows", "_nz")

    def __init__(self, field, rows):
        """Coerce every entry (Scalar, int, literal or payload) into field."""
        data = [[field.scalar(e).value for e in row] for row in rows]
        if any(len(r) != len(data[0]) for r in data):
            raise ShapeMismatchError("ragged rows")
        self._init(field, data)

    @classmethod
    def _from_payloads(cls, field, rows):
        """Unchecked constructor from equal-length rows of field payloads."""
        m = cls.__new__(cls)
        m._init(field, rows)
        return m

    def _init(self, field, rows):
        self._rows = tuple(map(tuple, rows))
        if not self._rows or not self._rows[0]:
            raise ShapeMismatchError("empty matrix")
        self.field = field
        self.rows = len(self._rows)
        self.cols = len(self._rows[0])
        self._nz = None

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls._from_payloads(field,
                                  [(field._zero_payload,) * cols] * rows)

    @classmethod
    def identity(cls, field, n):
        z, o = field._zero_payload, field._one_payload
        return cls._from_payloads(field, [[o if i == j else z
                                           for j in range(n)]
                                          for i in range(n)])

    @classmethod
    def column(cls, field, entries):
        return cls(field, [[e] for e in entries])

    def __getitem__(self, key):
        i, j = key
        return Scalar(self.field, self._rows[i][j])

    def row(self, i):
        field = self.field
        return tuple([Scalar(field, v) for v in self._rows[i]])

    def column_values(self, j):
        field = self.field
        return tuple([Scalar(field, r[j]) for r in self._rows])

    def flat(self):
        field = self.field
        return tuple([Scalar(field, v) for r in self._rows for v in r])

    def is_square(self):
        return self.rows == self.cols

    def _nonzeros(self):
        """Per row, the (column, payload) pairs of its nonzero entries.

        Listed once per distinct row object on first use and kept, as the
        matrix never changes.
        """
        if self._nz is None:
            zero = self.field._zero_payload
            self._nz = _once_per_row(
                lambda r: [(j, v) for j, v in enumerate(r) if v != zero],
                self._rows)
        return self._nz

    def is_zero(self):
        zero = self.field._zero_payload
        return all(v == zero for r in self._rows for v in r)

    def _same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(
                f"mixed fields {self.field.name} and {other.field.name}")

    def _entrywise(self, other, kernel, verb):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(f"{verb} {self.rows}x{self.cols} "
                                     f"with {other.rows}x{other.cols}")
        return Matrix._from_payloads(self.field,
                                     map(kernel, self._rows, other._rows))

    def __add__(self, other):
        return self._entrywise(other, self.field.row_add, "add")

    def __sub__(self, other):
        return self._entrywise(other, self.field.row_sub, "sub")

    def __neg__(self):
        neg = self.field._neg
        return Matrix._from_payloads(self.field,
                                     [[neg(v) for v in r] for r in self._rows])

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (Scalar, int)):
            c = field.scalar(other).value
            return Matrix._from_payloads(
                field, [field.row_scale(r, c) for r in self._rows])
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_field(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"mul {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        # Gustavson's row-by-row product (ACM TOMS 1978): left entry (k, a)
        # adds a*b at column j for each nonzero (j, b) of right row k.  A
        # row with no term is one shared zero row, and a column's first
        # term is written over the zero payload object, not added to it.
        zero, add, mul = field._zero_payload, field._add, field._mul
        brows = other._nonzeros()
        zero_row = (zero,) * other.cols
        rows = []
        for pairs in self._nonzeros():
            acc = zero_row
            for k, a in pairs:
                brow = brows[k]
                if brow:
                    if acc is zero_row:
                        acc = list(zero_row)
                    for j, b in brow:
                        s = acc[j]
                        acc[j] = mul(a, b) if s is zero else add(s, mul(a, b))
            rows.append(acc)
        return Matrix._from_payloads(field, rows)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self, e):
        if not self.is_square():
            raise NotSquareError("matrix power of a nonsquare matrix")
        if e < 0:
            raise ShapeMismatchError("negative matrix power")
        return _power(self, e, Matrix.__mul__,
                      Matrix.identity(self.field, self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field.name, self._rows))

    def transpose(self):
        return Matrix._from_payloads(self.field, zip(*self._rows))

    # -- elimination ----------------------------------------------------

    def rank(self):
        pivots, _, _ = _forward(self.field.row_store(self._rows), self.field)
        return len(pivots)

    def determinant(self):
        if not self.is_square():
            raise NotSquareError("determinant of a nonsquare matrix")
        field = self.field
        pivots, parity, prod = _forward(field.row_store(self._rows), field)
        if len(pivots) < self.rows:
            return field.zero
        return Scalar(field, prod if parity > 0 else field._neg(prod))

    def kernel_basis(self):
        """Basis of the right null space as n x 1 column matrices."""
        field = self.field
        store = field.row_store(self._rows)
        pivots, _, _ = _forward(store, field)
        return [Matrix._from_payloads(field, [(v,) for v in vec])
                for vec in _kernel_vectors(store, pivots)]

    def inverse(self):
        if not self.is_square():
            raise NotSquareError("inverse of a nonsquare matrix")
        field = self.field
        n = self.rows
        ident = Matrix.identity(field, n)._rows
        store = field.row_store([r + e for r, e in zip(self._rows, ident)])
        pivots, _, _ = _forward(store, field)
        # [A|I] always has row rank n; A is singular exactly when a pivot
        # falls in the augmented half.  Otherwise the kernel vector of free
        # column n+j is (-(column j of A^-1), e_j).
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        vecs = _kernel_vectors(store, pivots)
        return -Matrix._from_payloads(field, zip(*[v[:n] for v in vecs]))

    def __repr__(self):
        return f"<{self.rows}x{self.cols} over {self.field.name}>"

    def __str__(self):
        return matrix_to_text(self)


def _vector_store(field, terms):
    """A row store for vector work: combines of up to `terms` products."""
    return field.row_store([[field._zero_payload] * terms])


def _forward(store, field):
    """Forward elimination of the store's rows, pivot rows normalized.

    Returns (pivot columns, swap parity, product of pivot payloads).  The
    pivot of column c is the first row at or below the current one whose
    lead is c; rows with a later lead are not touched.
    """
    lead = store.lead
    nrows = len(lead)
    pivots = []
    parity = 1
    prod = field._one_payload
    for c in range(store.ncols):
        r = len(pivots)
        if r == nrows:
            break
        try:
            piv = lead.index(c, r)
        except ValueError:
            continue
        if piv != r:
            store.swap(r, piv)
            parity = -parity
        prod = field._mul(prod, store.normalize(r, c))
        for i in [i for i in range(r + 1, nrows) if lead[i] == c]:
            store.eliminate(i, r, c)
        pivots.append(c)
    return pivots, parity, prod


def _kernel_vectors(store, pivots):
    """One kernel vector per free column, after _forward on the store.

    Solves for all free columns at once: x[j] holds entry j of every
    vector, x[f] = e_k for the k-th free column f, and pivot row r, whose
    lead is c, gives x[c] = -(its entries right of c) . x, last pivot
    first.  The store keeps each x[j] in its own form until payloads.
    """
    ncols = store.ncols
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    m = len(free)
    if not m:
        return []
    x = [None] * ncols
    for k, f in enumerate(free):
        x[f] = store.unit(k, m)
    for r in reversed(range(len(pivots))):
        x[pivots[r]] = store.solve(r, pivots[r], x, m)
    return list(zip(*[store.payloads(v, m) for v in x]))


def poly_at_matrix(p, a):
    """Evaluate the polynomial at a square matrix by Horner's rule."""
    if not a.is_square():
        raise NotSquareError("polynomial of a nonsquare matrix")
    field = a.field
    n = a.rows
    result = Matrix.zeros(field, n, n)
    ident = Matrix.identity(field, n)
    for i in reversed(range(len(p.coeffs))):
        result = result * a + ident * p.coeff(i)
    return result


def place_blocks(field, s, nblocks, placed):
    """The (nblocks*s)^2 matrix of s x s blocks {(bi, bj): block}, else 0.

    Rows that no block reaches share one zero row, so the work follows
    the placed blocks, not nblocks^2.
    """
    zero = (field._zero_payload,) * (nblocks * s)
    rows = [zero] * (nblocks * s)
    for (bi, bj), block in placed.items():
        for i, brow in enumerate(block._rows, bi * s):
            if rows[i] is zero:
                rows[i] = list(zero)
            rows[i][bj * s:bj * s + s] = brow
    return Matrix._from_payloads(field, rows)


def block_below_diagonal(m, cuts):
    """The first nonzero block below the diagonal of a square block grid.

    cuts = (0, ..., n) are the block boundaries, shared by rows and
    columns: block bi spans rows and columns cuts[bi] .. cuts[bi+1]-1.
    Block row bi is nonzero below the diagonal when one of its rows has a
    nonzero entry left of cuts[bi].  Returns 0-based (bi, bj) for the
    first such block row and the lowest such bj in it, or None.  Only the
    first nonzero column of each row is read, from the cached nonzero
    lists; no block is built.
    """
    if cuts[-1] != m.rows or cuts[-1] != m.cols:
        raise ShapeMismatchError("cuts do not cover the matrix")
    nz = m._nonzeros()
    for bi in range(1, len(cuts) - 1):
        j = min([row[0][0] for row in nz[cuts[bi]:cuts[bi + 1]] if row],
                default=cuts[bi])
        if j < cuts[bi]:
            return bi, bisect_right(cuts, j) - 1
    return None


def _once_per_row(fn, rows, done=None, by_value=False):
    """[fn(row) for row in rows], calling fn once per distinct row.

    done holds the results so far; the matrices of one output share it.
    Rows are keyed by identity or, with by_value, by value, which also
    merges equal rows of different objects: worth it for GF(p) and
    GF(p)(t) rows, which hash in C, but a Fraction hashes in Python at
    about the cost of formatting it, so Q rows are keyed by identity,
    valid while every matrix of the output is alive.
    """
    if done is None:
        done = {}
    out = []
    for r, key in zip(rows, rows if by_value else map(id, rows)):
        value = done.get(key)
        if value is None:
            value = done[key] = fn(r)
        out.append(value)
    return out


def _check_block_perm(n, perm, s):
    if n % s != 0:
        raise ShapeMismatchError(f"size {n} not divisible by block size {s}")
    nblocks = n // s
    if sorted(perm) != list(range(nblocks)):
        raise BadPermutationError(
            f"not a bijection on {nblocks} block indices: {perm}")


def conjugate_by_block_permutation(a, perm, s):
    """P^-1 * a * P by index remapping over s-sized index groups.

    perm lists, for each new block position, the old block index that
    lands there; entry (i, j) of the result is a[perm(i), perm(j)] at
    block granularity.
    """
    if not a.is_square():
        raise NotSquareError("conjugation of a nonsquare matrix")
    _check_block_perm(a.rows, perm, s)
    if a.rows == 1:  # the identity; itemgetter(0) would return no tuple
        return a
    src = [perm[i // s] * s + i % s for i in range(a.rows)]
    pick = itemgetter(*src)
    return Matrix._from_payloads(a.field,
                                 _once_per_row(pick, pick(a._rows)))


def block_permutation_matrix(field, perm, s):
    """The matrix P whose conjugation equals the index remapping above."""
    _check_block_perm(len(perm) * s, perm, s)
    ident = Matrix.identity(field, s)
    return place_blocks(field, s, len(perm),
                        {(src, b): ident for b, src in enumerate(perm)})


def _encoded_rows(m, encode, seen):
    """encode of each row of m, once per distinct row of table seen."""
    return _once_per_row(encode, m._rows, seen,
                         not isinstance(m.field, RationalField))


def matrix_to_text(m, seen=None):
    """The text format; seen is a row table shared by one text output."""
    fmt = m.field._format
    lines = _encoded_rows(m, lambda r: " ".join(map(fmt, r)), seen)
    return "\n".join([f"{m.rows} {m.cols} {m.field.name}", *lines])


def matrix_from_text(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"bad matrix header {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        _refuse_long_int(exc, "matrix header size")
        raise ParseError(f"bad matrix header {lines[0]!r}") from None
    field = field_from_name(header[2])
    if len(lines) != rows + 1:
        raise ParseError(f"expected {rows} rows, got {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != cols:
            raise ParseError(f"expected {cols} entries in row {ln!r}")
        data.append([field._parse(tok) for tok in entries])
    return Matrix._from_payloads(field, data)


def matrix_to_json_obj(m):
    """The JSON object; rows that share a row object share one list."""
    if isinstance(m.field, PrimeField):
        entries = _once_per_row(list, m._rows)
    else:
        fmt = m.field._format
        entries = _once_per_row(lambda r: list(map(fmt, r)), m._rows)
    return {"rows": m.rows, "cols": m.cols, "field": m.field.name,
            "entries": entries}


def matrix_to_json(m, seen=None):
    """json.dumps(matrix_to_json_obj(m)); seen is shared by one JSON output.

    A list of ints has the same repr as JSON text, and other entries are
    strings quoted as json.dumps quotes them by default.
    """
    fmt, quote = m.field._format, encode_basestring_ascii
    if isinstance(m.field, PrimeField):
        def encode(r):
            return repr(list(r))
    else:
        def encode(r):
            return f"[{', '.join(map(quote, map(fmt, r)))}]"
    entries = ", ".join(_encoded_rows(m, encode, seen))
    return (f'{{"rows": {m.rows}, "cols": {m.cols}, "field": '
            f'{quote(m.field.name)}, "entries": [{entries}]}}')


def matrix_from_json_obj(obj):
    try:
        rows, cols = obj["rows"], obj["cols"]
        field = field_from_name(obj["field"])
        entries = obj["entries"]
    except (KeyError, TypeError):
        raise ParseError(f"bad matrix object {obj!r}") from None
    if type(rows) is not int or type(cols) is not int:
        raise ParseError("rows and cols must be integers")
    if not isinstance(entries, list) or not all(
            isinstance(r, list) for r in entries):
        raise ParseError("entries must be a list of lists")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("entry grid does not match rows/cols")
    if any(type(e) is bool for r in entries for e in r):
        raise ParseError("matrix entries must not be true or false")
    return Matrix(field, entries)
