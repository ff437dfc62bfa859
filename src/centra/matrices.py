"""Dense exact matrices over the supported fields.

A Matrix stores the field's payloads, not Scalars: residue ints for GF(p),
Fractions for Q and (num, den) pairs for GF(p)(t), row-major in tuples and
immutable after construction.  Arithmetic runs whole rows through the
field's row kernels (Field.row_add, row_scale, row_axpy, row_matmul,
row_dot), so no entry is boxed on the way.  Scalars appear only at the
boundary: indexing, row(), flat(), column_values(), determinant() and
parsing or formatting.  Code in this package that already holds payload
rows uses the unchecked Matrix._from_payloads.

One elimination routine serves every field and every caller (rank,
determinant, kernel_basis, inverse): first-nonzero pivoting, which is
deterministic and needs no magnitude concerns in exact arithmetic.
Kernel bases follow the free-variable identity convention: each basis
vector carries 1 in its own free coordinate and 0 in the other free
coordinates, so outputs are reproducible byte for byte.

Text format: first line ``rows cols field``, then one line per row of
whitespace-separated entries in the field's scalar syntax.  The JSON form
is ``{"rows": r, "cols": c, "field": "gf:3", "entries": [[...], ...]}``
with integer entries for GF(p) and scalar-syntax strings otherwise.
"""

from .algebra import PrimeField, Scalar, field_from_name
from .errors import (
    BadPermutationError,
    FieldMismatchError,
    NotSquareError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
)


class Matrix:
    __slots__ = ("field", "rows", "cols", "_rows")

    def __init__(self, field, rows):
        """Coerce every entry (Scalar, int, literal or payload) into field."""
        data = [[e.value if isinstance(e, Scalar) and e.field is field
                 else field.scalar(e).value for e in row] for row in rows]
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
        brows = other._rows
        return Matrix._from_payloads(
            field, [field.row_matmul(r, brows) for r in self._rows])

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self, e):
        if not self.is_square():
            raise NotSquareError("matrix power of a nonsquare matrix")
        if e < 0:
            raise ShapeMismatchError("negative matrix power")
        result = Matrix.identity(self.field, self.rows)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
        pivots, _, _ = _forward(list(self._rows), self.field)
        return len(pivots)

    def determinant(self):
        if not self.is_square():
            raise NotSquareError("determinant of a nonsquare matrix")
        field = self.field
        pivots, parity, prod = _forward(list(self._rows), field)
        if len(pivots) < self.rows:
            return field.zero
        return Scalar(field, prod if parity > 0 else field._neg(prod))

    def kernel_basis(self):
        """Basis of the right null space as n x 1 column matrices."""
        field = self.field
        grid = list(self._rows)
        pivots, _, _ = _forward(grid, field)
        return [Matrix._from_payloads(field, [(v,) for v in vec])
                for vec in _kernel_vectors(grid, pivots, self.cols, field)]

    def inverse(self):
        if not self.is_square():
            raise NotSquareError("inverse of a nonsquare matrix")
        field = self.field
        n = self.rows
        ident = Matrix.identity(field, n)._rows
        grid = [r + e for r, e in zip(self._rows, ident)]
        pivots, _, _ = _forward(grid, field)
        # [A|I] always has row rank n; A is singular exactly when a pivot
        # falls in the augmented half.  Otherwise the kernel vector of free
        # column n+j is (-(column j of A^-1), e_j).
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        vecs = _kernel_vectors(grid, pivots, 2 * n, field)
        return -Matrix._from_payloads(field, zip(*[v[:n] for v in vecs]))

    def __repr__(self):
        return f"<{self.rows}x{self.cols} over {self.field.name}>"

    def __str__(self):
        return matrix_to_text(self)


def _forward(grid, field):
    """In-place forward elimination of payload rows, pivot rows normalized.

    Returns (pivot columns, swap parity, product of pivot payloads).
    """
    zero = field._zero_payload
    nrows = len(grid)
    ncols = len(grid[0])
    pivots = []
    parity = 1
    prod = field._one_payload
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if grid[i][c] != zero), None)
        if piv is None:
            continue
        if piv != r:
            grid[r], grid[piv] = grid[piv], grid[r]
            parity = -parity
        v = grid[r][c]
        prod = field._mul(prod, v)
        # Rows r and below are zero left of column c: work on the tails.
        lead = [zero] * c
        tail = field.row_scale(grid[r][c:], field._inv(v))
        grid[r] = lead + tail
        for i in range(r + 1, nrows):
            f = grid[i][c]
            if f != zero:
                grid[i] = lead + field.row_axpy(grid[i][c:], f, tail)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, parity, prod


def _kernel_vectors(grid, pivots, ncols, field):
    """Back-substitute one kernel vector per free column."""
    zero = field._zero_payload
    # Each pivot row reduced to its nonzero entries right of the pivot,
    # last pivot first.
    tails = []
    for c, row in zip(pivots, grid):
        cols = [j for j in range(c + 1, ncols) if row[j] != zero]
        tails.append((c, cols, [row[j] for j in cols]))
    tails.reverse()
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = field._one_payload
        for c, cols, coeffs in tails:
            vec[c] = field._neg(field.row_dot(coeffs, [vec[j] for j in cols]))
        out.append(vec)
    return out


def poly_at_matrix(p, a):
    """Evaluate the polynomial at a square matrix by Horner's rule."""
    if not a.is_square():
        raise NotSquareError("polynomial of a nonsquare matrix")
    field = a.field
    n = a.rows
    result = Matrix.zeros(field, n, n)
    ident = Matrix.identity(field, n)
    for c in reversed(p.coeffs):
        result = result * a + ident * c
    return result


class BlockLayout:
    """Cut positions naming a block grid: 0 = start, last = full size."""

    __slots__ = ("row_cuts", "col_cuts")

    def __init__(self, row_cuts, col_cuts):
        for cuts in (row_cuts, col_cuts):
            if len(cuts) < 2 or cuts[0] != 0:
                raise ShapeMismatchError(f"bad cuts {cuts}")
            if any(a >= b for a, b in zip(cuts, cuts[1:])):
                raise ShapeMismatchError(f"cuts not increasing: {cuts}")
        self.row_cuts = tuple(row_cuts)
        self.col_cuts = tuple(col_cuts)

    @classmethod
    def from_sizes(cls, row_sizes, col_sizes):
        rc = [0]
        for s in row_sizes:
            rc.append(rc[-1] + s)
        cc = [0]
        for s in col_sizes:
            cc.append(cc[-1] + s)
        return cls(rc, cc)

    @property
    def nrow_blocks(self):
        return len(self.row_cuts) - 1

    @property
    def ncol_blocks(self):
        return len(self.col_cuts) - 1


def assemble_blocks(grid, layout=None):
    """Concatenate a rectangular grid of matrices into one matrix."""
    if not grid or not grid[0]:
        raise ShapeMismatchError("empty block grid")
    field = grid[0][0].field
    row_sizes = [row[0].rows for row in grid]
    col_sizes = [b.cols for b in grid[0]]
    for bi, row in enumerate(grid):
        if len(row) != len(col_sizes):
            raise ShapeMismatchError("ragged block grid")
        for bj, block in enumerate(row):
            if block.rows != row_sizes[bi] or block.cols != col_sizes[bj]:
                raise ShapeMismatchError(
                    f"block ({bi},{bj}) is {block.rows}x{block.cols}, "
                    f"expected {row_sizes[bi]}x{col_sizes[bj]}")
            if block.field is not field and block.field != field:
                raise ShapeMismatchError("mixed fields in block grid")
    if layout is not None:
        expect = BlockLayout.from_sizes(row_sizes, col_sizes)
        if (layout.row_cuts, layout.col_cuts) != (expect.row_cuts,
                                                  expect.col_cuts):
            raise ShapeMismatchError("grid does not match the given layout")
    rows = []
    for brow in grid:
        for i in range(brow[0].rows):
            line = []
            for block in brow:
                line.extend(block._rows[i])
            rows.append(line)
    return Matrix._from_payloads(field, rows)


def place_blocks(field, s, nblocks, placed):
    """The (nblocks*s)^2 matrix of s x s blocks {(bi, bj): block}, else 0."""
    zero = Matrix.zeros(field, s, s)
    rows = []
    for bi in range(nblocks):
        block_row = [placed.get((bi, bj), zero)._rows
                     for bj in range(nblocks)]
        for i in range(s):
            line = []
            for blk in block_row:
                line.extend(blk[i])
            rows.append(line)
    return Matrix._from_payloads(field, rows)


def extract_blocks(m, layout):
    """Inverse of assemble_blocks for a given layout."""
    if layout.row_cuts[-1] != m.rows or layout.col_cuts[-1] != m.cols:
        raise ShapeMismatchError("layout does not cover the matrix")
    grid = []
    rc, cc = layout.row_cuts, layout.col_cuts
    for bi in range(layout.nrow_blocks):
        row = []
        for bj in range(layout.ncol_blocks):
            row.append(Matrix._from_payloads(
                m.field, [m._rows[i][cc[bj]:cc[bj + 1]]
                          for i in range(rc[bi], rc[bi + 1])]))
        grid.append(row)
    return grid


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
    src = [perm[i // s] * s + i % s for i in range(a.rows)]
    rows = a._rows
    return Matrix._from_payloads(a.field,
                                 [[rows[si][sj] for sj in src] for si in src])


def block_permutation_matrix(field, perm, s):
    """The matrix P whose conjugation equals the index remapping above."""
    n = len(perm) * s
    _check_block_perm(n, perm, s)
    rows = [[field._zero_payload] * n for _ in range(n)]
    for b, src in enumerate(perm):
        for k in range(s):
            rows[src * s + k][b * s + k] = field._one_payload
    return Matrix._from_payloads(field, rows)


def matrix_to_text(m):
    fmt = m.field._format
    lines = [f"{m.rows} {m.cols} {m.field.name}"]
    lines.extend(" ".join(map(fmt, r)) for r in m._rows)
    return "\n".join(lines)


def matrix_from_text(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError(f"bad matrix header {lines[0]!r}")
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
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
    if isinstance(m.field, PrimeField):
        entries = [list(r) for r in m._rows]
    else:
        fmt = m.field._format
        entries = [list(map(fmt, r)) for r in m._rows]
    return {"rows": m.rows, "cols": m.cols, "field": m.field.name,
            "entries": entries}


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
    return Matrix(field, entries)
