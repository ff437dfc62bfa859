"""Working rows of one elimination, one store class per kind of field.

matrices._forward and matrices._kernel_vectors run every elimination
through a store that Field.row_store makes: PackedRows, one int per row,
for GF(p); RationalRows, primitive integer rows over one denominator, for
Q; PayloadRows, lists of field payloads, for GF(p)(t).
"""

import sys
from array import array
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class PayloadRows:
    """Elimination rows as lists of field payloads; the store interface.

    rows[i] is row i and lead[i] the column of its first nonzero entry
    (ncols for a zero row); every entry left of the lead is zero.  The
    kernel solve works on vectors of m entries, in whatever form the store
    chooses: unit makes one, solve combines them and payloads reads one
    out as field payloads.
    """

    def __init__(self, field, rows):
        self.field = field
        self.ncols = len(rows[0])
        self.rows = [list(r) for r in rows]
        self.lead = [self._first(r, 0) for r in self.rows]

    def _first(self, row, start):
        zero = self.field._zero_payload
        return next((j for j in range(start, self.ncols) if row[j] != zero),
                    self.ncols)

    def swap(self, i, j):
        for seq in (self.rows, self.lead):
            seq[i], seq[j] = seq[j], seq[i]

    def normalize(self, r, c):
        """Scale row r, whose lead is c, to lead 1; return the old lead."""
        field = self.field
        row = self.rows[r]
        v = row[c]
        if v != field._one_payload:
            row[c:] = field.row_scale(row[c:], field._inv(v))
        return v

    def eliminate(self, i, r, c):
        """Clear column c, the lead of row i, with the normalized row r."""
        field = self.field
        row = self.rows[i]
        f = row[c]
        row[c] = field._zero_payload
        row[c + 1:] = field.row_axpy(row[c + 1:], f, self.rows[r][c + 1:])
        self.lead[i] = self._first(row, c + 1)

    def unit(self, k, m):
        """The k-th of m unit vectors."""
        row = [self.field._zero_payload] * m
        row[k] = self.field._one_payload
        return row

    def solve(self, r, c, x, m):
        """-(entries of pivot row r right of its lead c) . x, m entries."""
        field = self.field
        zero = field._zero_payload
        terms = [(v, x[j]) for j, v in enumerate(self.rows[r][c + 1:], c + 1)
                 if v != zero]
        if not terms:
            return [zero] * m
        coeffs, vecs = zip(*terms)
        neg = field._neg
        return [neg(v) for v in field.row_matmul(coeffs, vecs)]

    def payloads(self, vec, m):
        return vec


class RationalRows:
    """Q working rows, each a list of ints over one positive denominator.

    Same interface as PayloadRows.  Row i has the value rows[i] / den[i]
    and is kept primitive, gcd(*rows[i], den[i]) == 1, by dividing out the
    content after every update; a row read in over the lcm of its
    denominators is primitive already.  A normalized pivot row has
    rows[r][c] == den[r].  Clearing column c of row i with it is
    rows[i]*den[r] - rows[i][c]*rows[r] over den[i]*den[r], integer
    arithmetic only.  Unlike Bareiss's exact division, content removal
    does not need every row updated at every step, so rows with a later
    lead are left alone.  Kernel vectors are (ints, den) pairs too; they
    become Fractions only in payloads.
    """

    def __init__(self, rows):
        self.ncols = ncols = len(rows[0])
        self.rows = []
        self.den = []
        for row in rows:
            den = lcm(*[v.denominator for v in row])
            self.rows.append([v.numerator * (den // v.denominator)
                              for v in row])
            self.den.append(den)
        self.lead = [self._first(r, 0) for r in self.rows]

    def _first(self, row, start):
        return next((j for j in range(start, self.ncols) if row[j]),
                    self.ncols)

    def swap(self, i, j):
        for seq in (self.rows, self.lead, self.den):
            seq[i], seq[j] = seq[j], seq[i]

    def normalize(self, r, c):
        row, den = self.rows[r], self.den[r]
        a = row[c]
        if a == den:
            return Fraction(1)
        lead = Fraction(a, den)
        if a < 0:
            row = [-v for v in row]
            a = -a
        g = gcd(a, *row[c + 1:])
        self.rows[r] = [v // g for v in row] if g > 1 else row
        self.den[r] = a // g
        return lead

    def eliminate(self, i, r, c):
        row, prow, dr = self.rows[i], self.rows[r], self.den[r]
        f = row[c]
        if dr == 1:
            tail = [a - f * b for a, b in zip(row[c + 1:], prow[c + 1:])]
            den = self.den[i]
        else:
            tail = [a * dr - f * b for a, b in zip(row[c + 1:], prow[c + 1:])]
            den = self.den[i] * dr
        g = gcd(den, *tail)
        if g > 1:
            tail = [v // g for v in tail]
            den //= g
        row[c:] = [0] + tail
        self.den[i] = den
        self.lead[i] = self._first(row, c + 1)

    def unit(self, k, m):
        vec = [0] * m
        vec[k] = 1
        return vec, 1

    def solve(self, r, c, x, m):
        terms = [(a, x[j]) for j, a in enumerate(self.rows[r][c + 1:], c + 1)
                 if a]
        if not terms:
            return [0] * m, 1
        common = lcm(*[d for _, (_, d) in terms])
        acc = [0] * m
        for a, (vec, d) in terms:
            f = a * (common // d)
            acc = [s - f * v for s, v in zip(acc, vec)]
        den = self.den[r] * common
        g = gcd(den, *acc)
        if g > 1:
            return [v // g for v in acc], den // g
        return acc, den

    def payloads(self, vec, m):
        ints, den = vec
        return [Fraction(v, den) for v in ints]


# array typecode for each item size in bytes; big-endian hosts byteswap.
_ITEM_CODES = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


class PackedRows:
    """GF(p) working rows, each one int with a fixed-width slot per column.

    Same interface as PayloadRows.  Column j sits at bits [j*w, (j+1)*w)
    as an unreduced non-negative residue.  Clearing column c of row i with
    the normalized pivot row r is one big-int multiply-add,
    row_i + (p-f)*row_r, minus the value left in slot c; entries are
    reduced mod p only when a lead is read or a pivot row normalized.  A
    row takes at most ncols such updates and a kernel combination sums at
    most ncols products, each at most (p-1)**2, so no slot exceeds
    (p-1) + ncols*(p-1)**2 or carries into the next.  A slot is a whole
    array item (1, 2, 4 or 8 bytes), packed and unpacked through array and
    int.from_bytes; wider slots, for large p, go through int.to_bytes one
    entry at a time.  Slots left of a row's lead are exactly 0 and the lead
    slot is not a multiple of p, so the lead is the lowest set bit.
    clean[i] says row i is still reduced, as packed.
    """

    def __init__(self, p, rows):
        self.p = p
        self.ncols = ncols = len(rows[0])
        nbytes = -(-((p - 1) + ncols * (p - 1) ** 2).bit_length() // 8)
        size = min((s for s in _ITEM_CODES if s >= nbytes), default=nbytes)
        self.code = _ITEM_CODES.get(size)
        self.nbytes = size
        self.w = w = 8 * size
        self.mask = (1 << w) - 1
        data = self._to_bytes(chain.from_iterable(rows))
        step = ncols * size
        self.rows = [int.from_bytes(data[k:k + step], "little")
                     for k in range(0, len(data), step)]
        self.lead = [((x & -x).bit_length() - 1) // w if x else ncols
                     for x in self.rows]
        self.clean = [True] * len(rows)

    def _to_bytes(self, vals):
        if self.code is None:
            nb = self.nbytes
            return b"".join([v.to_bytes(nb, "little") for v in vals])
        items = array(self.code, vals)
        if _BIG_ENDIAN:
            items.byteswap()
        return items.tobytes()

    def pack(self, vals):
        return int.from_bytes(self._to_bytes(vals), "little")

    def values(self, x, start, m):
        """Slots start .. start+m-1 of x, unreduced."""
        data = (x >> (start * self.w)).to_bytes(m * self.nbytes, "little")
        if self.code is None:
            nb = self.nbytes
            return [int.from_bytes(data[k:k + nb], "little")
                    for k in range(0, len(data), nb)]
        items = array(self.code, data)
        if _BIG_ENDIAN:
            items.byteswap()
        return items.tolist()

    def swap(self, i, j):
        for seq in (self.rows, self.lead, self.clean):
            seq[i], seq[j] = seq[j], seq[i]

    def normalize(self, r, c):
        p = self.p
        x = self.rows[r]
        v = ((x >> (c * self.w)) & self.mask) % p
        if v == 1 and self.clean[r]:
            return v
        vals = self.values(x, c, self.ncols - c)
        if v == 1:
            vals = [a % p for a in vals]
        else:
            inv = pow(v, p - 2, p)
            vals = [a * inv % p for a in vals]
        self.rows[r] = self.pack(vals) << (c * self.w)
        self.clean[r] = True
        return v

    def eliminate(self, i, r, c):
        p, w, mask = self.p, self.w, self.mask
        x = self.rows[i]
        raw = (x >> (c * w)) & mask
        f = raw % p
        x += (p - f) * self.rows[r] - ((raw + p - f) << (c * w))
        # The new lead is the lowest slot that is not a multiple of p;
        # multiples of p below it are cleared exactly on the way.
        while x:
            j = ((x & -x).bit_length() - 1) // w
            raw = (x >> (j * w)) & mask
            if raw % p:
                break
            x -= raw << (j * w)
        else:
            j = self.ncols
        self.rows[i] = x
        self.lead[i] = j
        self.clean[i] = False

    def unit(self, k, m):
        return 1 << (k * self.w)

    def solve(self, r, c, x, m):
        p = self.p
        tail = self.values(self.rows[r], c + 1, self.ncols - c - 1)
        acc = sum([(p - f) * x[j] for j, f in enumerate(tail, c + 1) if f])
        return self.pack([v % p for v in self.values(acc, 0, m)])

    def payloads(self, vec, m):
        return self.values(vec, 0, m)
