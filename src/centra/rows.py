"""Working rows of one elimination, one store class per kind of field.

matrices._forward and matrices._kernel_vectors run every elimination
through a store that Field.row_store makes: PackedRows, one int per row,
for GF(p); RationalRows, primitive integer rows over one denominator, for
Q; PayloadRows, lists of field payloads, for GF(p)(t).  A vector leaves a
store only whole, as the field payloads that payloads returns.
"""

import sys
from array import array
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm


class PayloadRows:
    """Elimination rows as lists of field payloads; the store interface.

    rows[i] is row i and lead[i] the column of its first nonzero entry
    (ncols for a zero row); every entry left of the lead is zero.  swap,
    normalize and eliminate are the steps of matrices._forward.  Vectors
    of m entries are kept in whatever form the store chooses: unit and
    vector make one, row_vector reads row i as one, combine sums payload
    multiples of them, solve is the kernel step combine(-(pivot row right
    of its lead), x), and payloads reads one out as field payloads.
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
        row[c + 1:] = field.row_sub(
            row[c + 1:], field.row_scale(self.rows[r][c + 1:], f))
        self.lead[i] = self._first(row, c + 1)

    def unit(self, k, m):
        """The k-th of m unit vectors."""
        row = [self.field._zero_payload] * m
        row[k] = self.field._one_payload
        return row

    def vector(self, vals):
        """The vector of the given field payloads."""
        return list(vals)

    def combine(self, coeffs, vecs, m):
        """sum(c * v) over payload coefficients c.

        Zero terms cost nothing, and neither do products with one or sums
        with zero: in GF(p)(t) each of those would still reduce by a gcd.
        """
        field = self.field
        zero, one, add, mul = (field._zero_payload, field._one_payload,
                               field._add, field._mul)
        acc = [zero] * m
        for c, vec in zip(coeffs, vecs):
            if c == zero:
                continue
            for j, b in enumerate(vec):
                if b != zero:
                    if c != one:
                        b = mul(c, b)
                    acc[j] = b if acc[j] == zero else add(acc[j], b)
        return acc

    def solve(self, r, c, x, m):
        """-(entries of pivot row r right of its lead c) . x, m entries."""
        return self.combine(map(self.field._neg, self.rows[r][c + 1:]),
                            x[c + 1:], m)

    def payloads(self, vec, m):
        return vec

    def row_vector(self, i):
        """Row i, all ncols entries, as a vector."""
        return self.rows[i]


_ZERO = Fraction(0)


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
    lead are left alone.  Vectors are (ints, den) pairs too, kept
    primitive the same way; they become Fractions only in payloads.
    """

    def __init__(self, rows):
        self.ncols = len(rows[0])
        self.rows, self.den = map(list, zip(*map(self.vector, rows)))
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

    def vector(self, vals):
        den = lcm(*[v.denominator for v in vals])
        return [v.numerator * (den // v.denominator) for v in vals], den

    def combine(self, coeffs, vecs, m, den=1):
        """sum(c * v) / den over coefficients c that are ints or Fractions."""
        terms = [(c, v) for c, v in zip(coeffs, vecs) if c]
        if not terms:
            return [0] * m, 1
        common = lcm(*[c.denominator * d for c, (_, d) in terms])
        acc = [0] * m
        for c, (vec, d) in terms:
            f = c.numerator * (common // (c.denominator * d))
            acc = [s + f * v for s, v in zip(acc, vec)]
        den *= common
        g = gcd(den, *acc)
        if g > 1:
            return [v // g for v in acc], den // g
        return acc, den

    def solve(self, r, c, x, m):
        return self.combine([-a for a in self.rows[r][c + 1:]], x[c + 1:], m,
                            self.den[r])

    def payloads(self, vec, m):
        ints, den = vec
        return [Fraction(v, den) if v else _ZERO for v in ints]

    def row_vector(self, i):
        return self.rows[i], self.den[i]


@cache
def _byte_planes(p, nbytes):
    """bytes.translate tables of (byte * 256**k) mod p for k < nbytes, or
    None when the nbytes reduced planes of a slot could not add up in one
    byte."""
    if nbytes * (p - 1) >= 256:
        return None
    return [bytes([(v << 8 * k) % p for v in range(256)])
            for k in range(nbytes)]


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
    row takes at most ncols such updates and a combination of reduced
    vectors sums at most ncols products, each at most (p-1)**2, before its
    one reduction, so no slot exceeds (p-1) + ncols*(p-1)**2 or carries
    into the next.  A slot is a whole array item (1, 2, 4 or 8 bytes),
    packed and unpacked through array and int.from_bytes; wider slots, for
    large p, go through int.to_bytes one entry at a time.  When
    nbytes*(p-1) < 256, a combination is reduced without unpacking: each
    byte plane of the slots goes through a bytes.translate table of
    (byte * 256**k) mod p, the planes are added as 1-byte slots and one
    more table reduces the sum.  Slots left of a row's lead are exactly 0
    and the lead slot is not a multiple of p, so the lead is the lowest
    set bit.  clean[i] says row i is still reduced, as packed.
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

    def vector(self, vals):
        return self.pack(vals)

    def _reduce(self, x, m):
        """x, m slots wide, with every slot reduced mod p."""
        nb = self.nbytes
        planes = _byte_planes(self.p, nb)
        if planes is None:
            p = self.p
            return self.pack([v % p for v in self.values(x, 0, m)])
        data = x.to_bytes(m * nb, "little")
        if nb > 1:
            data = sum([int.from_bytes(data[k::nb].translate(t), "little")
                        for k, t in enumerate(planes)]).to_bytes(m, "little")
        low = data.translate(planes[0])
        if nb == 1:
            return int.from_bytes(low, "little")
        out = bytearray(m * nb)
        out[::nb] = low
        return int.from_bytes(out, "little")

    def combine(self, coeffs, vecs, m):
        """sum(c * v) over residues c of at most ncols reduced vectors."""
        acc = sum([c * v for c, v in zip(coeffs, vecs) if c])
        return self._reduce(acc, m) if acc else 0

    def solve(self, r, c, x, m):
        p = self.p
        tail = self.values(self.rows[r], c + 1, self.ncols - c - 1)
        return self.combine([p - f if f else 0 for f in tail], x[c + 1:], m)

    def payloads(self, vec, m):
        return self.values(vec, 0, m)

    def row_vector(self, i):
        x = self.rows[i]
        return x if self.clean[i] else self._reduce(x, self.ncols)
