"""Explicit bases of the matrices commuting with a canonical form.

Everything reduces to the commuting algebra of one companion block C:
its members are exactly the matrices [v, Cv, ..., C^(s-1)v], so powers
I, C, ..., C^(s-1) form a basis.  For a full canonical form the basis
elements live on block "slots":

  * the commutant of a single lower bidiagonal block of multiplicity ell
    consists of block lower triangular block-Toeplitz matrices; slot k
    names the k-th block diagonal.  In the corner kind, writing Z for the
    slot-k parameter, the slot below it picks up the coupling term
    "tilde of Z" built from Z's last row; in the first kind the slots are
    independent.
  * for several chains, each ordered chain pair (i, j) carries its own
    copy of that structure for the shorter chain, pushed to the bottom of
    the cell when the row chain is longer and to the left when it is
    shorter.
  * the same parameters transported to the Weyr ordering place Z at every
    position of the level grid whose slot index matches; a second,
    permutation-free placement routine computes those positions by
    formula from SegreData.levels (slot t of cell (i, j) at level pairs
    (k1, k1 + t - 1 + max(0, alpha_j - alpha_i)), chain c of level k at
    block levels[k-1]+c-1) and must agree entry for entry.

One scalar parameter therefore means one (cell, slot, power-of-C) triple;
bases are emitted in lexicographic order of those labels, 1-based, which
fixes the layout for golden files.

Both placement routes run one scaffold, _placed_basis: the label loop,
the powers of C and their tildes, place_blocks and the layout.  A route
gives only its cell map, the block positions of one (cell, slot) and
which take the tilde: from chain starts and in-cell offsets, or from
the level grid and the level-pair formula.  The maps share no code, so
the cross-check in weyr_centralizer_basis compares independent readings.
"""

import random
from typing import NamedTuple

from .canonical import (
    E_KIND,
    _validated_partition,
    companion_matrix,
    jordan_form,
    weyr_form,
    weyr_permutation,
)
from .errors import (
    FormulaMismatchError,
    LengthMismatchError,
    NoSolutionError,
    NotCoprimeError,
    NotInCentralizerError,
    NotSquareError,
    ShapeMismatchError,
)
from .commutant import commutes
from .matrices import (
    Matrix,
    block_below_diagonal,
    conjugate_by_block_permutation,
    place_blocks,
)
from .algebra import poly_gcd


class ParamSlot(NamedTuple):
    """Label of one scalar basis parameter (all components 1-based)."""

    chain_row: int
    chain_col: int
    diag: int
    zc: int


class AffineFamily(NamedTuple):
    """offset + span(basis), the solution set of a coupling equation."""

    offset: Matrix
    basis: tuple


class CentralizerBasis(NamedTuple):
    generator: Matrix
    elements: tuple
    layout: tuple

    @property
    def dim(self):
        return len(self.elements)

    @property
    def field(self):
        return self.generator.field


def companion_centralizer_element(c, v):
    """The unique commuting matrix with first column v: [v, Cv, ...]."""
    s = c.rows
    v = list(v)
    if len(v) != s:
        raise ShapeMismatchError(f"first column has {len(v)} entries, need {s}")
    ct = c.transpose()
    cols = [Matrix(c.field, [v])]
    for _ in range(s - 1):
        cols.append(cols[-1] * ct)
    return Matrix._from_payloads(c.field, zip(*[m._rows[0] for m in cols]))


def companion_centralizer_basis(c):
    """Powers I, C, ..., C^(s-1); element k has first column e_(k+1)."""
    field = c.field
    s = c.rows
    elems = []
    power = Matrix.identity(field, s)
    for _ in range(s):
        elems.append(power)
        power = power * c
    layout = tuple(ParamSlot(1, 1, 1, e) for e in range(1, s + 1))
    return CentralizerBasis(c, tuple(elems), layout)


def from_last_row(c, last_row):
    """Rebuild the commuting matrix with the given last row.

    The first column follows from the last row coefficient relation of
    the companion structure, after which the columns are v, Cv, ...
    """
    s = c.rows
    last = [c.field.scalar(e) for e in last_row]
    if len(last) != s:
        raise ShapeMismatchError(f"last row has {len(last)} entries, need {s}")
    p_coeffs = [-c[i, s - 1] for i in range(s)]
    first = [c.field.zero] * s
    first[s - 1] = last[0]
    for i in range(1, s):
        acc = last[i]
        for j in range(i):
            acc = acc + p_coeffs[s - i + j] * last[j]
        first[s - 1 - i] = acc
    return companion_centralizer_element(c, first)


def last_row_toeplitz(x):
    """Strictly upper triangular Toeplitz matrix fed by the last row of x.

    Superdiagonal d carries entry (n, d) of x; only the last row matters.
    """
    if not x.is_square():
        raise NotSquareError("tilde of a nonsquare matrix")
    n = x.rows
    last = x._rows[n - 1]
    z = x.field._zero_payload
    return Matrix._from_payloads(x.field, [[last[j - i - 1] if j > i else z
                                            for j in range(n)]
                                           for i in range(n)])


def solve_corner_coupling(c, e, x):
    """Solve E X + C T = T C + Y E for (Y, all T), given X.

    For admissible X (a commuting matrix plus a tilde offset) the answer
    is Y = X with T ranging over tilde(X) + the commuting algebra of C.
    Admissibility is checked by the residual of the particular solution.
    """
    s = c.rows
    for name, m in (("coupling", e), ("input", x)):
        if m.rows != s or m.cols != s:
            raise ShapeMismatchError(f"{name} block is not {s}x{s}")
    xt = last_row_toeplitz(x)
    if e * x + c * xt != xt * c + x * e:
        raise NoSolutionError("input is not of the commuting-plus-tilde form")
    return x, AffineFamily(xt, companion_centralizer_basis(c).elements)


def _cell_slot_offsets(alpha_i, alpha_j, k):
    """In-cell block-diagonal offsets of slot k and its tilde successor.

    The shorter-chain structure is bottom-aligned when the row chain is
    longer and left-aligned when shorter; both cases collapse to one
    offset formula relative to the cell's main corner.
    """
    beta = min(alpha_i, alpha_j)
    d0 = alpha_i - beta + (k - 1)
    return d0, d0 + 1


def _placed_basis(spec, generator, cell):
    """Basis of the commutant of generator: one placement per label.

    For chain pair (ci, cj) and slot k (1-based, k <= both parts),
    cell(ci, cj, k) maps each block position of the slot to is_tilde.
    Element (ci, cj, k, e) puts C^(e-1) at the positions that map to
    False and, in the corner kind only, tilde(C^(e-1)) at those that map
    to True; in the first kind the slots are independent.
    """
    field, s, segre = spec.field, spec.s, spec.segre
    alpha = segre.alpha
    powers = companion_centralizer_basis(companion_matrix(spec.p)).elements
    tildes = [last_row_toeplitz(z) for z in powers]
    chained = spec.kind == E_KIND
    elems = []
    layout = []
    for ci in range(1, segre.m + 1):
        for cj in range(1, segre.m + 1):
            for k in range(1, min(alpha[ci - 1], alpha[cj - 1]) + 1):
                blocks = cell(ci, cj, k)
                if not chained:
                    blocks = {at: t for at, t in blocks.items() if not t}
                for e, z in enumerate(zip(powers, tildes), start=1):
                    # z[False] is C^(e-1) and z[True] its tilde.
                    placed = {at: z[t] for at, t in blocks.items()}
                    elems.append(place_blocks(field, s, segre.r, placed))
                    layout.append(ParamSlot(ci, cj, k, e))
    return CentralizerBasis(generator, tuple(elems), tuple(layout))


def jordan_centralizer_basis(spec):
    """Basis of the commutant of the full block-diagonal form.

    Cells are chain pairs; each carries an independent copy of the
    single-block structure for the shorter chain, read off the chain
    starts.  Emitted in lexicographic (cell, slot, power) order.
    """
    alpha = spec.segre.alpha
    starts = [sig - a for sig, a in zip(spec.segre.sigma, alpha)]

    def cell(ci, cj, k):
        ai, row, col = alpha[ci - 1], starts[ci - 1], starts[cj - 1]
        d0, d1 = _cell_slot_offsets(ai, alpha[cj - 1], k)
        blocks = {(row + a, col + a - d0): False for a in range(d0, ai)}
        blocks.update({(row + a, col + a - d1): True for a in range(d1, ai)})
        return blocks

    return _placed_basis(spec, jordan_form(spec), cell)


def weyr_centralizer_basis_direct(spec):
    """Level-grid placement of the same parameters, no permutation used."""
    alpha, levels = spec.segre.alpha, spec.segre.levels

    def cell(ci, cj, k):
        ai, aj = alpha[ci - 1], alpha[cj - 1]
        lag = max(0, aj - ai)
        return {(levels[k1 - 1] + ci - 1,
                 levels[k1 + t + lag - 2] + cj - 1): t != k
                for t in (k, k + 1)
                for k1 in range(1, min(ai, aj) - t + 2)}

    return _placed_basis(spec, weyr_form(spec), cell)


def weyr_centralizer_basis(spec):
    """The directly placed Weyr basis, cross-checked by conjugation.

    Conjugating the block-diagonal basis by weyr_permutation must give
    the directly placed elements exactly, so a returned basis is the
    conjugated one; a mismatch means the two readings of the level-grid
    structure drifted apart and raises FormulaMismatchError.  The check
    runs on every call because the traced benchmark expects both routes
    (matrices.conjugate and centralizers.weyr_basis_direct) on export; it
    moves into verify with the next change to the benchmark.
    """
    order = weyr_permutation(spec)
    conjugated = tuple(conjugate_by_block_permutation(b, order, spec.s)
                       for b in jordan_centralizer_basis(spec).elements)
    direct = weyr_centralizer_basis_direct(spec)
    if direct.elements != conjugated:
        raise FormulaMismatchError(
            "conjugated and directly placed bases disagree")
    return direct


def centralizer_dimension(alpha, s):
    """s * sum (2i-1) alpha_i over the validated partition alpha.

    Equal to s * sum tau_j^2 over the conjugate partition tau; verify's
    jordan_basis_count property checks that identity.
    """
    return s * sum((2 * i - 1) * a
                   for i, a in enumerate(_validated_partition(alpha), 1))


def weyr_layout(spec):
    """Cut tuple of the square level grid: s * levels, level k s*tau_k wide."""
    return tuple(spec.s * c for c in spec.segre.levels)


def weyr_determinant(k_mat, spec):
    """Product of the level-diagonal determinants.

    Valid for the block upper triangular shape every commuting matrix of
    the Weyr form has; the shape is checked, membership is not.
    """
    if not k_mat.is_square() or k_mat.rows != spec.n:
        raise ShapeMismatchError(
            f"expected a {spec.n}x{spec.n} matrix, got "
            f"{k_mat.rows}x{k_mat.cols}")
    cuts = weyr_layout(spec)
    below = block_below_diagonal(k_mat, cuts)
    if below is not None:
        bi, bj = below
        raise ShapeMismatchError(
            f"nonzero block below the level diagonal at "
            f"({bi + 1},{bj + 1})")
    det = spec.field.one
    for lo, hi in zip(cuts, cuts[1:]):
        block = [r[lo:hi] for r in k_mat._rows[lo:hi]]
        det = det * Matrix._from_payloads(k_mat.field, block).determinant()
    return det


def is_automorphism(k_mat, spec):
    """Invertibility inside the commuting algebra of the Weyr form."""
    w = weyr_form(spec)
    if k_mat.rows != w.rows or k_mat.cols != w.cols:
        raise ShapeMismatchError(
            f"expected a {w.rows}x{w.cols} matrix")
    if not commutes(w, k_mat):
        raise NotInCentralizerError(
            "matrix does not commute with the Weyr form")
    return bool(weyr_determinant(k_mat, spec))


def direct_sum_dimension(summands):
    """Sum of per-component dimensions for pairwise coprime polynomials."""
    summands = list(summands)
    for i in range(len(summands)):
        for j in range(i + 1, len(summands)):
            g = poly_gcd(summands[i][0], summands[j][0])
            if g.degree != 0:
                raise NotCoprimeError(
                    f"summands {i + 1} and {j + 1} share the factor {g!r}")
    return sum(centralizer_dimension(alpha, p.degree)
               for p, alpha in summands)


def sample_element(basis, coeffs=None, seed=None):
    """Linear combination of the basis; seeded draws are reproducible."""
    field = basis.field
    if coeffs is None:
        rng = random.Random(seed)
        coeffs = [field.random(rng) for _ in range(basis.dim)]
    else:
        coeffs = [field.scalar(c) for c in coeffs]
        if len(coeffs) != basis.dim:
            raise LengthMismatchError(
                f"{len(coeffs)} coefficients for dimension {basis.dim}")
    # Sum c * E over the nonzero entries of each E; a cell's first term
    # is written over the zero payload, as in the matrix product.
    n = basis.generator.rows
    zero, add, mul = field._zero_payload, field._add, field._mul
    acc = [[zero] * n for _ in range(n)]
    for c, b in zip(coeffs, basis.elements):
        if c:
            c = c.value
            for row, pairs in zip(acc, b._nonzeros()):
                for j, v in pairs:
                    s = row[j]
                    row[j] = mul(c, v) if s is zero else add(s, mul(c, v))
    return Matrix._from_payloads(field, acc)
