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
    permutation-free placement routine computes those positions directly
    from the level indices and must agree entry for entry.

One scalar parameter therefore means one (cell, slot, power-of-C) triple;
bases are emitted in lexicographic order of those labels, 1-based, which
fixes the layout for golden files.
"""

import random
from typing import NamedTuple

from .canonical import (
    E_KIND,
    companion_matrix,
    corner_matrix,
    jordan_block,
    jordan_form,
    make_spec,
    segre_indexing,
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
from .matrices import (
    BlockLayout,
    Matrix,
    conjugate_by_block_permutation,
    extract_blocks,
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
    field = c.field
    cols = [[field.scalar(e).value for e in v]]
    for _ in range(s - 1):
        prev = cols[-1]
        cols.append([field.row_dot(crow, prev) for crow in c._rows])
    return Matrix._from_payloads(field, zip(*cols))


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


def _c_powers_and_tildes(p):
    c = companion_matrix(p)
    powers = []
    m = Matrix.identity(p.field, p.degree)
    for _ in range(p.degree):
        powers.append(m)
        m = m * c
    return powers, [last_row_toeplitz(z) for z in powers]


def block_centralizer_basis(p, ell, kind=E_KIND):
    """Basis of the commutant of a single generalized block.

    One element per (slot k, power e): C^e on block diagonal k, and for
    the corner kind its tilde on the next diagonal down (the chain stops
    there because a tilde has zero last row).  Cardinality ell*s.
    """
    s = p.degree
    powers, tildes = _c_powers_and_tildes(p)
    chained = kind == E_KIND
    elems = []
    layout = []
    for k in range(1, ell + 1):
        for e in range(1, s + 1):
            placed = {}
            for i in range(k - 1, ell):
                placed[(i, i - k + 1)] = powers[e - 1]
            if chained:
                for i in range(k, ell):
                    placed[(i, i - k)] = tildes[e - 1]
            elems.append(place_blocks(p.field, s, ell, placed))
            layout.append(ParamSlot(1, 1, k, e))
    return CentralizerBasis(jordan_block(p, ell, kind), tuple(elems),
                            tuple(layout))


def _cell_slot_offsets(alpha_i, alpha_j, k):
    """In-cell block-diagonal offsets of slot k and its tilde successor.

    The shorter-chain structure is bottom-aligned when the row chain is
    longer and left-aligned when shorter; both cases collapse to one
    offset formula relative to the cell's main corner.
    """
    beta = min(alpha_i, alpha_j)
    d0 = alpha_i - beta + (k - 1)
    return d0, d0 + 1


def jordan_centralizer_basis(spec):
    """Basis of the commutant of the full block-diagonal form.

    Cells are chain pairs; each carries an independent copy of the
    single-block structure for the shorter chain.  Emitted in
    lexicographic (cell, slot, power) order.
    """
    segre = spec.segre
    alpha = segre.alpha
    s = spec.s
    powers, tildes = _c_powers_and_tildes(spec.p)
    chained = spec.kind == E_KIND
    starts = [sig - a for sig, a in zip(segre.sigma, alpha)]
    elems = []
    layout = []
    for ci in range(segre.m):
        for cj in range(segre.m):
            beta = min(alpha[ci], alpha[cj])
            for k in range(1, beta + 1):
                d0, d1 = _cell_slot_offsets(alpha[ci], alpha[cj], k)
                for e in range(1, s + 1):
                    placed = {}
                    for a in range(d0, alpha[ci]):
                        placed[(starts[ci] + a, starts[cj] + a - d0)] = \
                            powers[e - 1]
                    if chained:
                        for a in range(d1, alpha[ci]):
                            placed[(starts[ci] + a, starts[cj] + a - d1)] = \
                                tildes[e - 1]
                    elems.append(place_blocks(spec.field, s, segre.r, placed))
                    layout.append(ParamSlot(ci + 1, cj + 1, k, e))
    return CentralizerBasis(jordan_form(spec), tuple(elems), tuple(layout))


def _weyr_positions(segre):
    """Global block index of every (level, chain) pair, 0-based."""
    pos = {}
    g = 0
    for k, width in enumerate(segre.tau, start=1):
        for i in range(width):
            pos[(k, i + 1)] = g
            g += 1
    return pos


def _weyr_slot(alpha_i, alpha_j, k1, k2):
    """Slot index visible at level pair (k1, k2) of cell (i, j)."""
    if alpha_i >= alpha_j:
        return k2 - k1 + 1
    return (k2 - k1) - (alpha_j - alpha_i) + 1


def weyr_centralizer_basis_direct(spec):
    """Level-grid placement of the same parameters, no permutation used."""
    segre = spec.segre
    alpha = segre.alpha
    s = spec.s
    powers, tildes = _c_powers_and_tildes(spec.p)
    chained = spec.kind == E_KIND
    pos = _weyr_positions(segre)
    elems = []
    layout = []
    for ci in range(1, segre.m + 1):
        for cj in range(1, segre.m + 1):
            ai, aj = alpha[ci - 1], alpha[cj - 1]
            beta = min(ai, aj)
            for k in range(1, beta + 1):
                for e in range(1, s + 1):
                    placed = {}
                    for k1 in range(1, ai + 1):
                        for k2 in range(1, aj + 1):
                            slot = _weyr_slot(ai, aj, k1, k2)
                            at = (pos[(k1, ci)], pos[(k2, cj)])
                            if slot == k:
                                placed[at] = powers[e - 1]
                            elif chained and slot == k + 1:
                                placed[at] = tildes[e - 1]
                    elems.append(place_blocks(spec.field, s, segre.r, placed))
                    layout.append(ParamSlot(ci, cj, k, e))
    return CentralizerBasis(weyr_form(spec), tuple(elems), tuple(layout))


def weyr_centralizer_basis(spec):
    """Conjugation transport of the block-diagonal basis, cross-checked.

    The permutation-free placement must reproduce the conjugated elements
    exactly; a mismatch would mean the two readings of the level-grid
    structure drifted apart, so it is asserted here rather than trusted.
    """
    zg = jordan_centralizer_basis(spec)
    order, _ = weyr_permutation(spec)
    elems = tuple(conjugate_by_block_permutation(b, order, spec.s)
                  for b in zg.elements)
    direct = weyr_centralizer_basis_direct(spec)
    if direct.elements != elems:
        raise FormulaMismatchError(
            "conjugated and directly placed bases disagree")
    return CentralizerBasis(weyr_form(spec), elems, zg.layout)


def centralizer_dimension(alpha, s):
    """Both closed forms, s*sum (2i-1) alpha_i and s*sum tau_j^2."""
    segre = segre_indexing(alpha)
    by_alpha = s * sum((2 * i - 1) * a
                       for i, a in enumerate(segre.alpha, start=1))
    by_tau = s * sum(t * t for t in segre.tau)
    if by_alpha != by_tau:
        raise FormulaMismatchError(
            f"dimension formulas disagree: {by_alpha} vs {by_tau}")
    return by_alpha


def weyr_layout(spec):
    """Square block layout with one cut per level (s*tau_k sizes)."""
    sizes = [spec.s * t for t in spec.segre.tau]
    return BlockLayout.from_sizes(sizes, sizes)


def weyr_determinant(k_mat, spec):
    """Product of the level-diagonal determinants.

    Valid for the block upper triangular shape every commuting matrix of
    the Weyr form has; the shape is checked, membership is not.
    """
    if not k_mat.is_square() or k_mat.rows != spec.n:
        raise ShapeMismatchError(
            f"expected a {spec.n}x{spec.n} matrix, got "
            f"{k_mat.rows}x{k_mat.cols}")
    layout = weyr_layout(spec)
    grid = extract_blocks(k_mat, layout)
    nb = layout.nrow_blocks
    for bi in range(nb):
        for bj in range(bi):
            if not grid[bi][bj].is_zero():
                raise ShapeMismatchError(
                    f"nonzero block below the level diagonal at "
                    f"({bi + 1},{bj + 1})")
    det = spec.field.one
    for bi in range(nb):
        det = det * grid[bi][bi].determinant()
    return det


def is_automorphism(k_mat, spec):
    """Invertibility inside the commuting algebra of the Weyr form."""
    w = weyr_form(spec)
    if k_mat.rows != w.rows or k_mat.cols != w.cols:
        raise ShapeMismatchError(
            f"expected a {w.rows}x{w.cols} matrix")
    if w * k_mat != k_mat * w:
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
    n = basis.generator.rows
    acc = Matrix.zeros(field, n, n)
    for c, b in zip(coeffs, basis.elements):
        if c:
            acc = acc + b * c
    return acc
