"""Canonical matrix constructions from elementary-divisor data.

A primary component is described by a monic irreducible p of degree s and
a nonincreasing multiplicity partition alpha.  From these we build:

  companion_matrix(p)    s x s multiplication-by-x matrix
  corner_matrix(f, s)    single 1 in the upper right corner ([1] for s=1)
  jordan_form            block diagonal of lower block-bidiagonal chains,
                         one per part: companion blocks on the diagonal,
                         corner (or identity) blocks below it
  jordan_block           jordan_form of the one-part partition (ell,),
                         under the same make_spec checks
  weyr_form              the conjugate-partition reordering of the same
                         data, upper block-bidiagonal

Two kinds of block coupling exist.  The corner kind ("e") works over any
field.  The first kind ("first") replaces the corner blocks by identity
blocks and exists exactly when p is separable; its diagonal plus nilpotent
split commutes.  The first-kind Weyr variant is produced by the same
reindexing and is an extension of the classical corner-kind construction
(see README).

All constructions are plain index placement; no elimination is involved.
"""

from itertools import accumulate
from typing import NamedTuple

from .algebra import SIZE_CAP, is_irreducible, is_separable
from .errors import (
    DegreeZeroError,
    NonPositivePartError,
    NonSeparableFirstKindError,
    NotMonicError,
    NotMultipleOfSError,
    NotSortedDescendingError,
    ParseError,
    ReducibleError,
    TooLargeError,
)
from .matrices import Matrix, place_blocks, poly_at_matrix

E_KIND = "e"
FIRST_KIND = "first"


def conjugate_partition(alpha):
    """tau_j = #{i : alpha_i >= j} for j = 1..alpha_1."""
    alpha = _validated_partition(alpha)
    return tuple(sum(1 for a in alpha if a >= j)
                 for j in range(1, alpha[0] + 1))


def _validated_partition(alpha):
    alpha = tuple(alpha)
    if not alpha:
        raise NonPositivePartError("empty partition")
    for a in alpha:
        if not isinstance(a, int) or a < 1:
            raise NonPositivePartError(f"bad part {a!r} in {alpha}")
    if any(a < b for a, b in zip(alpha, alpha[1:])):
        raise NotSortedDescendingError(f"not nonincreasing: {alpha}")
    return alpha


class SegreData(NamedTuple):
    """A partition with the two grids that index its blocks.

    alpha   the partition (nonincreasing, positive parts)
    tau     conjugate partition, one entry per level 1..alpha_1
    sigma   prefix sums of alpha: chain i (1-based) holds Jordan blocks
            sigma[i-1] - alpha[i-1] .. sigma[i-1] - 1 (0-based)
    levels  0, then the prefix sums of tau: Weyr level k (1-based) holds
            blocks levels[k-1] .. levels[k] - 1, chain j at levels[k-1]+j-1
    """

    alpha: tuple
    tau: tuple
    sigma: tuple
    levels: tuple

    @property
    def r(self):
        return self.levels[-1]

    @property
    def m(self):
        return len(self.alpha)


def segre_indexing(alpha):
    alpha = _validated_partition(alpha)
    tau = conjugate_partition(alpha)
    return SegreData(alpha, tau, tuple(accumulate(alpha)),
                     tuple(accumulate(tau, initial=0)))


class CanonicalSpec(NamedTuple):
    """Validated (p, kind, alpha) data defining one primary component."""

    p: object
    kind: str
    segre: SegreData

    @property
    def field(self):
        return self.p.field

    @property
    def s(self):
        return self.p.degree

    @property
    def n(self):
        return self.s * self.segre.r


def make_spec(p, alpha, kind=E_KIND, assume_irreducible=False):
    """Build a CanonicalSpec, enforcing every standing hypothesis."""
    if kind not in (E_KIND, FIRST_KIND):
        raise ParseError(f"unknown kind {kind!r}")
    if not is_irreducible(p, assume_irreducible=assume_irreducible):
        raise ReducibleError(f"{p!r} factors over {p.field.name}")
    if kind == FIRST_KIND and not is_separable(p):
        raise NonSeparableFirstKindError(
            f"first-kind blocks need a separable polynomial, got {p!r}")
    n = p.degree * sum(_validated_partition(alpha))
    if n > SIZE_CAP:
        raise TooLargeError(f"n = {n} exceeds the size cap {SIZE_CAP}")
    return CanonicalSpec(p, kind, segre_indexing(alpha))


def companion_matrix(p):
    """Subdiagonal of ones, last column the negated coefficients."""
    if not p.is_monic():
        raise NotMonicError(f"not monic: {p!r}")
    s = p.degree
    if s < 1:
        raise DegreeZeroError("companion of a constant")
    field = p.field
    rows = [[field._zero_payload] * s for _ in range(s)]
    for i in range(1, s):
        rows[i][i - 1] = field._one_payload
    for i in range(s):
        rows[i][s - 1] = field._neg(p.coeffs[i])
    return Matrix._from_payloads(field, rows)


def corner_matrix(field, s):
    if s < 1:
        raise NonPositivePartError(f"bad corner size {s}")
    z = field.zero
    rows = [[z] * s for _ in range(s)]
    rows[0][s - 1] = field.one
    return Matrix(field, rows)


def _coupling_block(spec):
    """Identity in the first kind, the corner matrix in the corner kind."""
    if spec.kind == FIRST_KIND:
        return Matrix.identity(spec.field, spec.s)
    return corner_matrix(spec.field, spec.s)


def jordan_form(spec):
    """One lower block-bidiagonal chain per part; block i > 0 couples to
    block i - 1 unless it starts a chain, i.e. unless i is in sigma."""
    c, coupling = companion_matrix(spec.p), _coupling_block(spec)
    r = spec.segre.r
    placed = {(i, i): c for i in range(r)}
    starts = set(spec.segre.sigma)
    placed.update({(i, i - 1): coupling for i in range(1, r)
                   if i not in starts})
    return place_blocks(spec.field, spec.s, r, placed)


def jordan_block(p, ell, kind=E_KIND):
    """The single chain of multiplicity ell, checked as a spec."""
    return jordan_form(make_spec(p, (ell,), kind, assume_irreducible=True))


def dn_split(spec):
    """Diagonal-of-companions D and the coupling remainder N, D + N = G."""
    c = companion_matrix(spec.p)
    r = spec.segre.r
    d = place_blocks(spec.field, spec.s, r, {(i, i): c for i in range(r)})
    return d, jordan_form(spec) - d


def weyr_permutation(spec):
    """Block reordering taking the Jordan basis to the Weyr basis.

    Position g of the returned order holds the (0-based) Jordan block
    index that moves to Weyr position g: level by level, chain by chain,
    the k-th level collects block sigma_i - k + 1 (1-based) of every chain
    with alpha_i >= k.  Only the order is built: conjugating the Jordan
    form by it (matrices.conjugate_by_block_permutation, an entry remap)
    yields the Weyr form, and block_permutation_matrix(field, order, s)
    gives the matrix P with P^-1 G P = W where one is wanted.
    """
    sigma = spec.segre.sigma
    return [sigma[i] - k for k, width in enumerate(spec.segre.tau, 1)
            for i in range(width)]


def weyr_form(spec):
    """Built directly from the level grid, not by conjugation.

    Level k holds tau_k companion blocks on the diagonal; the coupling
    blocks sit between consecutive levels, one per chain still alive at
    the deeper level: with k and j 0-based, chain j of level k couples
    to chain j of level k+1 at block (levels[k] + j, levels[k+1] + j).
    """
    segre = spec.segre
    c, coupling = companion_matrix(spec.p), _coupling_block(spec)
    lv = segre.levels
    placed = {(i, i): c for i in range(segre.r)}
    placed.update({(lv[k] + j, lv[k + 1] + j): coupling
                   for k, deeper in enumerate(segre.tau[1:])
                   for j in range(deeper)})
    return place_blocks(spec.field, spec.s, segre.r, placed)


def weyr_characteristic(w, p):
    """Recover the conjugate partition from kernel growth of powers of p(w).

    tau_k = (dim ker p^k(w) - dim ker p^(k-1)(w)) / s, stopping when the
    kernel stops growing.
    """
    s = p.degree
    if s < 1:
        raise DegreeZeroError("constant polynomial")
    n = w.rows
    b = poly_at_matrix(p, w)
    power = Matrix.identity(w.field, n)
    taus = []
    prev = 0
    for _ in range(n):
        power = power * b
        dim = n - power.rank()
        step = dim - prev
        if step == 0:
            break
        if step % s != 0:
            raise NotMultipleOfSError(
                f"kernel jump {step} not a multiple of s={s}")
        taus.append(step // s)
        prev = dim
        if dim == n:
            break
    return tuple(taus)
