"""Canonical matrix constructions from elementary-divisor data.

A primary component is described by a monic irreducible p of degree s and
a nonincreasing multiplicity partition alpha.  From these we build:

  companion_matrix(p)    s x s multiplication-by-x matrix
  corner_matrix(f, s)    single 1 in the upper right corner ([1] for s=1)
  jordan_block           lower block-bidiagonal: companion blocks on the
                         diagonal, corner (or identity) blocks below it
  jordan_form            block diagonal of jordan_blocks, one per part
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

from dataclasses import dataclass

from .algebra import is_irreducible, is_separable
from .errors import (
    DegreeZeroError,
    NonPositivePartError,
    NonSeparableFirstKindError,
    NotMonicError,
    NotMultipleOfSError,
    NotSortedDescendingError,
    ParseError,
    ReducibleError,
)
from .matrices import (
    Matrix,
    block_permutation_matrix,
    place_blocks,
    poly_at_matrix,
)

E_KIND = "e"
FIRST_KIND = "first"


def normalize_partition(alpha):
    """Strip zero parts; validation happens in segre_indexing."""
    return tuple(a for a in alpha if a != 0)


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


@dataclass(frozen=True)
class SegreData:
    """A partition with every derived sequence used downstream.

    alpha    the partition (nonincreasing, positive parts)
    tau      conjugate partition, one entry per level 1..alpha_1
    beta     distinct part values, decreasing
    freq     how often each beta value occurs
    cumfreq  running totals of freq
    sigma    prefix sums of alpha (1-based chain boundaries)
    """

    alpha: tuple
    tau: tuple
    beta: tuple
    freq: tuple
    cumfreq: tuple
    sigma: tuple

    @property
    def r(self):
        return self.sigma[-1] if self.sigma else 0

    @property
    def m(self):
        return len(self.alpha)

    @property
    def h(self):
        return len(self.beta)


def segre_indexing(alpha):
    alpha = _validated_partition(alpha)
    tau = conjugate_partition(alpha)
    beta = []
    freq = []
    for a in alpha:
        if beta and beta[-1] == a:
            freq[-1] += 1
        else:
            beta.append(a)
            freq.append(1)
    cumfreq = []
    total = 0
    for f in freq:
        total += f
        cumfreq.append(total)
    sigma = []
    total = 0
    for a in alpha:
        total += a
        sigma.append(total)
    return SegreData(alpha, tau, tuple(beta), tuple(freq),
                     tuple(cumfreq), tuple(sigma))


@dataclass(frozen=True)
class CanonicalSpec:
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
    return CanonicalSpec(p, kind, segre_indexing(alpha))


def companion_matrix(p):
    """Subdiagonal of ones, last column the negated coefficients."""
    if not p.is_monic():
        raise NotMonicError(f"not monic: {p!r}")
    s = p.degree
    if s < 1:
        raise DegreeZeroError("companion of a constant")
    field = p.field
    z = field.zero
    rows = [[z] * s for _ in range(s)]
    for i in range(1, s):
        rows[i][i - 1] = field.one
    for i in range(s):
        rows[i][s - 1] = -p.coeff(i)
    return Matrix(field, rows)


def corner_matrix(field, s):
    if s < 1:
        raise NonPositivePartError(f"bad corner size {s}")
    z = field.zero
    rows = [[z] * s for _ in range(s)]
    rows[0][s - 1] = field.one
    return Matrix(field, rows)


def _coupling_block(p, kind):
    if kind == FIRST_KIND:
        if not is_separable(p):
            raise NonSeparableFirstKindError(
                f"first-kind blocks need a separable polynomial, got {p!r}")
        return Matrix.identity(p.field, p.degree)
    if kind != E_KIND:
        raise ParseError(f"unknown kind {kind!r}")
    return corner_matrix(p.field, p.degree)


def jordan_block(p, ell, kind=E_KIND):
    if ell < 1:
        raise NonPositivePartError(f"bad multiplicity {ell}")
    c = companion_matrix(p)
    coupling = _coupling_block(p, kind)
    placed = {(i, i): c for i in range(ell)}
    for i in range(1, ell):
        placed[(i, i - 1)] = coupling
    return place_blocks(p.field, p.degree, ell, placed)


def jordan_form(spec):
    c = companion_matrix(spec.p)
    coupling = _coupling_block(spec.p, spec.kind)
    r = spec.segre.r
    placed = {(i, i): c for i in range(r)}
    start = 0
    for part in spec.segre.alpha:
        for i in range(start + 1, start + part):
            placed[(i, i - 1)] = coupling
        start += part
    return place_blocks(spec.field, spec.s, r, placed)


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
    with alpha_i >= k.  Also returns the permutation matrix P; conjugating
    the Jordan form by it (entry remapping) yields the Weyr form.
    """
    segre = spec.segre
    order = []
    for k in range(1, segre.alpha[0] + 1):
        for i in range(segre.tau[k - 1]):
            order.append(segre.sigma[i] - k)
    p_mat = block_permutation_matrix(spec.field, order, spec.s)
    return order, p_mat


def weyr_form(spec):
    """Built directly from the conjugate partition, not by conjugation.

    Level k holds tau_k companion blocks on the diagonal; the coupling
    blocks sit between consecutive levels, one per chain still alive at
    the deeper level, aligned with the leading chains.
    """
    segre = spec.segre
    c = companion_matrix(spec.p)
    coupling = _coupling_block(spec.p, spec.kind)
    r = segre.r
    placed = {(i, i): c for i in range(r)}
    offset = 0
    for k in range(len(segre.tau) - 1):
        here, deeper = segre.tau[k], segre.tau[k + 1]
        for j in range(deeper):
            placed[(offset + j, offset + here + j)] = coupling
        offset += here
    return place_blocks(spec.field, spec.s, r, placed)


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
