"""Self-contained invariant suite for one canonical-form specification.

Runs every structural identity the library promises for a given (p, alpha,
kind) and reports them as (name, ok, detail) triples: form construction,
conjugation transport, kernel characteristic, basis commutation and
independence, dimension formulas, the brute-force oracle cross-check, and
seeded determinant sampling.  The CLI prints these verbatim, so names and
details are stable strings.

Commutation is checked by commutant.commutes, a * x == x * a with the
one Matrix product, which runs on nonzero entries: the basis elements
are placements of a few s x s blocks, so a product costs a small part
of a dense one, and the comparison is exact equality.  For the same
reason the rank checks run on support columns: a stacked vectorization
keeps only the entries i*n + j where some stacked element is nonzero,
as a column that is zero throughout adds nothing to the rank.

The Weyr span check needs the ranks of the direct basis, of the
conjugated Jordan basis and of their union, which takes only the
conjugated elements that differ, to equal both lengths.  Conjugation
permutes coordinates, so the conjugated rank is the Jordan rank; a basis
that weyr_centralizer_basis returns is that conjugated stack, so all
three are the Jordan rank, and only a FormulaMismatchError makes the
suite rank the other two.
"""

from .canonical import (
    FIRST_KIND,
    conjugate_partition,
    dn_split,
    jordan_form,
    weyr_characteristic,
    weyr_form,
    weyr_permutation,
)
from .centralizers import (
    centralizer_dimension,
    jordan_centralizer_basis,
    sample_element,
    weyr_centralizer_basis,
    weyr_centralizer_basis_direct,
    weyr_determinant,
    weyr_layout,
)
from .commutant import DEFAULT_MAX_N, commutant_dimension, commutes
from .errors import FormulaMismatchError, TooLargeError
from .matrices import (
    Matrix,
    block_below_diagonal,
    block_permutation_matrix,
    conjugate_by_block_permutation,
    poly_at_matrix,
)


def _stacked_rank(field, mats):
    """Rank of the stacked row-major vectorizations of the square mats,
    on their support columns, each row filled from its nonzero entries."""
    n = mats[0].cols
    vecs = [[(i * n + j, v) for i, pairs in enumerate(m._nonzeros())
             for j, v in pairs] for m in mats]
    support = sorted({k for vec in vecs for k, _ in vec})
    if not support:
        return 0
    at = {k: c for c, k in enumerate(support)}
    zero = (field._zero_payload,) * len(support)
    rows = []
    for vec in vecs:
        row = list(zero)
        for k, v in vec:
            row[at[k]] = v
        rows.append(row)
    return Matrix._from_payloads(field, rows).rank()


def run_invariant_suite(spec, seed=0, samples=5, max_n=DEFAULT_MAX_N):
    """All per-spec identities as (name, ok, detail) in a fixed order."""
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    p = spec.p
    segre = spec.segre
    field = spec.field

    g = jordan_form(spec)
    w = weyr_form(spec)
    order = weyr_permutation(spec)
    pm = block_permutation_matrix(field, order, spec.s)

    conj = conjugate_by_block_permutation(g, order, spec.s)
    check("conjugation_transport", conj == w,
          "P^-1 G P reproduces the Weyr form entry for entry")
    check("permutation_matrix", pm.inverse() * g * pm == conj,
          "index remap agrees with explicit matrix conjugation")

    tau = weyr_characteristic(w, p)
    check("weyr_characteristic", tau == segre.tau,
          f"kernel steps {tau} vs conjugate partition {segre.tau}")
    check("conjugate_involution",
          conjugate_partition(segre.tau) == segre.alpha,
          "conjugating the characteristic returns the input partition")

    d, n = dn_split(spec)
    check("dn_split_sum", d + n == g, "D + N reassembles the form")
    if spec.kind == FIRST_KIND:
        check("dn_commute", commutes(d, n),
              "diagonal and coupling parts commute in the first kind")

    alpha1 = segre.alpha[0]
    pk = poly_at_matrix(p, g)
    power = Matrix.identity(field, spec.n)
    for _ in range(alpha1 - 1):
        power = power * pk
    check("minimal_polynomial", (power * pk).is_zero() and not power.is_zero(),
          f"p^{alpha1}(G) = 0 while p^{alpha1 - 1}(G) != 0")

    zg = jordan_centralizer_basis(spec)
    dim = centralizer_dimension(segre.alpha, spec.s)
    check("jordan_basis_count",
          zg.dim == dim == spec.s * sum(t * t for t in segre.tau),
          f"{zg.dim} elements vs formula {dim}")
    check("jordan_basis_commutes",
          all(commutes(g, b) for b in zg.elements),
          "every basis element commutes with the form")
    jordan_rank = _stacked_rank(field, zg.elements)
    check("jordan_basis_independent", jordan_rank == zg.dim,
          "stacked vectorizations have full rank")

    try:
        zw = weyr_centralizer_basis(spec)
        paths_agree = True
    except FormulaMismatchError:
        zw = weyr_centralizer_basis_direct(spec)
        paths_agree = False
    check("weyr_paths_agree", paths_agree,
          "conjugated and directly placed bases are identical")
    check("weyr_basis_commutes",
          all(commutes(w, b) for b in zw.elements),
          "every basis element commutes with the Weyr form")
    cuts = weyr_layout(spec)
    check("weyr_basis_triangular",
          all(block_below_diagonal(b, cuts) is None
              for b in zw.elements),
          "basis elements are block upper triangular in level cuts")
    ranks = {jordan_rank}
    if not paths_agree:
        conj_elems = [conjugate_by_block_permutation(b, order, spec.s)
                      for b in zg.elements]
        ranks.add(_stacked_rank(field, zw.elements))
        ranks.add(_stacked_rank(field, list(zw.elements) + [
            c for c, d in zip(conj_elems, zw.elements) if c != d]))
    check("weyr_span_equality", ranks == {zw.dim} and zw.dim == zg.dim,
          "conjugated and direct bases span the same row space")

    try:
        oracle_dim = commutant_dimension(g, max_n=max_n)
        check("oracle_dimension", oracle_dim == dim,
              f"brute-force commutant dimension {oracle_dim} vs {dim}")
    except TooLargeError:
        pass  # past the oracle cap, the property is left out

    det_ok = True
    commute_ok = True
    for i in range(samples):
        k = sample_element(zw, seed=seed + i)
        commute_ok = commute_ok and commutes(w, k)
        det_ok = det_ok and weyr_determinant(k, spec) == k.determinant()
    check("sample_commutes", commute_ok,
          f"{samples} seeded samples commute with the Weyr form")
    check("determinant_product", det_ok,
          f"{samples} seeded samples: level-block product equals determinant")

    return results
