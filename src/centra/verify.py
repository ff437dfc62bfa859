"""Self-contained invariant suite for one canonical-form specification.

Runs every structural identity the library promises for a given (p, alpha,
kind) and reports them as (name, ok, detail) triples: form construction,
conjugation transport, kernel characteristic, basis commutation and
independence, dimension formulas, the brute-force oracle cross-check, and
seeded determinant sampling.  The CLI prints these verbatim, so names and
details are stable strings.
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
from .commutant import commutant_dimension, _resolve_cap
from .errors import CentraError
from .matrices import Matrix, conjugate_by_block_permutation, extract_blocks, poly_at_matrix


def _stacked_rank(field, mats):
    return Matrix._from_payloads(
        field, [[v for r in m._rows for v in r] for m in mats]).rank()


def _is_block_upper(m, layout):
    grid = extract_blocks(m, layout)
    for bi in range(layout.nrow_blocks):
        for bj in range(bi):
            if not grid[bi][bj].is_zero():
                return False
    return True


def run_invariant_suite(spec, seed=0, samples=5, with_oracle=True, max_n=None):
    """All per-spec identities as (name, ok, detail) in a fixed order."""
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    p = spec.p
    segre = spec.segre
    field = spec.field

    g = jordan_form(spec)
    w = weyr_form(spec)
    order, pm = weyr_permutation(spec)

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
        check("dn_commute", d * n == n * d,
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
    check("jordan_basis_count", zg.dim == dim,
          f"{zg.dim} elements vs formula {dim}")
    check("jordan_basis_commutes",
          all(g * b == b * g for b in zg.elements),
          "every basis element commutes with the form")
    check("jordan_basis_independent",
          _stacked_rank(field, zg.elements) == zg.dim,
          "stacked vectorizations have full rank")

    try:
        zw = weyr_centralizer_basis(spec)
        paths_agree = True
    except CentraError:
        zw = weyr_centralizer_basis_direct(spec)
        paths_agree = False
    check("weyr_paths_agree", paths_agree,
          "conjugated and directly placed bases are identical")
    check("weyr_basis_commutes",
          all(w * b == b * w for b in zw.elements),
          "every basis element commutes with the Weyr form")
    layout = weyr_layout(spec)
    check("weyr_basis_triangular",
          all(_is_block_upper(b, layout) for b in zw.elements),
          "basis elements are block upper triangular in level cuts")
    conj_elems = [conjugate_by_block_permutation(b, order, spec.s)
                  for b in zg.elements]
    stacked = _stacked_rank(field, conj_elems + list(zw.elements))
    check("weyr_span_equality", stacked == zw.dim == zg.dim,
          "conjugated and direct bases span the same row space")

    if with_oracle and spec.n <= _resolve_cap(max_n):
        oracle_dim = commutant_dimension(g, max_n=max_n)
        check("oracle_dimension", oracle_dim == dim,
              f"brute-force commutant dimension {oracle_dim} vs {dim}")

    det_ok = True
    commute_ok = True
    for i in range(samples):
        k = sample_element(zw, seed=seed + i)
        commute_ok = commute_ok and w * k == k * w
        det_ok = det_ok and weyr_determinant(k, spec) == k.determinant()
    check("sample_commutes", commute_ok,
          f"{samples} seeded samples commute with the Weyr form")
    check("determinant_product", det_ok,
          f"{samples} seeded samples: level-block product equals determinant")

    return results
