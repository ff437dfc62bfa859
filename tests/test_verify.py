"""The invariant suite: a broken input fails the check that covers it."""

import centra.verify
from centra import (
    Matrix,
    Poly,
    jordan_form,
    make_spec,
    prime_field,
)
from centra.verify import run_invariant_suite


def test_span_check_reads_the_differing_conjugated_elements(monkeypatch):
    """One conjugated Jordan element moved out of the span fails
    weyr_span_equality, while the production routes still agree."""
    spec = make_spec(Poly.parse("x^2+1", prime_field(3)), (2, 1))
    g = jordan_form(spec)
    n = spec.n
    # Below the block diagonal, where every element of C(W) is zero.
    corner = Matrix._from_payloads(
        spec.field, [[int(i == n - 1 and j == 0) for j in range(n)]
                     for i in range(n)])
    real = centra.verify.conjugate_by_block_permutation
    moved = []

    def conjugate(a, perm, s):
        out = real(a, perm, s)
        if a == g or moved:
            return out
        moved.append(a)
        return out + corner

    monkeypatch.setattr(centra.verify, "conjugate_by_block_permutation",
                        conjugate)
    results = {name: ok for name, ok, _ in run_invariant_suite(spec)}
    assert moved
    assert results["weyr_paths_agree"]
    assert not results["weyr_span_equality"]
    assert [name for name, ok in results.items() if not ok] == \
        ["weyr_span_equality"]
