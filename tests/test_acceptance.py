"""Acceptance gate: every advertised property, one printed line each.

Each test prints `criterion NN PASS/FAIL (...)` and then asserts, so a
plain pytest run doubles as the checklist.  Time limits are wall clock.
"""

import random
import time

import pytest

from centra import (
    E_KIND,
    FIRST_KIND,
    Matrix,
    Poly,
    block_permutation_matrix,
    centralizer_dimension,
    commutant_dimension,
    companion_matrix,
    conjugate_partition,
    corner_matrix,
    direct_sum_dimension,
    dn_split,
    is_irreducible,
    is_separable,
    jordan_block,
    jordan_centralizer_basis,
    jordan_form,
    make_spec,
    poly_at_matrix,
    prime_field,
    rational_function_field,
    sample_element,
    weyr_centralizer_basis,
    weyr_centralizer_basis_direct,
    weyr_characteristic,
    weyr_determinant,
    weyr_form,
    weyr_permutation,
)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)

CORPUS_POLY = {1: "x+1", 2: "x^2+1", 3: "x^3+2*x+1"}  # over GF(3)

WEYR_SUPPORT_54311 = {
    1: set(range(1, 15)),
    2: set(range(2, 15)),
    3: {3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14},
    4: {4, 5, 11, 13, 14},
    5: {4, 5, 11, 13, 14},
    6: set(range(6, 15)),
    7: set(range(7, 15)),
    8: {8, 10, 11, 12, 13, 14},
    9: set(range(9, 15)),
    10: set(range(10, 15)),
    11: {11, 13, 14},
    12: {12, 13, 14},
    13: {13, 14},
    14: {14},
}


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _all_monic(field, degree):
    span = [field.scalar(v) for v in range(field.characteristic)]

    def rec(coeffs):
        if len(coeffs) == degree:
            yield Poly(field, coeffs + [field.one])
            return
        for c in span:
            yield from rec(coeffs + [c])

    yield from rec([])


def _partitions(total, cap=None):
    if cap is None:
        cap = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _corpus_specs():
    """Every partition of r <= 6 at s in {1,2,3}, fixed polys over GF(3)."""
    specs = []
    for s in (1, 2, 3):
        p = Poly.parse(CORPUS_POLY[s], F3)
        for r in range(1, 7):
            for alpha in _partitions(r):
                specs.append(make_spec(p, alpha))
    return specs


def _block_diag(a, b):
    field = a.field
    n1, n2 = a.rows, b.rows
    return Matrix(field, [[a[i, j] if i < n1 and j < n1
                           else b[i - n1, j - n1] if i >= n1 and j >= n1
                           else 0 for j in range(n1 + n2)]
                          for i in range(n1 + n2)])


def test_criterion_01_companion_commutant_dimension():
    start = time.monotonic()
    checked = 0
    ok = True
    for q in (2, 3, 5):
        field = prime_field(q)
        for degree in range(1, 5):
            for p in _all_monic(field, degree):
                if not is_irreducible(p):
                    continue
                checked += 1
                if commutant_dimension(companion_matrix(p)) != degree:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and checked == 245 and elapsed < 10.0
    _report(1, ok, f"oracle dim = deg p for {checked} irreducibles, "
                   f"{elapsed:.1f}s")


def test_criterion_02_single_block_basis():
    start = time.monotonic()
    polys = {(2, 1): "x+1", (2, 2): "x^2+x+1", (2, 3): "x^3+x+1",
             (3, 1): "x+1", (3, 2): "x^2+1", (3, 3): "x^3+2*x+1"}
    ok = True
    cases = 0
    for (q, s), text in sorted(polys.items()):
        p = Poly.parse(text, prime_field(q))
        for ell in range(1, 5):
            cases += 1
            basis = jordan_centralizer_basis(make_spec(p, (ell,)))
            g = jordan_block(p, ell, E_KIND)
            if basis.dim != ell * s:
                ok = False
            if any(b * g != g * b for b in basis.elements):
                ok = False
            if commutant_dimension(g) != ell * s:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and cases == 24 and elapsed < 30.0
    _report(2, ok, f"dim = ell*s, commuting, oracle-confirmed for {cases} "
                   f"(s,ell) cases, {elapsed:.1f}s")


def test_criterion_03_centralizer_dimension_corpus():
    start = time.monotonic()
    ok = True
    count = 0
    for spec in _corpus_specs():
        count += 1
        alpha, tau, s = spec.segre.alpha, spec.segre.tau, spec.s
        by_alpha = s * sum((2 * i - 1) * a
                           for i, a in enumerate(alpha, start=1))
        by_tau = s * sum(t * t for t in tau)
        if by_alpha != by_tau:
            ok = False
        if commutant_dimension(jordan_form(spec)) != by_tau:
            ok = False
        if centralizer_dimension(alpha, s) != by_tau:
            ok = False
    if centralizer_dimension((3, 2), 1) != 9:
        ok = False
    if centralizer_dimension((3, 2), 3) != 27:
        ok = False
    if centralizer_dimension((5, 4, 3, 1, 1), 1) != 48:
        ok = False
    if centralizer_dimension((5, 4, 3, 1, 1), 2) != 96:
        ok = False
    elapsed = time.monotonic() - start
    ok = ok and count == 87 and elapsed < 300.0
    _report(3, ok, f"both closed forms = oracle nullity on {count} specs, "
                   f"named values 9s/48/96 confirmed, {elapsed:.1f}s")


def test_criterion_04_weyr_conjugation():
    start = time.monotonic()
    ok = True
    count = 0
    for spec in _corpus_specs():
        count += 1
        pm = block_permutation_matrix(spec.field, weyr_permutation(spec),
                                      spec.s)
        if pm.inverse() * jordan_form(spec) * pm != weyr_form(spec):
            ok = False
    spec = make_spec(Poly.parse("x^2+1", F3), (3, 2, 2))
    order = weyr_permutation(spec)
    if [o + 1 for o in order] != [3, 5, 7, 2, 4, 6, 1]:
        ok = False
    w = weyr_form(spec)
    c = companion_matrix(spec.p)
    e = corner_matrix(F3, 2)
    expected = {}
    for i in range(7):
        expected[(i, i)] = c
    for bi, bj in ((0, 3), (1, 4), (2, 5), (3, 6)):
        expected[(bi, bj)] = e
    for bi in range(7):
        for bj in range(7):
            block = Matrix(F3, [[w[bi * 2 + a, bj * 2 + b]
                                 for b in range(2)] for a in range(2)])
            want = expected.get((bi, bj))
            if want is None:
                if not block.is_zero():
                    ok = False
            elif block != want:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and count == 87 and elapsed < 10.0
    _report(4, ok, f"P^-1 G P = W on {count} specs, 7-block pattern and "
                   f"ordering 3 5 7 | 2 4 6 | 1 confirmed, {elapsed:.1f}s")


def test_criterion_05_weyr_characteristic():
    start = time.monotonic()
    ok = True
    count = 0
    for spec in _corpus_specs():
        count += 1
        tau = weyr_characteristic(weyr_form(spec), spec.p)
        if tau != conjugate_partition(spec.segre.alpha):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and count == 87 and elapsed < 60.0
    _report(5, ok, f"kernel-computed tau = conjugate(alpha) on {count} "
                   f"specs, {elapsed:.1f}s")


def test_criterion_06_weyr_centralizer_structure():
    start = time.monotonic()
    ok = True
    count = 0
    for spec in _corpus_specs():
        count += 1
        conj = weyr_centralizer_basis(spec)
        direct = weyr_centralizer_basis_direct(spec)
        field = spec.field
        rows_a = [m.flat() for m in conj.elements]
        rows_b = [m.flat() for m in direct.elements]
        ra = Matrix(field, rows_a).rank()
        rb = Matrix(field, rows_b).rank()
        rab = Matrix(field, rows_a + rows_b).rank()
        if not ra == rb == rab == conj.dim:
            ok = False
    spec = make_spec(Poly.parse("x+3", F7), (5, 4, 3, 1, 1))
    support = set()
    for m in weyr_centralizer_basis(spec).elements:
        for i in range(14):
            for j in range(14):
                if m[i, j]:
                    support.add((i + 1, j + 1))
    golden = {(r, c) for r, cols in WEYR_SUPPORT_54311.items() for c in cols}
    if support != golden:
        ok = False
    elapsed = time.monotonic() - start
    ok = ok and count == 87
    _report(6, ok, f"conjugated and direct bases span equal row spaces on "
                   f"{count} specs, support matches the 14-block pattern, "
                   f"{elapsed:.1f}s")


def test_criterion_07_determinant_formula():
    start = time.monotonic()
    ok = True
    total = 0
    cases = ((F3, "x+1", (3, 2, 2)),
             (F2, "x^2+x+1", (2, 2, 1)),
             (F7, "x+3", (5, 4, 3, 1, 1)))
    for field, text, alpha in cases:
        spec = make_spec(Poly.parse(text, field), alpha)
        basis = weyr_centralizer_basis(spec)
        for seed in range(100):
            total += 1
            k = sample_element(basis, seed=seed)
            if weyr_determinant(k, spec) != k.determinant():
                ok = False
    # grouped closed form for chains (5,4,3,1,1), scalar parameters
    spec = make_spec(Poly.parse("x+3", F7), (5, 4, 3, 1, 1))
    basis = weyr_centralizer_basis(spec)
    for seed in range(100):
        k = sample_element(basis, seed=seed)
        a, b, c, d, e = (k[i, i] for i in range(5))
        g, f = k[3, 4], k[4, 3]
        if weyr_determinant(k, spec) != \
                a ** 5 * b ** 4 * c ** 3 * (d * e - g * f):
            ok = False
    elapsed = time.monotonic() - start
    _report(7, ok, f"block product = determinant on {total} seeded samples "
                   f"across 3 specs, grouped closed form reproduced, "
                   f"{elapsed:.1f}s")


def test_criterion_08_separable_first_kind():
    start = time.monotonic()
    ok = True
    cases = 0
    for text, alpha in (("x+1", (2, 1)), ("x+1", (3, 2)),
                        ("x^2+1", (2, 1)), ("x^2+1", (2, 2)),
                        ("x^3+2*x+1", (2, 1))):
        p = Poly.parse(text, F3)
        if not is_separable(p):
            ok = False
        cases += 1
        spec = make_spec(p, alpha, kind=FIRST_KIND)
        g = jordan_form(spec)
        basis = jordan_centralizer_basis(spec)
        if basis.dim != spec.s * sum(t * t for t in spec.segre.tau):
            ok = False
        if any(b * g != g * b for b in basis.elements):
            ok = False
        d, n = dn_split(spec)
        if d + n != g or d * n != n * d:
            ok = False
        spec_e = make_spec(p, alpha, kind=E_KIND)
        g_e = jordan_form(spec_e)
        for k in range(spec.segre.alpha[0] + 1):
            pk = Matrix.identity(F3, spec.n)
            step = poly_at_matrix(p, g)
            step_e = poly_at_matrix(p, g_e)
            pk_e = Matrix.identity(F3, spec.n)
            for _ in range(k):
                pk = pk * step
                pk_e = pk_e * step_e
            if pk.rank() != pk_e.rank():
                ok = False
    elapsed = time.monotonic() - start
    _report(8, ok, f"first-kind basis commutes at dimension s*sum(tau^2), "
                   f"DN=ND, rank sequences match on {cases} specs, "
                   f"{elapsed:.1f}s")


def test_criterion_09_nonseparable_corner_kind():
    start = time.monotonic()
    ft = rational_function_field(2)
    p = Poly.parse("x^2+t", ft)
    ok = not is_separable(p)
    spec = make_spec(p, (2, 1), assume_irreducible=True)
    g = jordan_form(spec)
    basis = jordan_centralizer_basis(spec)
    if basis.dim != 10:
        ok = False
    if any(b * g != g * b for b in basis.elements):
        ok = False
    if commutant_dimension(g) != 10:
        ok = False
    d, n = dn_split(spec)
    if d + n != g:
        ok = False
    if d * n == n * d:
        ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(9, ok, f"x^2+t over GF(2)(t), alpha=(2,1): dim 10 confirmed by "
                   f"oracle, DN != ND, {elapsed:.1f}s")


def test_criterion_10_direct_sum_dimension():
    start = time.monotonic()
    texts = ["x", "x+1", "x+2", "x+3", "x+4", "x^2+2", "x^2+3", "x^2+x+1"]
    polys = [Poly.parse(t, F5) for t in texts]
    assert all(is_irreducible(p) for p in polys)
    ok = True
    pairs = 0
    rng = random.Random(30)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            pairs += 1
            a1 = tuple(sorted((rng.randrange(1, 3) for _ in range(2)),
                              reverse=True))
            a2 = (rng.randrange(1, 3),)
            expected = direct_sum_dimension([(polys[i], a1), (polys[j], a2)])
            big = _block_diag(jordan_form(make_spec(polys[i], a1)),
                              jordan_form(make_spec(polys[j], a2)))
            if commutant_dimension(big) != expected:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and pairs >= 20 and elapsed < 60.0
    _report(10, ok, f"oracle dim of the sum = sum of formula dims on "
                    f"{pairs} coprime pairs, {elapsed:.1f}s")
