"""The invariant suite: a broken input fails the check that covers it."""

import pytest

import centra.centralizers
import centra.verify
from centra import (
    FormulaMismatchError,
    Poly,
    make_spec,
    prime_field,
    weyr_centralizer_basis,
)
from centra.cli import main
from centra.verify import run_invariant_suite


def _spec():
    return make_spec(Poly.parse("x^2+1", prime_field(3)), (2, 1))


def _drift_direct_basis(monkeypatch, drift):
    """Patch the direct Weyr route, where both modules bind it, to return
    the real basis with its element list passed through drift."""
    real = centra.centralizers.weyr_centralizer_basis_direct

    def direct(spec):
        basis = real(spec)
        return basis._replace(elements=tuple(drift(list(basis.elements))))

    for module in (centra.centralizers, centra.verify):
        monkeypatch.setattr(module, "weyr_centralizer_basis_direct", direct)


def _swap_first_two(elems):
    return [elems[1], elems[0]] + elems[2:]


def _duplicate_second(elems):
    return [elems[1]] + elems[1:]


def test_cross_check_raises_on_drifted_placement(monkeypatch):
    _drift_direct_basis(monkeypatch, _swap_first_two)
    with pytest.raises(FormulaMismatchError):
        weyr_centralizer_basis(_spec())


@pytest.mark.parametrize("drift, failing", [
    (_swap_first_two, ["weyr_paths_agree"]),
    (_duplicate_second, ["weyr_paths_agree", "weyr_span_equality"]),
], ids=["swap", "duplicate"])
def test_route_mismatch_fails_the_checks_it_breaks(monkeypatch, drift,
                                                   failing):
    """A reordered direct basis spans what the conjugated one spans; a
    rank-deficient one does not, although the conjugated elements that
    differ from it fill the union up to full rank."""
    _drift_direct_basis(monkeypatch, drift)
    results = run_invariant_suite(_spec())
    assert [name for name, ok, _ in results if not ok] == failing


def test_cli_verify_reports_route_mismatch(monkeypatch, capsys):
    _drift_direct_basis(monkeypatch, _swap_first_two)
    assert main(["verify", "--field", "gf:3", "--poly", "x^2+1",
                 "--alpha", "2,1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL weyr_paths_agree: " in out
    assert out.splitlines()[-1] == "result: fail (weyr_paths_agree)"


def test_agreeing_routes_are_not_conjugated_or_ranked_again(monkeypatch):
    """With the routes in agreement the suite conjugates only G and ranks
    only the Jordan stack."""
    calls = {"conjugate_by_block_permutation": 0, "_stacked_rank": 0}

    for name in calls:
        def counted(*args, real=getattr(centra.verify, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(centra.verify, name, counted)

    spec = make_spec(Poly.parse("x^2+1", prime_field(3)), (3, 2, 2))
    assert all(ok for _, ok, _ in run_invariant_suite(spec))
    assert calls == {"conjugate_by_block_permutation": 1, "_stacked_rank": 1}
