"""Command-line front end: build forms, export bases, verify invariants.

One binary with subcommands; identical invocations (including --seed)
produce byte-identical output.  Exit status: 0 success or verification
pass, 1 verification failure, 2 usage or input errors.
"""

import argparse
import functools
import json
import sys

from .algebra import SIZE_CAP, Poly, _refuse_long_int, field_from_name
from .canonical import jordan_form, make_spec, weyr_form, weyr_permutation
from .centralizers import (
    centralizer_dimension,
    jordan_centralizer_basis,
    weyr_centralizer_basis,
    weyr_determinant,
)
from .commutant import DEFAULT_MAX_N, commutant_basis, commutant_dimension
from .errors import (
    CentraError,
    IrreducibilityUnsupportedError,
    ParseError,
    TooLargeError,
)
from .matrices import (
    matrix_from_json_obj,
    matrix_from_text,
    matrix_to_json,
    matrix_to_json_obj,
    matrix_to_text,
)
from .verify import run_invariant_suite

# Every error line is shorter than this in UTF-8, newline included.
ERROR_LINE_BYTES = 200


def _parse_alpha(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        _refuse_long_int(exc, "alpha part", SIZE_CAP)
        raise ParseError(f"alpha must be comma-separated integers: {text!r}")


def _canonical_spec(task):
    alpha = _parse_alpha(task.alpha) if task.alpha else ()
    fld = field_from_name(task.field)
    if not task.poly:
        raise ParseError("--poly is required for this command")
    if not alpha:
        raise ParseError("--alpha is required for this command")
    p = Poly.parse(task.poly, fld, var="x")
    try:
        return make_spec(p, alpha, kind=task.kind,
                         assume_irreducible=task.assume_irreducible)
    except IrreducibilityUnsupportedError:
        raise IrreducibilityUnsupportedError(
            f"no exact irreducibility test over {fld.name}; pass "
            "--assume-irreducible to accept the hypothesis") from None


def _read_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError or an over-long int
            _refuse_long_int(exc, "JSON matrix entry")
            raise ParseError(f"bad JSON in {path}: {exc}") from None
        except RecursionError:
            raise ParseError(f"JSON in {path} nests too deeply") from None
        return matrix_from_json_obj(obj)
    return matrix_from_text(text)


def _emit_matrix(m, fmt):
    print(matrix_to_json(m) if fmt == "json" else matrix_to_text(m))


def _emit_basis(fmt, line, head, elements):
    """The text head line or JSON head dict, then the matrices, which
    share one row table; JSON splices "basis" in before head's "}"."""
    seen = {}
    if fmt == "json":
        body = ", ".join([matrix_to_json(b, seen) for b in elements])
        head = json.dumps(head, default=matrix_to_json_obj)
        print(f'{head[:-1]}, "basis": [{body}]}}')
    else:
        print("\n\n".join([line, *[matrix_to_text(b, seen)
                                    for b in elements]]))


def _layout_text(layout):
    return ";".join(f"{s.chain_row},{s.chain_col},{s.diag},{s.zc}"
                    for s in layout)


def _cmd_form(task):
    spec = _canonical_spec(task)
    build = jordan_form if task.command == "jordan" else weyr_form
    _emit_matrix(build(spec), task.fmt)
    return 0


def _cmd_permutation(task):
    spec = _canonical_spec(task)
    order = [o + 1 for o in weyr_permutation(spec)]
    cuts = spec.segre.levels
    levels = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    if task.fmt == "json":
        print(json.dumps({"order": order, "levels": levels}))
    else:
        print(" | ".join(" ".join(str(x) for x in lv) for lv in levels))
    return 0


def _cmd_centralizer(task):
    spec = _canonical_spec(task)
    build = (jordan_centralizer_basis if task.form == "jordan"
             else weyr_centralizer_basis)
    basis = build(spec)
    _emit_basis(task.fmt,
                f"dim={basis.dim} layout={_layout_text(basis.layout)}",
                {"dim": basis.dim,
                 "layout": [list(s) for s in basis.layout],
                 "generator": basis.generator},
                basis.elements)
    return 0


def _cmd_dim(task):
    spec = _canonical_spec(task)
    value = centralizer_dimension(spec.segre.alpha, spec.s)
    values = [value, value]
    if task.oracle:
        values.append(commutant_dimension(jordan_form(spec),
                                          max_n=task.max_n))
    if task.fmt == "json":
        obj = {"by_alpha": values[0], "by_tau": values[1]}
        if task.oracle:
            obj["oracle"] = values[2]
        print(json.dumps(obj))
    else:
        for v in values:
            print(v)
    return 0


def _cmd_det(task):
    spec = _canonical_spec(task)
    if not task.input_path:
        raise ParseError("--input is required for det")
    k = _read_matrix(task.input_path)
    product = weyr_determinant(k, spec)
    direct = k.determinant()
    if task.fmt == "json":
        print(json.dumps({"product": str(product), "direct": str(direct),
                          "equal": product == direct}))
    else:
        print(product)
        print(direct)
    return 0 if product == direct else 1


def _cmd_verify(task):
    if task.samples < 0:
        raise ParseError(f"--samples must be >= 0, got {task.samples}")
    if task.samples > SIZE_CAP:
        raise TooLargeError(
            f"--samples = {task.samples} exceeds the size cap {SIZE_CAP}")
    spec = _canonical_spec(task)
    results = run_invariant_suite(spec, seed=task.seed, samples=task.samples,
                                  max_n=task.max_n)
    failures = [name for name, ok, _ in results if not ok]
    if task.fmt == "json":
        print(json.dumps({
            "seed": task.seed,
            "properties": [{"name": name, "ok": ok, "detail": detail}
                           for name, ok, detail in results],
            "pass": not failures,
        }))
    else:
        print(f"seed={task.seed}")
        for name, ok, detail in results:
            mark = "PASS" if ok else "FAIL"
            print(f"{mark} {name}: {detail}")
        if failures:
            print(f"result: fail ({failures[0]})")
        else:
            print(f"result: pass ({len(results)} properties)")
    return 1 if failures else 0


def _cmd_oracle(task):
    if not task.input_path:
        raise ParseError("--input is required for oracle")
    m = _read_matrix(task.input_path)
    basis = commutant_basis(m, max_n=task.max_n)
    _emit_basis(task.fmt, f"dim={len(basis)}", {"dim": len(basis)}, basis)
    return 0


_COMMANDS = {
    "jordan": _cmd_form,
    "weyr": _cmd_form,
    "permutation": _cmd_permutation,
    "centralizer": _cmd_centralizer,
    "dim": _cmd_dim,
    "det": _cmd_det,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, so main prints one line."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="centra",
        description="Exact generalized Jordan/Weyr forms and their "
                    "centralizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_flags(sp):
        sp.add_argument("--field", default="gf:2",
                        help="field selector: gf:p, q, or gft:p "
                             "(default gf:2)")
        sp.add_argument("--poly", default="",
                        help='monic polynomial text, e.g. "x^2+1"')
        sp.add_argument("--alpha", default="",
                        help="comma-separated nonincreasing partition, "
                             "e.g. 5,4,3,1,1")
        sp.add_argument("--kind", default="e", choices=["e", "first"],
                        help="coupling kind (default e)")
        sp.add_argument("--assume-irreducible", action="store_true",
                        help="accept the irreducibility hypothesis over "
                             "q/gft fields")

    def common_flags(sp):
        sp.add_argument("--format", default="text", choices=["text", "json"],
                        dest="fmt", help="output format (default text)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for any sampled randomness (default 0)")
        sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                        help=f"oracle size cap (default {DEFAULT_MAX_N})")

    for name in ("jordan", "weyr", "permutation", "centralizer", "dim",
                 "det", "verify"):
        sp = sub.add_parser(name)
        spec_flags(sp)
        common_flags(sp)
    sp = sub.add_parser("oracle")
    common_flags(sp)

    sub.choices["centralizer"].add_argument(
        "--form", default="jordan", choices=["jordan", "weyr"],
        help="which canonical form's centralizer (default jordan)")
    sub.choices["dim"].add_argument(
        "--oracle", action="store_true",
        help="also print the brute-force commutant dimension")
    sub.choices["verify"].add_argument(
        "--samples", type=int, default=5,
        help="number of seeded determinant samples (default 5)")
    for name in ("det", "oracle"):
        sub.choices[name].add_argument(
            "--input", default="", dest="input_path",
            help="matrix file in the text or JSON format")
    return parser


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except (CentraError, OSError) as exc:
        # A message may quote user text with line breaks, of any length:
        # keep one line, and only both ends of a long one.
        text = " ".join(str(exc).splitlines())
        data = text.encode(errors="backslashreplace")
        end = (ERROR_LINE_BYTES - len("error:  ... \n")) // 2
        if len(data) > 2 * end:
            data = data[:end] + b" ... " + data[-end:]
            text = data.decode(errors="ignore")
        print("error:", text, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
