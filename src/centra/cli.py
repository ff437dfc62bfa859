"""Command-line front end: build forms, export bases, verify invariants.

One binary with subcommands; identical invocations (including --seed)
produce byte-identical output.  Exit status: 0 success or verification
pass, 1 verification failure, 2 usage or input errors.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .algebra import Poly, field_from_name
from .canonical import jordan_form, make_spec, weyr_form, weyr_permutation
from .centralizers import (
    centralizer_dimension,
    jordan_centralizer_basis,
    weyr_centralizer_basis,
    weyr_determinant,
)
from .commutant import commutant_basis, commutant_dimension
from .errors import CentraError, ParseError
from .matrices import (
    matrix_from_json_obj,
    matrix_from_text,
    matrix_to_json_obj,
    matrix_to_text,
)
from .verify import run_invariant_suite


@dataclass
class TaskSpec:
    """One resolved CLI invocation."""

    command: str
    field: str = "gf:2"
    poly: str = ""
    alpha: tuple = ()
    kind: str = "e"
    assume_irreducible: bool = False
    form: str = "jordan"
    fmt: str = "text"
    seed: int = 0
    samples: int = 5
    max_n: int | None = None
    oracle: bool = False
    input_path: str = ""


def _parse_alpha(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"alpha must be comma-separated integers: {text!r}")
    return parts


def _canonical_spec(task):
    fld = field_from_name(task.field)
    if not task.poly:
        raise ParseError("--poly is required for this command")
    if not task.alpha:
        raise ParseError("--alpha is required for this command")
    p = Poly.parse(task.poly, fld, var="x")
    return make_spec(p, task.alpha, kind=task.kind,
                     assume_irreducible=task.assume_irreducible)


def _read_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text") from None
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON in {path}: {exc}") from None
        return matrix_from_json_obj(obj)
    return matrix_from_text(text)


def _emit_matrix(m, fmt):
    if fmt == "json":
        print(json.dumps(matrix_to_json_obj(m)))
    else:
        print(matrix_to_text(m))


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
    order, _ = weyr_permutation(spec)
    levels = []
    at = 0
    for width in spec.segre.tau:
        levels.append([o + 1 for o in order[at:at + width]])
        at += width
    if task.fmt == "json":
        print(json.dumps({"order": [o + 1 for o in order],
                          "levels": levels}))
    else:
        print(" | ".join(" ".join(str(x) for x in lv) for lv in levels))
    return 0


def _cmd_centralizer(task):
    spec = _canonical_spec(task)
    build = (jordan_centralizer_basis if task.form == "jordan"
             else weyr_centralizer_basis)
    basis = build(spec)
    if task.fmt == "json":
        print(json.dumps({
            "dim": basis.dim,
            "layout": [list(s) for s in basis.layout],
            "generator": matrix_to_json_obj(basis.generator),
            "basis": [matrix_to_json_obj(b) for b in basis.elements],
        }))
    else:
        print(f"dim={basis.dim} layout={_layout_text(basis.layout)}")
        for b in basis.elements:
            print()
            print(matrix_to_text(b))
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
    if task.fmt == "json":
        print(json.dumps({"dim": len(basis),
                          "basis": [matrix_to_json_obj(b) for b in basis]}))
    else:
        print(f"dim={len(basis)}")
        for b in basis:
            print()
            print(matrix_to_text(b))
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


def run(task):
    """Dispatch one TaskSpec; returns the process exit status."""
    return _COMMANDS[task.command](task)


def _build_parser():
    parser = argparse.ArgumentParser(
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
        sp.add_argument("--max-n", type=int, default=None,
                        help="oracle size cap (default env CENTRA_MAX_N "
                             "or 40)")

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
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        task = TaskSpec(
            command=ns.command,
            field=getattr(ns, "field", "gf:2"),
            poly=getattr(ns, "poly", ""),
            alpha=_parse_alpha(ns.alpha) if getattr(ns, "alpha", "") else (),
            kind=getattr(ns, "kind", "e"),
            assume_irreducible=getattr(ns, "assume_irreducible", False),
            form=getattr(ns, "form", "jordan"),
            fmt=ns.fmt,
            seed=ns.seed,
            samples=getattr(ns, "samples", 5),
            max_n=ns.max_n,
            oracle=getattr(ns, "oracle", False),
            input_path=getattr(ns, "input_path", ""),
        )
        return run(task)
    except CentraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
