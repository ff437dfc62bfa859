#!/usr/bin/env python3
"""Benchmark of the centra command line on three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload verify|oracle|export|all
                         [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Each workload runs in its own process and drives ``centra.cli.main(argv)``
in-process on one thread.  Calls come in rounds: a round is the workload's
fixed call list, generated from (seed, round index).  Rounds repeat until
the next one would end after ``--seconds``.  Every call carries
``--seed`` (derived from the workload seed and the round) and ``--max-n``,
so no argv repeats within a run and neither ``CENTRA_MAX_N`` nor a later
default cap changes the work.

``--trace 0`` times the calls with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` reruns round 0 in three fresh
processes: alternately untraced and with spans around every layer
function, and twice with exact operation counters; it reports the
per-layer metrics.  Every output is
checked outside the timed region; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
DIGEST_LEN = 8
# Rounds recorded in golden.json: twice what a default run makes here.
GOLDEN_ROUNDS = {"verify": 20, "oracle": 12, "export": 8}
SETUP_RUNS = 15
# Untraced and traced rounds alternated to measure the trace overhead.
OVERHEAD_PAIRS = 3
P90_MIN_CALLS = 100

# A call: argv for centra.cli.main, and what its output must show.
Call = namedtuple("Call", "argv check")

WORKLOADS = ("verify", "oracle", "export")

# ---------------------------------------------------------------- inputs


def partitions(r, largest=None):
    """Nonincreasing partitions of r, largest parts first."""
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest or r), 0, -1):
        for rest in partitions(r - first, first):
            yield (first,) + rest


def conjugate(alpha):
    return tuple(sum(1 for a in alpha if a >= j)
                 for j in range(1, alpha[0] + 1))


def formula_dim(alpha, s):
    """Centralizer dimension s * sum (2i - 1) alpha_i, computed here."""
    return s * sum((2 * i - 1) * a for i, a in enumerate(alpha, start=1))


def poly_text(coeffs):
    """Monic polynomial text from ascending coefficients (leading 1 implied)."""
    terms = []
    for i in range(len(coeffs), -1, -1):
        c = 1 if i == len(coeffs) else coeffs[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if not mono:
            terms.append(str(c))
        else:
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms)


_MENUS = {}


def prime_menu(p, s):
    """Monic irreducibles of degree s over GF(p) with the most nonzero
    coefficients, so that every entry gives forms of equal sparsity."""
    from centra.algebra import Poly, is_irreducible, prime_field
    if (p, s) not in _MENUS:
        field = prime_field(p)
        found = [c for c in itertools.product(range(p), repeat=s)
                 if is_irreducible(Poly(field, list(c) + [1]))]
        most = max(sum(map(bool, c)) for c in found)
        _MENUS[(p, s)] = [poly_text(c) for c in found
                          if sum(map(bool, c)) == most]
    return _MENUS[(p, s)]


# Irreducible over GF(2)(t) (linear, or without a root in GF(2)[t]) and
# over Q (negative discriminant); all coefficients nonzero.
GFT2_MENUS = {1: ["x+t", "x+t+1"], 2: ["x^2+x+t", "x^2+t*x+t"]}
Q2_MENU = ["x^2+x+1", "x^2+x+2", "x^2+2*x+2", "x^2+2*x+3"]


def pick(menu, seed, slot, k):
    """The round-k entry of a menu, starting at a seeded offset."""
    offset = random.Random(f"menu:{seed}:{slot}").randrange(len(menu))
    return menu[(offset + k) % len(menu)]


def menu_for(field, s):
    if field == "q":
        return Q2_MENU
    if field == "gft:2":
        return GFT2_MENUS[s]
    return prime_menu(int(field.split(":")[1]), s)


def spec_argv(field, poly, alpha, kind="e"):
    argv = ["--field", field, "--poly", poly,
            "--alpha", ",".join(map(str, alpha))]
    if kind != "e":
        argv += ["--kind", kind]
    if not field.startswith("gf:"):
        argv.append("--assume-irreducible")
    return argv


def round_flags(seed, k, max_n):
    return ["--seed", str(seed * 1000 + k), "--max-n", str(max_n)]


# verify: (field, s, alpha, kind).  The Q spec is the smallest, and
# --max-n equals its n, so the oracle runs on that spec only.  The other
# specs cost about the same (0.3 to 0.8 s each), so that a run holds many
# short rounds and the median call is not at a gap between sizes.
VERIFY_SPECS = [
    ("q", 2, (2, 1), "e"),
    ("gft:2", 1, (3, 2, 2, 1), "e"),
    ("gf:3", 2, (3, 2, 2, 1), "first"),
    ("gf:2", 1, (6, 4, 3, 2, 1), "e"),
    ("gf:5", 3, (2, 2, 1, 1), "e"),
    ("gf:3", 1, (5, 4, 3, 2, 1, 1), "e"),
    ("gf:2", 2, (3, 2, 2, 1), "e"),
]
VERIFY_MAX_N = min(s * sum(a) for _, s, a, _ in VERIFY_SPECS)


def verify_round(seed, k, work):
    calls = []
    for slot, (field, s, alpha, kind) in enumerate(VERIFY_SPECS):
        poly = pick(menu_for(field, s), seed, slot, k)
        argv = (["verify"] + spec_argv(field, poly, alpha, kind)
                + round_flags(seed, k, VERIFY_MAX_N))
        calls.append(Call(argv, {"kind": "verify",
                                 "oracle": s * sum(alpha) <= VERIFY_MAX_N}))
    return calls


# oracle: (field, s, alpha, structured call).  Each size appears twice:
# the block-sparse form G, and a dense similar matrix P^-1 G P.
ORACLE_SPECS = [
    ("q", 2, (2, 1), "dim"),
    ("gft:2", 1, (3, 2, 1), "input"),
    ("q", 2, (2, 1, 1), "input"),
    ("gf:3", 2, (3, 2, 1), "dim"),
    ("gf:5", 1, (5, 4, 3, 2, 1, 1), "input"),
    ("gf:2", 2, (4, 3, 2, 1), "dim"),
]
ORACLE_MAX_N = 28


def unimodular(field, n, rng):
    """Seeded L*U with unit diagonals and entries in {-1, 0, 1}."""
    from centra.matrices import Matrix
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
              for j in range(n)] for i in range(n)]
    return Matrix(field, lower) * Matrix(field, upper)


def write_matrix(m, path, as_json):
    from centra.matrices import matrix_to_json_obj, matrix_to_text
    text = (json.dumps(matrix_to_json_obj(m)) if as_json
            else matrix_to_text(m))
    path.write_text(text + "\n", encoding="utf-8")


def oracle_round(seed, k, work):
    from centra.algebra import Poly, field_from_name
    from centra.canonical import jordan_form, make_spec
    calls = []
    flags = round_flags(seed, k, ORACLE_MAX_N)
    for slot, (field, s, alpha, structured) in enumerate(ORACLE_SPECS):
        poly = pick(menu_for(field, s), seed, slot, k)
        fld = field_from_name(field)
        spec = make_spec(Poly.parse(poly, fld), alpha,
                         assume_irreducible=True)
        g = jordan_form(spec)
        rng = random.Random(f"oracle:{seed}:{k}:{slot}")
        p = unimodular(fld, g.rows, rng)
        dense = p.inverse() * g * p
        dim = formula_dim(alpha, s)
        inputs = [("dense", dense)]
        if structured == "dim":
            fmt = ("text", "json")[len(calls) % 2]
            calls.append(Call(["dim"] + spec_argv(field, poly, alpha)
                              + ["--oracle", "--format", fmt] + flags,
                              {"kind": "dim", "dim": dim, "oracle": True,
                               "fmt": fmt}))
        else:
            inputs.append(("form", g))
        for name, m in inputs:
            fmt = ("text", "json")[len(calls) % 2]
            path = work / f"r{k}-{slot}-{name}.txt"
            write_matrix(m, path, as_json=fmt == "json")
            calls.append(Call(["oracle", "--input", str(path),
                               "--format", fmt] + flags,
                              {"kind": "oracle", "dim": dim, "matrix": m,
                               "fmt": fmt}))
    return calls


# export: every partition of r <= EXPORT_MAX_R at each s, one (prime,
# poly) per s and round, every command in text and JSON.
EXPORT_MAX_R = 6
EXPORT_PRIMES = (2, 3, 5, 7)
EXPORT_COMMANDS = (["jordan"], ["weyr"], ["permutation"],
                   ["centralizer", "--form", "jordan"],
                   ["centralizer", "--form", "weyr"], ["dim"])
EXPORT_MAX_N = 40


def export_round(seed, k, work):
    calls = []
    flags = round_flags(seed, k, EXPORT_MAX_N)
    for s in (1, 2, 3):
        menu = [(p, poly) for p in EXPORT_PRIMES for poly in prime_menu(p, s)]
        p, poly = pick(menu, seed, s, k)
        field = f"gf:{p}"
        for r in range(1, EXPORT_MAX_R + 1):
            for alpha in partitions(r):
                info = {"field": field, "n": s * r, "alpha": alpha,
                        "dim": formula_dim(alpha, s)}
                for cmd in EXPORT_COMMANDS:
                    for fmt in ("text", "json"):
                        calls.append(Call(
                            cmd + spec_argv(field, poly, alpha)
                            + ["--format", fmt] + flags,
                            dict(info, kind=cmd[0], fmt=fmt)))
    # The same order every round, so call i is the same kind of call.
    random.Random(f"export:{seed}").shuffle(calls)
    return calls


ROUNDS = {"verify": verify_round, "oracle": oracle_round,
          "export": export_round}

# ---------------------------------------------------------------- checks


def _matrix_ok(obj, n, field):
    return (obj["rows"] == n and obj["cols"] == n and obj["field"] == field
            and len(obj["entries"]) == n
            and all(len(row) == n for row in obj["entries"]))


def _text_matrices(blocks, n, field):
    """Whether every text block is an n x n matrix over field."""
    for block in blocks:
        lines = block.splitlines()
        if lines[0] != f"{n} {n} {field}" or len(lines) != n + 1:
            return False
        if any(len(ln.split()) != n for ln in lines[1:]):
            return False
    return True


def _commutes_all(a, basis):
    """Whether a commutes with every basis matrix; GF(p) on residue ints."""
    if not a.field.name.startswith("gf:"):
        return all(a * x == x * a for x in basis)
    p = a.field.p

    def grid(m):
        return [[e.value for e in m.row(i)] for i in range(m.rows)]

    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(u * v for u, v in zip(row, col)) % p for col in cols]
                for row in x]

    ga = grid(a)
    return all(mul(ga, gx) == mul(gx, ga) for gx in map(grid, basis))


def check_output(call, rc, out):
    """Independent checks of one call's output; returns an error or None."""
    info = call.check
    kind = info["kind"]
    if rc != 0:
        return f"exit status {rc}"
    if kind == "verify":
        lines = out.splitlines()
        props = lines[1:-1]
        if not lines[-1].startswith("result: pass"):
            return "verify did not pass"
        if not all(ln.startswith("PASS ") for ln in props):
            return "verify printed a non-PASS property"
        ran = any(ln.startswith("PASS oracle_dimension") for ln in props)
        if ran != info["oracle"]:
            return "oracle ran on the wrong specs"
        return None
    json_out = info.get("fmt") == "json"
    obj = json.loads(out) if json_out else None
    dim = info["dim"]
    if kind == "dim":
        want = [dim] * (3 if info.get("oracle") else 2)
        got = (list(obj.values()) if json_out
               else [int(v) for v in out.split()])
        return None if got == want else f"dims {got} != {want}"
    if kind == "oracle":
        from centra.matrices import matrix_from_json_obj, matrix_from_text
        if json_out:
            count = obj["dim"]
            basis = [matrix_from_json_obj(b) for b in obj["basis"]]
        else:
            head, *blocks = out.strip().split("\n\n")
            count = int(head.removeprefix("dim="))
            basis = [matrix_from_text(b) for b in blocks]
        if count != dim or len(basis) != dim:
            return f"oracle dim {count} ({len(basis)} elements) != {dim}"
        if not _commutes_all(info["matrix"], basis):
            return "an oracle basis element does not commute with the input"
        return None
    n, field, alpha = info["n"], info["field"], info["alpha"]
    if kind in ("jordan", "weyr"):
        ok = (_matrix_ok(obj, n, field) if json_out
              else _text_matrices([out.strip()], n, field))
        return None if ok else "form has the wrong shape"
    if kind == "permutation":
        tau = conjugate(alpha)
        if json_out:
            levels, order = obj["levels"], obj["order"]
        else:
            levels = [[int(x) for x in lv.split()]
                      for lv in out.strip().split(" | ")]
            order = [x for lv in levels for x in lv]
        ok = ([len(lv) for lv in levels] == list(tau)
              and [x for lv in levels for x in lv] == order
              and sorted(order) == list(range(1, sum(alpha) + 1)))
        return None if ok else "permutation does not match the levels"
    if kind == "centralizer":
        if json_out:
            ok = (obj["dim"] == dim and len(obj["layout"]) == dim
                  and len(obj["basis"]) == dim
                  and all(_matrix_ok(b, n, field) for b in obj["basis"]))
        else:
            head, *blocks = out.strip().split("\n\n")
            layout = head.split(" layout=")[1].split(";")
            ok = (head.startswith(f"dim={dim} ") and len(layout) == dim
                  and len(blocks) == dim
                  and _text_matrices(blocks, n, field))
        return None if ok else "centralizer basis has the wrong size"
    raise ValueError(f"unknown check kind {kind}")


def digest(rc, out):
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:DIGEST_LEN]


def load_golden(workload, seed):
    """Concatenated per-call digests of the default seed, one per round."""
    if seed != DEFAULT_SEED or not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, [])

# --------------------------------------------------------------- tracing

# (layer, module, function): wrapped at every module attribute binding it.
FUNCTION_LAYERS = [
    ("commutant.sylvester", "commutant", "sylvester_system"),
    ("commutant.dimension", "commutant", "commutant_dimension"),
    ("commutant.basis", "commutant", "commutant_basis"),
    ("centralizers.jordan_basis", "centralizers", "jordan_centralizer_basis"),
    ("centralizers.weyr_basis", "centralizers", "weyr_centralizer_basis"),
    ("centralizers.weyr_basis_direct", "centralizers",
     "weyr_centralizer_basis_direct"),
    ("centralizers.sample_element", "centralizers", "sample_element"),
    ("centralizers.weyr_determinant", "centralizers", "weyr_determinant"),
    ("canonical.make_spec", "canonical", "make_spec"),
    ("canonical.jordan_form", "canonical", "jordan_form"),
    ("canonical.weyr_form", "canonical", "weyr_form"),
    ("canonical.weyr_permutation", "canonical", "weyr_permutation"),
    ("matrices.conjugate", "matrices", "conjugate_by_block_permutation"),
    ("matrices.format", "matrices", "matrix_to_text"),
    ("matrices.format", "matrices", "matrix_to_json_obj"),
    ("matrices.parse", "matrices", "matrix_from_text"),
    ("matrices.parse", "matrices", "matrix_from_json_obj"),
    ("cli.main", "cli", "main"),
    ("verify.suite", "verify", "run_invariant_suite"),
]
# Matrix methods, wrapped on the class: name -> layer.
METHOD_LAYERS = {
    "__mul__": None,  # matmul or scale, by argument type
    "__add__": "matrices.add",
    "__sub__": "matrices.add",
    "__eq__": "matrices.eq",
    "rank": "matrices.rank",
    "kernel_basis": "matrices.kernel",
    "determinant": "matrices.det",
    "inverse": "matrices.inverse",
}
# Computed work per call, from argument shapes.
WORK_NAMES = {
    "matrices.matmul": "madds", "matrices.scale": "cells",
    "matrices.add": "cells", "matrices.eq": "cells",
    "matrices.rank": "cells", "matrices.kernel": "cells",
    "matrices.det": "cells", "matrices.inverse": "cells",
    "commutant.sylvester": "entries",
}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
              "__pow__")
MARK = "_bench_wrapper"


def _work(layer, args):
    if layer == "commutant.sylvester":
        return args[0].rows ** 4
    a = args[0]
    if layer == "matrices.matmul":
        return a.rows * a.cols * args[1].cols
    if layer == "matrices.eq" and type(args[1]) is not type(a):
        return 0
    return a.rows * a.cols


class Tracer:
    """Wraps centra's layers; with timed=True it records self time."""

    def __init__(self, timed):
        self.timed = timed
        self.calls = Counter()
        self.work = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _span(self, fn, layer_of):
        stack, clock = self._stack, time.perf_counter
        calls, work, self_s = self.calls, self.work, self.self_s
        timed = self.timed

        def wrapper(*args, **kwargs):
            layer = layer_of(args)
            calls[layer] += 1
            if layer in WORK_NAMES:
                work[layer] += _work(layer, args)
            if not timed:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_s[layer] += span - stack.pop()
                if stack:
                    stack[-1] += span

        setattr(wrapper, MARK, True)
        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        setattr(wrapper, MARK, True)
        return wrapper

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        from centra import algebra, matrices
        wrappers = {}
        for layer, module, name in FUNCTION_LAYERS:
            fn = getattr(sys.modules[f"centra.{module}"], name)
            wrappers[id(fn)] = self._span(fn, lambda args, _l=layer: _l)
        for mod in centra_modules():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, name, wrappers[id(value)])
        matrix = matrices.Matrix
        for name, layer in METHOD_LAYERS.items():
            if layer is None:
                def layer_of(args):
                    return ("matrices.matmul" if isinstance(args[1], matrix)
                            else "matrices.scale")
            else:
                def layer_of(args, _l=layer):
                    return _l
            self._set(matrix, name, self._span(vars(matrix)[name], layer_of))
        if not self.timed:
            scalar = algebra.Scalar
            for name in SCALAR_OPS:
                self._set(scalar, name,
                          self._count(vars(scalar)[name], "scalar_ops"))
            self._set(scalar, "_coerce",
                      self._count(vars(scalar)["_coerce"], "coerce"))
            self._set(algebra.Field, "__eq__",
                      self._count(vars(algebra.Field)["__eq__"], "field_eq"))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def centra_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "centra" or name.startswith("centra.")]


def installed_wrappers():
    """Names of centra attributes that are benchmark wrappers."""
    from centra import algebra, matrices
    owners = centra_modules() + [matrices.Matrix, algebra.Scalar,
                                 algebra.Field]
    return [f"{getattr(o, '__name__', o)}.{name}" for o in owners
            for name, value in vars(o).items() if getattr(value, MARK, False)]

# ------------------------------------------------------------- measuring


def invoke(cli, argv):
    """One in-process CLI call: (seconds, exit status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed call, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


class Run:
    """Calls, outcomes and timings of one process's rounds."""

    def __init__(self, workload, seed, work):
        from centra import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.golden = load_golden(workload, seed)
        self.round_calls = []
        self.failures = []
        self.digests = []
        self.checked = 0
        self.output_bytes = 0

    def round(self, k, tracer=None):
        """Run round k; returns the seconds spent inside the calls.

        The tracer, if any, is installed only while the calls run, so the
        output checks after them are neither traced nor timed.
        """
        calls = ROUNDS[self.workload](self.seed, k, self.work)
        golden = self.golden[k] if k < len(self.golden) else None
        gc.collect()
        if tracer:
            tracer.install()
        try:
            outcomes = [invoke(self.cli, call.argv) for call in calls]
        finally:
            if tracer:
                tracer.uninstall()
        digests = []
        for i, (call, (_, rc, out)) in enumerate(zip(calls, outcomes)):
            self.output_bytes += len(out.encode())
            digests.append(digest(rc, out))
            try:
                error = check_output(call, rc, out)
            except Exception as exc:  # malformed output fails the call
                error = f"unreadable output ({type(exc).__name__}: {exc})"
            if error is None and golden is not None:
                self.checked += 1
                at = i * DIGEST_LEN
                if digests[-1] != golden[at:at + DIGEST_LEN]:
                    error = "stdout or exit status differs from golden.json"
            if error is not None:
                self.failures.append(f"{' '.join(call.argv)}: {error}")
        self.round_calls.append([seconds for seconds, _, _ in outcomes])
        self.digests.append("".join(digests))
        return sum(self.round_calls[-1])


def measure_setup():
    """Median seconds a fresh interpreter spends importing centra.cli."""
    env = child_env()
    code = ("import time; t = time.perf_counter(); import centra.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(SETUP_RUNS + 1):  # the first one may compile bytecode
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        values.append(float(done.stdout))
    return statistics.median(values[1:])


def child_env():
    env = dict(os.environ)
    env.pop("CENTRA_MAX_N", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, seed, seconds, work):
    setup_s = measure_setup()
    run = Run(workload, seed, work)
    start = time.perf_counter()
    while True:
        run.round(len(run.round_calls))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(run.round_calls)) > seconds:
            break
    rss = peak_rss_mb()
    run.failures += [f"wrapper installed in the untraced run: {w}"
                     for w in installed_wrappers()]
    call_s = [t for times in run.round_calls for t in times]
    n = len(call_s)
    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_RUNS} imports"),
        ("wall_s", sum(map(statistics.median, zip(*run.round_calls))), "s",
         f"sum of per-call medians over {len(run.round_calls)} rounds"),
        ("call_p50_ms", 1000 * statistics.median(call_s), "ms",
         f"{n} calls"),
        ("peak_rss_mb", rss, "MB", "ru_maxrss"),
    ]
    extra = []
    if n >= P90_MIN_CALLS:
        extra.append(("call_p90_ms",
                      1000 * statistics.quantiles(call_s, n=10)[-1], "ms",
                      f"{n} calls"))
    else:
        extra.append(("call_p90_ms", None, "ms",
                      f"not reported: {n} calls < {P90_MIN_CALLS}"))
    failed = len(run.failures)
    extra.append(("fail_ratio", failed / n, "1", f"{failed}/{n} calls"))
    print(f"workload={workload} seed={seed} rounds={len(run.round_calls)} "
          f"calls={n} digest_checked={run.checked}")
    for name, value, unit, note in rows + extra:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<12} {shown:>12} {unit:<3} ({note})")
    for failure in run.failures[:20]:
        print(f"  FAIL {failure}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows}}


# Workloads on which each layer must be reached (checked in traced runs).
EXPECT_CALLS = {
    "verify": ["matrices.matmul", "matrices.scale", "matrices.add",
               "matrices.eq", "matrices.det", "matrices.inverse",
               "centralizers.jordan_basis", "centralizers.weyr_basis",
               "centralizers.weyr_basis_direct",
               "centralizers.sample_element",
               "centralizers.weyr_determinant", "verify.suite"],
    "oracle": ["commutant.sylvester", "commutant.dimension",
               "commutant.basis", "matrices.rank", "matrices.kernel",
               "matrices.parse"],
    "export": ["centralizers.jordan_basis", "centralizers.weyr_basis",
               "centralizers.weyr_basis_direct", "canonical.make_spec",
               "canonical.jordan_form", "canonical.weyr_form",
               "canonical.weyr_permutation", "matrices.conjugate",
               "cli.main", "matrices.format"],
}
EXPECT_COUNTS = {"verify": ["scalar_ops", "coerce", "field_eq"],
                 "oracle": ["scalar_ops", "coerce", "field_eq"],
                 "export": []}
SPAN_LAYERS = sorted(
    {layer for layer, _, _ in FUNCTION_LAYERS}
    | {"matrices.matmul", "matrices.scale"}
    | {layer for layer in METHOD_LAYERS.values() if layer})


def traced_pass(workload, seed, mode, work):
    """Round 0 of a workload with spans or with exact counters.

    The span pass warms up with one unwrapped round, then alternates
    unwrapped and traced rounds, so that the overhead compares rounds made
    close together in time.  Its layer figures are per traced round: every
    round does the same work, so the counts must divide exactly.
    """
    run = Run(workload, seed, work)
    tracer = Tracer(timed=(mode == "spans"))
    plain, traced = [], []
    if mode == "spans":
        run.round(0)
        for _ in range(OVERHEAD_PAIRS):
            plain.append(run.round(0))
            traced.append(run.round(0, tracer))
    else:
        traced.append(run.round(0, tracer))
    rounds = len(traced)
    per_round = {}
    for key, counter in (("calls", tracer.calls), ("work", tracer.work)):
        per_round[key] = {k: v // rounds for k, v in counter.items()}
        if any(v % rounds for v in counter.values()):
            run.failures.append(f"traced rounds differ in {key}")
    return dict(per_round, plain_s=sum(plain), traced_s=sum(traced),
                attempted=sum(map(len, run.round_calls)),
                failures=run.failures,
                output_bytes=run.output_bytes // len(run.round_calls),
                self_s={k: v / rounds for k, v in tracer.self_s.items()},
                counts=dict(tracer.counts))


def per_layer(workload, seed):
    """Per-layer metrics from three fresh processes running round 0."""
    passes = {}
    for mode in ("spans", "counts", "counts2"):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--pass", mode.rstrip("2")]
        done = subprocess.run(argv, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=170,
                              check=True)
        passes[mode] = json.loads(done.stdout.splitlines()[-1])
    spans, counts, again = passes["spans"], passes["counts"], passes["counts2"]
    failures = [f for p in passes.values() for f in p["failures"]]
    for key in ("calls", "work", "counts", "output_bytes"):
        if counts[key] != again[key]:
            failures.append(f"count-only passes disagree on {key}")
    for key in ("calls", "work", "output_bytes"):
        if spans[key] != counts[key]:
            failures.append(f"span and count passes disagree on {key}")
    for layer in EXPECT_CALLS[workload]:
        if not spans["calls"].get(layer):
            failures.append(f"layer {layer} has no calls on {workload}")
    for key in EXPECT_COUNTS[workload]:
        if not counts["counts"].get(key):
            failures.append(f"count {key} is zero on {workload}")
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.calls"] = (spans["calls"].get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (spans["self_s"].get(layer, 0.0), "s")
        if layer in WORK_NAMES:
            metrics[f"{layer}.{WORK_NAMES[layer]}"] = (
                spans["work"].get(layer, 0), "count")
    for key in ("scalar_ops", "coerce", "field_eq"):
        metrics[f"algebra.{key}.count"] = (counts["counts"].get(key, 0),
                                           "count")
    metrics["cli.output_bytes"] = (spans["output_bytes"], "B")
    metrics["trace.overhead"] = (spans["traced_s"] / spans["plain_s"], "ratio")
    print(f"workload={workload} seed={seed} round 0, {OVERHEAD_PAIRS} times "
          f"each: untraced {spans['plain_s']:.4f} s, "
          f"spans {spans['traced_s']:.4f} s; once with counters: "
          f"{counts['traced_s']:.4f} s")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for failure in failures[:20]:
        print(f"  FAIL {failure}")
    attempted = sum(p["attempted"] for p in passes.values())
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {name: {"value": v, "unit": u}
                        for name, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def write_golden():
    """Record per-call digests of the default seed's first rounds."""
    golden = {}
    for workload in WORKLOADS:
        with work_dir() as work:
            run = Run(workload, DEFAULT_SEED, work)
            run.golden = []
            for k in range(GOLDEN_ROUNDS[workload]):
                run.round(k)
        if run.failures:
            raise SystemExit(f"{workload}: {run.failures[:3]}")
        golden[workload] = run.digests
        calls = sum(map(len, run.digests)) // DIGEST_LEN
        print(f"{workload}: {calls} calls recorded")
    GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n",
                      encoding="utf-8")


@contextlib.contextmanager
def work_dir():
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_seconds():
    """The run length, kept in BENCHMARK.json only."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return config["run_seconds"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--pass", dest="mode",
                        choices=("spans", "counts"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden.json from the default seed")
    args = parser.parse_args()
    if not (SRC / "centra" / "cli.py").is_file():
        print(f"error: no centra package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CENTRA_MAX_N", None)
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        write_golden()
        return 0
    if args.workload == "all":
        return run_all(args)
    with work_dir() as work:
        if args.mode:
            result = traced_pass(args.workload, args.seed, args.mode, work)
        elif args.trace:
            result = per_layer(args.workload, args.seed)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work)
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
