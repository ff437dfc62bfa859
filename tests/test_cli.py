"""End-to-end command line behavior, run in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import centra.cli
from centra import (
    QQ,
    Matrix,
    Poly,
    SIZE_CAP,
    commutant_basis,
    field_from_name,
    jordan_centralizer_basis,
    jordan_form,
    make_spec,
    matrix_from_json_obj,
    matrix_to_json_obj,
    matrix_to_text,
    prime_field,
    rational_function_field,
    sample_element,
    weyr_centralizer_basis,
    weyr_form,
)
from centra.cli import main

F3 = prime_field(3)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_dim_prints_value_twice(capsys):
    rc, out, err = _run(capsys, ["dim", "--field", "gf:3", "--poly", "x^2+1",
                                 "--alpha", "5,4,3,1,1"])
    assert rc == 0 and err == ""
    assert out == "96\n96\n"


def test_permutation_golden(capsys):
    rc, out, _ = _run(capsys, ["permutation", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "3,2,2"])
    assert rc == 0
    assert out == "3 5 7 | 2 4 6 | 1\n"


def test_permutation_json(capsys):
    rc, out, _ = _run(capsys, ["permutation", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "3,2,2", "--format",
                               "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == [3, 5, 7, 2, 4, 6, 1]
    assert data["levels"] == [[3, 5, 7], [2, 4, 6], [1]]


def test_weyr_text_golden(capsys):
    rc, out, _ = _run(capsys, ["weyr", "--field", "gf:2", "--poly", "x+1",
                               "--alpha", "3,2,2"])
    assert rc == 0
    assert out == ("7 7 gf:2\n"
                   "1 0 0 1 0 0 0\n"
                   "0 1 0 0 1 0 0\n"
                   "0 0 1 0 0 1 0\n"
                   "0 0 0 1 0 0 1\n"
                   "0 0 0 0 1 0 0\n"
                   "0 0 0 0 0 1 0\n"
                   "0 0 0 0 0 0 1\n")


def test_jordan_json_round_trip(capsys):
    rc, out, _ = _run(capsys, ["jordan", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--format", "json"])
    assert rc == 0
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    assert matrix_from_json_obj(json.loads(out)) == jordan_form(spec)


def test_centralizer_text_header(capsys):
    rc, out, _ = _run(capsys, ["centralizer", "--field", "gf:3", "--poly",
                               "x+1", "--alpha", "2,1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == \
        "dim=5 layout=1,1,1,1;1,1,2,1;1,2,1,1;2,1,1,1;2,2,1,1"
    # five basis matrices follow, separated by blank lines
    assert out.count("3 3 gf:3") == 5


def test_centralizer_weyr_json(capsys):
    rc, out, _ = _run(capsys, ["centralizer", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--form", "weyr",
                               "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    assert data["dim"] == 10
    assert len(data["basis"]) == 10
    assert matrix_from_json_obj(data["generator"]) == weyr_form(spec)
    w = weyr_form(spec)
    for obj in data["basis"]:
        b = matrix_from_json_obj(obj)
        assert b * w == w * b


@pytest.mark.parametrize("form", ["jordan", "weyr"])
@pytest.mark.parametrize("kind", ["e", "first"])
@pytest.mark.parametrize("field,poly", [
    ("gf:3", "x^2+1"), ("q", "x^2+1"), ("gft:2", "x^2+x+t")])
def test_centralizer_json_bytes(capsys, field, poly, kind, form):
    """The spliced JSON is json.dumps of the object of matrix objects."""
    spec = make_spec(Poly.parse(poly, field_from_name(field)), (2, 1),
                     kind=kind, assume_irreducible=True)
    build = (jordan_centralizer_basis if form == "jordan"
             else weyr_centralizer_basis)
    basis = build(spec)
    expected = json.dumps({
        "dim": basis.dim,
        "layout": [list(s) for s in basis.layout],
        "generator": matrix_to_json_obj(basis.generator),
        "basis": [matrix_to_json_obj(b) for b in basis.elements],
    })
    rc, out, _ = _run(capsys, ["centralizer", "--field", field, "--poly",
                               poly, "--alpha", "2,1", "--kind", kind,
                               "--form", form, "--assume-irreducible",
                               "--format", "json"])
    assert rc == 0
    assert out == expected + "\n"


@pytest.mark.parametrize("field,rows", [
    (QQ, [[1, "-1/2", 3], ["2/3", 0, -1], [5, "1/7", 2]]),
    (rational_function_field(2), [["t", "1/(t+1)"], [1, "t^2/(t^2+t+1)"]]),
], ids=["q", "gft"])
def test_oracle_json_bytes(tmp_path, capsys, field, rows):
    m = Matrix(field, rows)
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(m) + "\n")
    basis = commutant_basis(m)
    expected = json.dumps({"dim": len(basis),
                           "basis": [matrix_to_json_obj(b) for b in basis]})
    rc, out, _ = _run(capsys, ["oracle", "--input", str(path), "--format",
                               "json"])
    assert rc == 0
    assert out == expected + "\n"


def test_det_subcommand(tmp_path, capsys):
    spec = make_spec(Poly.parse("x^2+1", F3), (2, 1))
    k = sample_element(weyr_centralizer_basis(spec), seed=9)
    path = tmp_path / "k.txt"
    path.write_text(matrix_to_text(k) + "\n")
    rc, out, _ = _run(capsys, ["det", "--field", "gf:3", "--poly", "x^2+1",
                               "--alpha", "2,1", "--input", str(path)])
    assert rc == 0
    first, second = out.splitlines()
    assert first == second == str(k.determinant())


def test_oracle_subcommand(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(Matrix.identity(F3, 2)) + "\n")
    rc, out, _ = _run(capsys, ["oracle", "--input", str(path)])
    assert rc == 0
    assert out.splitlines()[0] == "dim=4"
    assert out.count("2 2 gf:3") == 4


def test_verify_pass(capsys):
    rc, out, _ = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--seed", "3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "seed=3"
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[-1] == "result: pass (16 properties)"


def test_verify_json(capsys):
    rc, out, _ = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--format", "json",
                               "--seed", "3"])
    assert rc == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["seed"] == 3
    assert all(prop["ok"] for prop in data["properties"])


def test_verify_reports_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        centra.cli, "run_invariant_suite",
        lambda spec, seed=0, samples=5, max_n=None:
            [("conjugation_transport", False, "forced for the test")])
    rc, out, _ = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1"])
    assert rc == 1
    assert "FAIL conjugation_transport: forced for the test" in out
    assert out.splitlines()[-1] == "result: fail (conjugation_transport)"


def test_repeat_invocations_are_byte_identical(capsys):
    argv = ["verify", "--field", "gf:2", "--poly", "x^2+x+1", "--alpha",
            "2,2", "--seed", "7"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv,needle", [
    (["jordan", "--field", "gf:3", "--poly", "x^2+2", "--alpha", "2"],
     "factors"),
    (["jordan", "--field", "gf:3", "--alpha", "2"], "--poly"),
    (["dim", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,x"],
     "alpha"),
    (["dim", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "1,2"],
     "nonincreasing"),
    (["jordan", "--field", "q", "--poly", "x^2+1", "--alpha", "2"],
     "irreducib"),
    (["det", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2"],
     "--input"),
    (["oracle", "--input", "/nonexistent/file.txt"], ""),
    (["jordan", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "3,0,2"],
     "bad part"),
    (["jordan", "--field", "gf:2", "--poly", "x",
      "--alpha", "99999999999999999999999"], f"size cap {SIZE_CAP}"),
    (["jordan", "--field", "gf:2", "--poly", "x^99999999999999",
      "--alpha", "1"], f"size cap {SIZE_CAP}"),
    (["dim", "--field", "gf:3", "--poly", "x^2+1",
      "--alpha", f"{SIZE_CAP // 2 + 1}"], f"size cap {SIZE_CAP}"),
    (["jordan", "--field", "q", "--poly", "x^2+1", "--alpha", "2"],
     "pass --assume-irreducible"),
    (["jordan", "--field", "gft:2", "--poly", "x^2+t", "--alpha", "2"],
     "pass --assume-irreducible"),
])
def test_usage_errors_exit_two(capsys, argv, needle):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert needle in err


def _assert_one_line_error(rc, err):
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rational_past_print_digit_limit_exit_two(capsys, fmt):
    """A Q entry too long for Python to print ends in one error line."""
    rc, out, err = _run(capsys, ["jordan", "--field", "q", "--poly",
                                 "x-1e5000", "--alpha", "1", "--format", fmt])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert f"{sys.get_int_max_str_digits()}-digit limit" in err


def test_oracle_unprintable_entry_prints_nothing(tmp_path, capsys):
    """A basis entry too long to print fails before any stdout is written."""
    path = tmp_path / "m.txt"
    path.write_text("2 2 q\n1 1e5000\n0 2\n")
    rc, out, err = _run(capsys, ["oracle", "--input", str(path)])
    assert out == ""
    _assert_one_line_error(rc, err)


_LONG = "1" * 5000


@pytest.mark.parametrize("argv", [
    ["--field", "q", "--poly", f"x-{_LONG}"],
    ["--field", "gf:5", "--poly", f"x-{_LONG}"],
    ["--field", "gft:3", "--assume-irreducible", "--poly", f"x-{_LONG}"],
    ["--poly", f"x^{_LONG}"],
    ["--poly", "x+1", "--alpha", _LONG],
    ["--field", f"gf:{_LONG}", "--poly", "x+1"],
], ids=["q", "gf", "gft", "exponent", "alpha", "field"])
def test_overlong_integer_exit_two(capsys, argv):
    """A number past Python's digit limit on int() ends in one short line
    that does not repeat it."""
    rc, out, err = _run(capsys, ["jordan", "--alpha", "1", *argv])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert len(err.encode()) < 200


_TOKEN = "a" * 5000


@pytest.mark.parametrize("argv", [
    ["--field", "gf:5", "--poly", f"x-{_TOKEN}"],
    ["--field", "gf:5", "--poly", "x-" + "\u00e9" * 5000],
    ["--poly", "x+1", "--alpha", f"1,{_TOKEN}"],
    ["--kind", _TOKEN],
    ["--field", f"gf:{_TOKEN}"],
    ["--field", "gft:3", "--poly", f"x-({_TOKEN})"],
], ids=["poly", "non-ascii", "alpha", "kind", "field", "gft"])
def test_long_token_error_is_short(capsys, argv):
    """A malformed token of any length ends in one short error line."""
    rc, out, err = _run(capsys, ["jordan", "--alpha", "1", *argv])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert len(err.encode()) < 200


_BOOL_ENTRY = b'{"rows": 1, "cols": 1, "field": "gf:2", "entries": [[true]]}'


@pytest.mark.parametrize("data", [
    b'{"rows": 2, "cols": ',
    b'{"rows": 1, "cols": 1, "field": "gf:3", "entries": 5}',
    b'{"rows": 1, "cols": 1, "field": "gf:3", "entries": [5]}',
    b'{"rows": "1", "cols": 1, "field": "gf:3", "entries": [[5]]}',
    b'{"rows": 1, "cols": 1.0, "field": "gf:3", "entries": [[5]]}',
    b"\xff\xfe 1 1 gf:3",
    b"1 1 gft:2\nt^99999999999999\n",
    b"1 1 q\n1e-99999999999999\n",
    pytest.param(_LONG.encode() + b" 1 gf:3\n1\n", id="long-header"),
    pytest.param(f"1 1 gf:3\n{_TOKEN}\n".encode(), id="long-entry"),
    pytest.param(b'{"rows": 1, "cols": 1, "field": "gf:3", "entries": [['
                 + _LONG.encode() + b"1]]}", id="long-json-entry"),
    pytest.param(b'{"entries": ' + b"[" * 100000, id="deep-json"),
    pytest.param(_BOOL_ENTRY, id="bool-entry"),
])
def test_bad_input_file_exit_two(tmp_path, capsys, data):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    rc, out, err = _run(capsys, ["oracle", "--input", str(path)])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert len(err.encode()) < 200


def test_bool_entry_exit_two_on_det(tmp_path, capsys):
    """det reads its --input as oracle does: a JSON true is no entry."""
    path = tmp_path / "m.json"
    path.write_bytes(_BOOL_ENTRY)
    rc, out, err = _run(capsys, ["det", "--field", "gf:2", "--poly", "x+1",
                                 "--alpha", "1", "--input", str(path)])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert len(err.encode()) < 200


_ORACLE_ARGVS = [
    ["dim", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1",
     "--oracle"],
    ["verify", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1"],
    ["oracle"],
]


def _with_input(argv, tmp_path):
    if argv[0] != "oracle":
        return argv
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(Matrix.identity(F3, 3)) + "\n")
    return argv + ["--input", str(path)]


@pytest.mark.parametrize("argv", _ORACLE_ARGVS, ids=lambda a: a[0])
def test_negative_max_n_exit_two(tmp_path, capsys, argv):
    rc, out, err = _run(capsys, _with_input(argv, tmp_path)
                        + ["--max-n", "-3"])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert "--max-n" in err and "cap" not in err


def test_zero_max_n_skips_the_oracle(capsys):
    rc, out, _ = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--max-n", "0"])
    assert rc == 0
    assert "oracle" not in out


@pytest.mark.parametrize("argv", [
    ["dim", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1",
     "--oracle", "--format", "json"],
    ["verify", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1"],
], ids=lambda a: a[0])
def test_environment_does_not_change_output(monkeypatch, capsys, argv):
    """The oracle cap is --max-n or its default, never an ambient input."""
    monkeypatch.delenv("CENTRA_MAX_N", raising=False)
    expected = _run(capsys, argv)
    assert expected[0] == 0 and "oracle" in expected[1]
    for value in ("0", "abc"):
        monkeypatch.setenv("CENTRA_MAX_N", value)
        assert _run(capsys, argv) == expected


def test_negative_samples_exit_two(capsys):
    rc, out, err = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                                 "x^2+1", "--alpha", "2,1", "--samples",
                                 "-3"])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert "--samples" in err


def test_samples_past_size_cap_exit_two(capsys):
    """A sample count above the size cap is refused before any sampling."""
    argv = ["verify", "--field", "gf:2", "--poly", "x+1", "--alpha", "1"]
    rc, out, err = _run(capsys, argv + ["--samples", "100000000"])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert len(err.encode()) < centra.cli.ERROR_LINE_BYTES
    assert "--samples" in err and f"size cap {SIZE_CAP}" in err
    for extra in (["--samples", "0"], []):
        rc, out, err = _run(capsys, argv + extra)
        assert rc == 0 and err == ""
        assert out.splitlines()[-1].startswith("result: pass")


@pytest.mark.parametrize("text", ["3 1 gf:3\n1\n1\n2\n",
                                  "1 3 gf:3\n1 1 2\n"],
                         ids=["tall", "wide"])
def test_oracle_nonsquare_input_exit_two(tmp_path, capsys, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    rc, out, err = _run(capsys, ["oracle", "--input", str(path)])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert "nonsquare" in err


def test_oracle_size_cap_exit_two(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(Matrix.identity(F3, 3)) + "\n")
    rc, out, err = _run(capsys, ["oracle", "--input", str(path),
                                 "--max-n", "2"])
    assert rc == 2
    assert "error:" in err


def test_first_kind_flag(capsys):
    rc, out, _ = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                               "x^2+1", "--alpha", "2,1", "--kind", "first",
                               "--seed", "1"])
    assert rc == 0
    assert "PASS dn_commute" in out
    assert out.splitlines()[-1] == "result: pass (17 properties)"


@pytest.mark.parametrize("argv,needle", [
    (["bogus"], "invalid choice"),
    (["verify", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1",
      "--samples", "abc"], "--samples"),
    ([], "required"),
    (["jordan", "--no-such-flag"], "--no-such-flag"),
    (["oracle", "--format", "xml"], "--format"),
])
def test_argparse_errors_are_one_line(capsys, argv, needle):
    rc, out, err = _run(capsys, argv)
    assert out == ""
    _assert_one_line_error(rc, err)
    assert needle in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


def test_parser_is_built_once_and_not_at_import():
    code = ("import centra.cli as c; print(c._build_parser.cache_info()"
            ".currsize); print(c._build_parser() is c._build_parser())")
    src = str(Path(centra.cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["0", "True"]


def test_cli_import_loads_no_dataclasses():
    """The package's records are NamedTuples: no dataclasses, no inspect."""
    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
    code = f"import sys, centra.cli; print(set({heavy}) & set(sys.modules))"
    src = str(Path(centra.cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "set()\n"
