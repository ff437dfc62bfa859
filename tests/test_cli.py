"""End-to-end command line behavior, run in process through main()."""

import json

import pytest

import centra.cli
from centra import (
    Matrix,
    Poly,
    jordan_form,
    make_spec,
    matrix_from_json_obj,
    matrix_to_text,
    prime_field,
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


@pytest.mark.parametrize("data", [
    b'{"rows": 2, "cols": ',
    b'{"rows": 1, "cols": 1, "field": "gf:3", "entries": 5}',
    b'{"rows": 1, "cols": 1, "field": "gf:3", "entries": [5]}',
    b'{"rows": "1", "cols": 1, "field": "gf:3", "entries": [[5]]}',
    b'{"rows": 1, "cols": 1.0, "field": "gf:3", "entries": [[5]]}',
    b"\xff\xfe 1 1 gf:3",
])
def test_bad_input_file_exit_two(tmp_path, capsys, data):
    path = tmp_path / "m.json"
    path.write_bytes(data)
    rc, out, err = _run(capsys, ["oracle", "--input", str(path)])
    assert out == ""
    _assert_one_line_error(rc, err)


@pytest.mark.parametrize("argv", [
    ["dim", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1",
     "--oracle"],
    ["verify", "--field", "gf:3", "--poly", "x^2+1", "--alpha", "2,1"],
])
def test_bad_max_n_env_exit_two(monkeypatch, capsys, argv):
    monkeypatch.setenv("CENTRA_MAX_N", "abc")
    rc, out, err = _run(capsys, argv)
    assert out == ""
    _assert_one_line_error(rc, err)
    assert "CENTRA_MAX_N" in err


def test_negative_samples_exit_two(capsys):
    rc, out, err = _run(capsys, ["verify", "--field", "gf:3", "--poly",
                                 "x^2+1", "--alpha", "2,1", "--samples",
                                 "-3"])
    assert out == ""
    _assert_one_line_error(rc, err)
    assert "--samples" in err


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
