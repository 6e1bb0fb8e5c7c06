import json
import subprocess
import sys

import pytest

from lenumbers.cli import main

BN0_ARGS = ["-f", "(x^2-z^2+y^2)*(x-z)", "--vars", "x,y,z"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_compute_le_identity(capsys):
    code, out, _ = run(capsys, "compute", "le", *BN0_ARGS, "--frame", "identity")
    assert code == 0
    assert "s = 1" in out
    assert "lambda^0 = 2" in out
    assert "lambda^1 = 3" in out
    assert "gamma^1 = 1" in out
    assert "slice cross-check: passed" in out


def test_compute_le_json_envelope(capsys):
    code, obj, _ = run_json(
        capsys, "compute", "le", *BN0_ARGS, "--frame", "identity"
    )
    assert code == 0
    assert list(obj) == ["input", "frame", "le", "sectional", "checks", "version", "values"]
    assert obj["input"]["vars"] == ["x", "y", "z"]
    assert obj["le"] == {
        "s": 1,
        "lambda": [2, 3],
        "gamma": [1],
        "defined": [True, True],
    }
    assert obj["frame"]["matrix"][0] == ["1", "0", "0"]
    assert obj["checks"] == []
    assert obj["values"]["slice_check"] is True


def test_compute_le_undefined_frame_is_exit_2(capsys):
    code, obj, _ = run_json(
        capsys, "compute", "le", "-f", "y^2+z^2", "--vars", "x,y,z",
        "--frame", "identity",
    )
    assert code == 2
    assert obj["le"]["defined"][0] is False


def test_compute_milnor(capsys):
    code, out, _ = run(capsys, "compute", "milnor", "-f", "x^2+y^2", "--vars", "x,y")
    assert code == 0
    assert "mu = 1" in out
    code, out, _ = run(capsys, "compute", "milnor", *BN0_ARGS)
    assert code == 2
    assert "undefined" in out


def test_compute_sectional(capsys):
    code, out, _ = run(
        capsys, "compute", "sectional", "-f", "y^3-x^4-t^2*x^2",
        "--vars", "t,x,y", "-k", "2", "--seed", "7",
    )
    assert code == 0
    assert "mu[2] = 6" in out
    code, obj, _ = run_json(
        capsys, "compute", "sectional", *BN0_ARGS, "--seed", "0"
    )
    assert code == 0
    assert obj["sectional"] == [1, 2, 4, None]
    code, _, _ = run(capsys, "compute", "sectional", *BN0_ARGS, "-k", "3")
    assert code == 2
    code, _, err = run(capsys, "compute", "sectional", *BN0_ARGS, "-k", "9")
    assert code == 1
    assert "error:" in err


def test_compute_mult_and_polar(capsys):
    code, out, _ = run(capsys, "compute", "mult", *BN0_ARGS)
    assert code == 0
    assert "mult = 3" in out
    code, out, _ = run(capsys, "compute", "polar", *BN0_ARGS, "--frame", "identity")
    assert code == 0
    assert "mult Gamma^1 = 1" in out
    assert "mult Gamma^2 = 2" in out


def test_check_funbound_json(capsys):
    code, obj, _ = run_json(capsys, "check", "funbound", *BN0_ARGS, "--seed", "0")
    assert code == 0
    (c,) = obj["checks"]
    assert c == {
        "name": "funbound",
        "lhs": "8",
        "rhs": "8",
        "holds": True,
        "equality": True,
    }


def test_check_skip_exits_2(capsys):
    code, out, _ = run(capsys, "check", "dagger", "-f", "y^2+z^2", "--vars", "x,y,z")
    assert code == 2
    assert "skipped" in out


def test_check_leiom_flags(capsys):
    code, obj, _ = run_json(
        capsys, "check", "leiom", *BN0_ARGS, "-m", "9", "--seed", "0"
    )
    assert code == 0
    names = [c["name"] for c in obj["checks"]]
    assert "leiom-bound" in names
    assert "leiom-equality" in names


def test_check_mainone_text(capsys):
    code, out, _ = run(capsys, "check", "mainone", *BN0_ARGS, "--seed", "0")
    assert code == 0
    assert "lhs = 11/4, rhs = 2, holds" in out


def test_teissier_skips_draws_on_the_tangent_cone(capsys):
    # both round-0 lines restrict the shear germ to -x^3: each is the
    # tangent line y = -x, where the section's multiplicity exceeds 2
    code, out, _ = run(
        capsys, "check", "teissier", "-f", "x^2+2*x*y+y^2+y^3", "--vars", "x,y",
        "--seed", "1821",
    )
    assert code == 0
    assert out == "teissier: lhs = 2, rhs = 1, holds\n  profile=(1, 1, 2)\n"


def test_unknown_checker_is_input_error(capsys):
    code, _, err = run(capsys, "check", "nope", *BN0_ARGS)
    assert code == 1
    assert "invalid choice" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "compute", "mult", "-f", "x^2 + @", "--vars", "x,y")
    assert code == 1
    assert "error:" in err and "6" in err


@pytest.mark.parametrize(
    "text, where",
    [("x^2+1/0*y", "zero denominator at position 6"), ("(x", "')' at position 2")],
)
def test_parse_error_names_the_position(capsys, text, where):
    code, out, err = run(capsys, "compute", "milnor", "-f", text, "--vars", "x,y")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and where in err
    assert "Traceback" not in err


def test_deep_nesting_is_bad_input_not_undefined(capsys):
    text = "(" * 600 + "x" + ")" * 600 + "^2+y^2"
    code, _, err = run(capsys, "compute", "milnor", "-f", text, "--vars", "x,y")
    assert code == 1
    assert err.startswith("error:") and "nested too deeply" in err


def test_milnor_number_with_a_large_exponent(capsys):
    # x^(k+1)*y + y^3 has mu = 3k + 1
    code, out, _ = run(capsys, "compute", "milnor", "-f", "x^1201*y+y^3", "--vars", "x,y")
    assert (code, out) == (0, "mu = 3601\n")


def test_bad_variable_list(capsys):
    code, _, err = run(capsys, "compute", "mult", "-f", "x", "--vars", "x,x")
    assert code == 1
    assert "repeated" in err


def test_suspension_shape_error_is_exit_1(capsys):
    code, _, err = run(
        capsys, "check", "suspension", "-f", "x^2+y^2+z^2", "--vars", "x,y,z"
    )
    assert code == 1
    assert "not a suspension" in err


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("LENUMBERS_SEED", "11")
    code, obj, _ = run_json(capsys, "compute", "milnor", "-f", "x^2+y^3", "--vars", "x,y")
    assert code == 0
    assert obj["frame"]["seed"] == 11
    code, obj, _ = run_json(
        capsys, "compute", "milnor", "-f", "x^2+y^3", "--vars", "x,y", "--seed", "5"
    )
    assert obj["frame"]["seed"] == 5
    monkeypatch.setenv("LENUMBERS_SEED", "oops")
    code, _, err = run(capsys, "compute", "milnor", "-f", "x^2+y^3", "--vars", "x,y")
    assert code == 1
    assert "LENUMBERS_SEED" in err


def test_entropy_seed_is_reported(capsys):
    code, obj, _ = run_json(
        capsys, "compute", "milnor", "-f", "x^2+y^3", "--vars", "x,y", "--entropy"
    )
    assert code == 0
    assert isinstance(obj["frame"]["seed"], int)


def test_frame_file(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    code, obj, _ = run_json(capsys, "compute", "le", *BN0_ARGS, "--frame", str(path))
    assert code == 0
    assert obj["le"]["lambda"] == [2, 3]
    # a bare row list works too
    path.write_text(json.dumps([["0", "1"], ["1", "0"]]))
    code, obj, _ = run_json(
        capsys, "compute", "le", "-f", "x^2*y^2", "--vars", "x,y", "--frame", str(path)
    )
    assert code == 0 or code == 2


def test_frame_file_errors(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text("not json")
    code, _, err = run(capsys, "compute", "le", *BN0_ARGS, "--frame", str(path))
    assert code == 1
    assert "frame file" in err
    path.write_text(json.dumps([["1", "0"], ["2", "0"]]))
    code, _, err = run(
        capsys, "compute", "le", "-f", "x^2*y^2", "--vars", "x,y", "--frame", str(path)
    )
    assert code == 1
    code, _, err = run(capsys, "compute", "le", *BN0_ARGS, "--frame", str(tmp_path / "no.json"))
    assert code == 1


def test_out_flag_writes_json(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "check", "funbound", *BN0_ARGS, "--seed", "0", "--out", str(dest)
    )
    assert code == 0
    assert "holds" in out  # text still goes to stdout
    obj = json.loads(dest.read_text())
    assert obj["checks"][0]["lhs"] == "8"


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "check", "funbound", *BN0_ARGS, "--seed", "3", "--json")
    _, second, _ = run(capsys, "check", "funbound", *BN0_ARGS, "--seed", "3", "--json")
    assert first == second


def family_file(tmp_path, *lines):
    path = tmp_path / "family.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_search_family(tmp_path, capsys):
    fam = family_file(
        tmp_path,
        json.dumps(
            {
                "template": "(x^2 - z^2 + y^2)*(x - c*z)",
                "params": {"c": [1]},
                "vars": ["x", "y", "z"],
            }
        ),
        json.dumps({"template": "x^2 + y^2 + c*x", "params": {"c": [1]}}),
    )
    code, out, _ = run(capsys, "search", "dagger", "--family", fam, "--seed", "0")
    assert code == 0
    assert "instances = 2" in out
    assert "counterexamples = 0" in out
    assert "margin 0" in out
    assert "skipped (not singular at the origin)" in out


def test_search_family_json(tmp_path, capsys):
    fam = family_file(
        tmp_path, json.dumps({"template": "x^a + y^3", "params": {"a": [2, 3]}})
    )
    code, obj, _ = run_json(capsys, "search", "dagger", "--family", fam)
    assert code == 0
    assert obj["search"]["instances"] == 2
    assert obj["search"]["counterexamples"] == []
    assert all(r["skipped"] for r in obj["search"]["reports"])


def test_search_family_errors(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "dagger", "--family", str(tmp_path / "missing.jsonl")
    )
    assert code == 1
    fam = family_file(tmp_path, "{broken")
    code, _, err = run(capsys, "search", "dagger", "--family", fam)
    assert code == 1
    assert "line 1" in err
    fam = family_file(tmp_path, json.dumps({"template": "x^a", "params": {"a": "no"}}))
    code, _, err = run(capsys, "search", "dagger", "--family", fam)
    assert code == 1
    fam = family_file(tmp_path, "")
    code, out, _ = run(capsys, "search", "dagger", "--family", fam)
    assert code == 0
    assert "instances = 0" in out


@pytest.mark.parametrize(
    "entry",
    [
        {"template": "x^2+y^a", "params": {"a": [3]}, "vars": 5},
        {"template": "x^2+y^a", "params": {"a": [3]}, "vars": [1, 2]},
        {"template": "x^2+y^a", "params": {"a": [3]}, "vars": "xy"},
        {"template": "x^2+y^a", "params": {"a": [True]}},
    ],
)
def test_search_rejects_malformed_vars_and_params(tmp_path, capsys, entry):
    fam = family_file(tmp_path, json.dumps(entry))
    code, out, err = run(capsys, "search", "dagger", "--family", fam)
    assert code == 1
    assert out == ""
    assert err.startswith("error: family file line 1")
    assert "Traceback" not in err


def test_search_limit_via_trials(tmp_path, capsys):
    fam = family_file(
        tmp_path, json.dumps({"template": "x^a + y^3", "params": {"a": [2, 3, 4, 5]}})
    )
    code, obj, _ = run_json(capsys, "search", "dagger", "--family", fam, "--trials", "2")
    assert obj["search"]["instances"] == 2


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_bound_below_one_is_input_error(tmp_path, capsys, bound):
    fam = family_file(tmp_path, json.dumps({"template": "x^a + y^3", "params": {"a": [2]}}))
    for argv in (
        ["compute", "le", "-f", "x^2+y^3", "--vars", "x,y"],
        ["check", "funbound", "-f", "x^2+y^3", "--vars", "x,y"],
        ["search", "dagger", "--family", fam],
    ):
        code, _, err = run(capsys, *argv, "--bound", bound)
        assert code == 1, argv
        assert "--bound" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "funbound", "-f", "x^2+y^3", "--vars", "x,y"],
        ["check", "mainmany", *BN0_ARGS, "--frame", "identity"],
        ["compute", "le", "-f", "x^2+y^3", "--vars", "x,y"],
        ["search", "dagger", "--family", "{family}"],
    ],
)
def test_trials_below_one_is_input_error(tmp_path, capsys, argv, trials):
    fam = family_file(tmp_path, json.dumps({"template": "x^a + y^3", "params": {"a": [2]}}))
    argv = [fam if a == "{family}" else a for a in argv]
    code, out, err = run(capsys, *argv, "--trials", trials)
    assert code == 1
    assert out == ""
    assert "error: --trials must be at least 1" in err


@pytest.mark.parametrize("poly", ["x+1", "x^2+y"])
def test_check_rejects_input_not_singular_at_the_origin(capsys, poly):
    code, out, err = run(capsys, "check", "funbound", "-f", poly, "--vars", "x,y")
    assert code == 1
    assert "error:" in err and out == ""


def test_compute_le_reports_the_validators_reason(capsys):
    code, out, err = run(capsys, "compute", "le", "-f", "0", "--vars", "x,y")
    assert (code, out) == (1, "")
    assert err == "error: f must be nonzero\n"


def test_package_runs_as_a_module():
    # python -m lenumbers is the same command line as lenumbers.cli
    argv = ["compute", "milnor", "-f", "x^2+y^3", "--vars", "x,y"]
    runs = [
        subprocess.run([sys.executable, "-m", mod, *argv], capture_output=True, text=True)
        for mod in ("lenumbers", "lenumbers.cli")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout == "mu = 2\n"
    bad = subprocess.run(
        [sys.executable, "-m", "lenumbers", "compute", "milnor", "-f", "x^", "--vars", "x"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1 and "error:" in bad.stderr
