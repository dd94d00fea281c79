"""End-to-end command-line behavior: output schemas, exit codes and
determinism of repeated runs."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gmfkit import jet_core
from gmfkit.cli import _COMMANDS, _SERIES, _plain_args, build_parser, main
from gmfkit.family_analysis import check_family_axioms, family_from_json_dict

NORMAL_FORM_3D = {
    "dim": 3,
    "constant": 0.0,
    "linear": [0.0, 0.0, 0.0],
    "quadratic": [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
    "cubic": [{"idx": [1, 1, 1], "coeff": 1.0}],
}

ZERO_JET_1D = {
    "dim": 1,
    "constant": 0.0,
    "linear": [0.0],
    "quadratic": [0.0],
    "cubic": [],
}

REGULAR_2D = {
    "dim": 2,
    "constant": 0.0,
    "linear": [1.0, 0.0],
    "quadratic": [1.0, 0.0, 0.0, -1.0],
    "cubic": [],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# classify-jet


def test_classify_jet_birth_death(tmp_path, capsys):
    path = _write(tmp_path, "jet.json", NORMAL_FORM_3D)
    assert main(["classify-jet", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "BirthDeath"
    assert out["index"] == 1
    assert out["split"] == {"neg": 1, "zero": 1, "pos": 1}
    assert out["dim"] == 3
    assert "reason" not in out  # null fields are stripped


def test_classify_jet_degenerate_and_regular(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", ZERO_JET_1D)
    assert main(["classify-jet", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "Degenerate"
    assert out["reason"] == "KernelCubicVanishes"
    assert "index" not in out

    path = _write(tmp_path, "reg.json", REGULAR_2D)
    assert main(["classify-jet", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "Regular"
    assert "index" not in out and "reason" not in out


def test_classify_jet_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(NORMAL_FORM_3D)))
    assert main(["classify-jet", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "BirthDeath"


def test_classify_jet_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json", encoding="utf-8")
    assert main(["classify-jet", "--input", str(bad)]) == 2

    missing = dict(NORMAL_FORM_3D)
    del missing["linear"]
    assert main(["classify-jet", "--input", _write(tmp_path, "m.json", missing)]) == 2

    # declared dim 3 but a 2-vector linear part: dimension inconsistency
    short = dict(NORMAL_FORM_3D, linear=[0.0, 0.0])
    assert main(["classify-jet", "--input", _write(tmp_path, "s.json", short)]) == 3

    assert main(["classify-jet", "--input", str(tmp_path / "nope.json")]) == 2

    # non-finite coefficients are malformed input, never classified
    for bad in (float("inf"), float("nan")):
        quad = dict(ZERO_JET_1D, quadratic=[bad])
        assert main(["classify-jet", "--input", _write(tmp_path, "q.json", quad)]) == 2
        cubic = dict(ZERO_JET_1D, cubic=[{"idx": [1, 1, 1], "coeff": bad}])
        assert main(["classify-jet", "--input", _write(tmp_path, "c.json", cubic)]) == 2
    # a non-finite or negative tolerance is malformed too, not a classification
    weak = _write(tmp_path, "w.json", dict(REGULAR_2D, linear=[0.5, 0.0]))
    for tol in ("nan", "inf", "-inf", "-1"):
        assert main(["classify-jet", "--input", weak, f"--tol={tol}"]) == 2
    assert capsys.readouterr().out == ""


_DEEP = "[" * 100_000  # nested past the decoder's recursion limit


@pytest.mark.parametrize("command", [["classify-jet", "--input"],
                                     ["trace-family", "--t0", "-1", "--t1", "1", "--family"]],
                         ids=["classify-jet", "trace-family"])
def test_deeply_nested_json_is_malformed(tmp_path, capsys, command):
    """JSON nested too deeply to decode is malformed input: exit 2 and one
    error line, not a RecursionError traceback."""
    path = tmp_path / "deep.json"
    path.write_text(_DEEP, encoding="utf-8")
    assert main([*command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: malformed JSON: ") and err.count("\n") == 1, err


def test_deeply_nested_jsonl_line_is_its_own_error(tmp_path, capsys):
    """Under --jsonl a line nested too deeply is one malformed line (code 2),
    and the jets after it are still classified."""
    good = json.dumps(ZERO_JET_1D)
    path = tmp_path / "deep.jsonl"
    path.write_text(f"{good}\n{_DEEP}\n{good}\n", encoding="utf-8")
    assert main(["classify-jet", "--jsonl", "--input", str(path)]) == 2
    first, deep, last = map(json.loads, capsys.readouterr().out.splitlines())
    assert first == last and "class" in first
    assert deep["line"] == 2 and deep["code"] == 2 and deep["error"].startswith("malformed JSON: ")


def test_recursion_error_past_the_decode_is_not_malformed_input(tmp_path, monkeypatch):
    """Only the decode's RecursionError reads as malformed JSON: one raised
    by gmfkit's own code past it is not caught."""
    def deep(data):
        raise RecursionError("gmfkit's own")

    monkeypatch.setattr(jet_core, "jet_from_json_dict", deep)
    path = _write(tmp_path, "jet.json", ZERO_JET_1D)
    for args in (["--input", path], ["--jsonl", "--input", path]):
        with pytest.raises(RecursionError, match="gmfkit's own"):
            main(["classify-jet", *args])


# per jet field, coefficients that are not JSON numbers, and an integer too
# large for a float
_NOT_NUMBERS = {
    "constant": [dict(ZERO_JET_1D, constant=v) for v in ("0", True, 10 ** 400)],
    "linear": [dict(ZERO_JET_1D, linear=[True]), dict(ZERO_JET_1D, linear=["0"]),
               dict(REGULAR_2D, linear="00")],
    "quadratic": [dict(ZERO_JET_1D, quadratic=v) for v in (["1e0"], [False], "1")],
    "cubic": [dict(ZERO_JET_1D, cubic=[{"idx": [1, 1, 1], "coeff": v}])
              for v in ("2", True, 10 ** 400)],
}


@pytest.mark.parametrize("field", list(_NOT_NUMBERS))
def test_classify_jet_coefficients_must_be_json_numbers(tmp_path, capsys, field):
    """A coefficient that is a string or true/false is malformed (exit 2),
    never converted and classified; so is an integer too large for a float."""
    for i, jet in enumerate(_NOT_NUMBERS[field]):
        assert main(["classify-jet", "--input", _write(tmp_path, f"{i}.json", jet)]) == 2, jet
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1, err


# ---------------------------------------------------------------------------
# trace-family


@pytest.mark.parametrize("coeff", ["1", True, 10 ** 400], ids=["string", "true", "int-too-large"])
def test_trace_family_coefficients_must_be_json_numbers(tmp_path, capsys, coeff):
    family = {"param_dim": 1, "fiber_dim": 1,
              "terms": [{"powers": [0, 3], "coeff": coeff}, {"powers": [1, 1], "coeff": -1.0}]}
    path = _write(tmp_path, "family.json", family)
    assert main(["trace-family", "--family", path, "--t0", "-1", "--t1", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1, err


@pytest.mark.parametrize("args", [
    ["--preset", "cusp", "--t0=-1e308", "--t1=1e308"],
    ["--preset", "suspended-cusp-40", "--t0", "-1", "--t1", "1"],
    ["--preset", "cusp", "--t0", "-1", "--t1", "1", "--steps", "1000000000"],
], ids=["window-too-wide", "suspended-cusp-40", "steps-1e9"])
def test_trace_family_refusal_is_one_error_line(args):
    """A window whose width overflows and a seed batch over MAX_SEED_ROWS
    exit 2 with one `error:` line and nothing else on stderr, such as a
    numpy warning; the batch is refused before anything of its size is made."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "gmfkit.cli", "trace-family", *args],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("digits", [4000, 5000])
def test_trace_family_oversized_preset_name_is_refused_unread(capsys, digits):
    """A suspended-cusp-i name with thousands of digits is refused from its
    digit string: one short error line that names the limit, not the
    number, and no int() conversion error."""
    assert main(["trace-family", "--preset", "suspended-cusp-" + "9" * digits,
                 "--t0", "-1", "--t1", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and err.count("\n") == 1, err[:300]
    assert len(err) < 200 and "set_int_max_str_digits" not in err, err[:300]
    assert "i <= 13" in err


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]


def test_trace_family_cusp(capsys):
    assert main(["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1"]) == 0
    out = capsys.readouterr().out
    header, rows = _csv_rows(out)
    assert header == "t_star,x_star_1,index,det_hessian"
    assert len(rows) == 1
    t_star, x_star, index, det_h = rows[0].split(",")
    assert abs(float(t_star)) <= 1e-8
    assert abs(float(x_star)) <= 1e-6
    assert index == "0"
    assert abs(float(det_h)) <= 1e-4
    assert "# events=1 degenerate=0" in out
    assert "axiom_gmf=Pass" in out


CUBIC_PAIR_037 = {
    # x^3 + (t^2 - a^2) x - y^2 + z^2 at a = 0.37: folds at t = +-0.37, x = 0
    "param_dim": 1,
    "fiber_dim": 3,
    "terms": [
        {"powers": [0, 3, 0, 0], "coeff": 1.0},
        {"powers": [2, 1, 0, 0], "coeff": 1.0},
        {"powers": [0, 1, 0, 0], "coeff": -0.37 * 0.37},
        {"powers": [0, 0, 2, 0], "coeff": -1.0},
        {"powers": [0, 0, 0, 2], "coeff": 1.0},
    ],
}

_TRACE_FOOTER = "window=[-1,1] steps=41\n"


@pytest.mark.parametrize("source, expected", [
    (["--preset", "cusp"],
     "t_star,x_star_1,index,det_hessian\n"
     "0,0,0,0\n"
     "# events=1 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER),
    (["--preset", "suspended-cusp-0"],
     "t_star,x_star_1,x_star_2,index,det_hessian\n"
     "0,0,0,0,0\n"
     "# events=1 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER),
    (["--preset", "suspended-cusp-1"],
     "t_star,x_star_1,x_star_2,x_star_3,index,det_hessian\n"
     "0,0,0,0,1,0\n"
     "# events=1 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER),
    (["--preset", "suspended-cusp-2"],
     "t_star,x_star_1,x_star_2,x_star_3,x_star_4,index,det_hessian\n"
     "0,0,0,0,0,2,0\n"
     "# events=1 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER),
    (["--family", "cubic-pair.json"],
     "t_star,x_star_1,x_star_2,x_star_3,index,det_hessian\n"
     "-0.37,0,0,0,1,0\n"
     "0.37,0,0,0,1,0\n"
     "# events=2 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER),
])
def test_trace_family_output_is_frozen(tmp_path, capsys, source, expected):
    """Exact output of trace-family; every printed field is exactly 0 or
    +-0.37, so the text does not depend on the platform's last bits."""
    if source[0] == "--family":
        source = ["--family", _write(tmp_path, source[1], CUBIC_PAIR_037)]
    assert main(["trace-family", *source, "--t0", "-1", "--t1", "1"]) == 0
    assert capsys.readouterr().out == expected


def test_trace_family_swallowtail_fails_axiom(capsys):
    assert main(["trace-family", "--preset", "swallowtail",
                 "--t0", "-1", "--t1", "1"]) == 1
    out = capsys.readouterr().out
    _, rows = _csv_rows(out)
    assert rows == []  # degenerate points are flags, not event rows
    assert "reason=KernelCubicVanishes" in out
    assert "axiom_gmf=Fail" in out


def test_trace_family_off_grid_swallowtail_is_flagged(capsys):
    """On 40 grid values t = 0 is off the grid, so the swallowtail's
    degenerate point is reached only through the interior-minimum candidate
    and the fold polish.  The flag's point is checked against 0, not by its
    printed digits, which depend on the last bits."""
    assert main(["trace-family", "--preset", "swallowtail",
                 "--t0", "-1", "--t1", "1", "--steps", "40"]) == 1
    out = capsys.readouterr().out
    _, rows = _csv_rows(out)
    flags = [line.split() for line in out.splitlines() if line.startswith("# degenerate ")]
    assert rows == [] and len(flags) == 1
    _, _, t, x, reason = flags[0]
    assert reason == "reason=KernelCubicVanishes"
    assert abs(float(t.removeprefix("t="))) < 1e-9
    assert abs(float(x.removeprefix("x=(").removesuffix(")"))) < 1e-9
    assert out.endswith("# events=0 degenerate=1 warnings=0 axiom_gmf=Fail "
                        "window=[-1,1] steps=40\n")


def test_trace_family_degenerate_sample_fails_axiom(tmp_path, capsys):
    """f = -0.14 + 0.78 t x is constant at the grid value t = 0, so every
    critical point found there is degenerate, though no fold is located:
    axiom_gmf follows check_family_axioms and fails, and the output names
    each failing sampled point on a `# failing sample` line.  The count
    changes around t = 0 give no "fold not located" warning: their sample
    points are those failing samples."""
    family = {"param_dim": 1, "fiber_dim": 1,
              "terms": [{"powers": [0, 0], "coeff": -0.14}, {"powers": [1, 1], "coeff": 0.78}]}
    path = _write(tmp_path, "family.json", family)
    assert main(["trace-family", "--family", path,
                 "--t0", "-1", "--t1", "1", "--steps", "11"]) == 1
    out = capsys.readouterr().out
    assert "# degenerate" not in out
    assert out.endswith("# events=0 degenerate=0 warnings=0 axiom_gmf=Fail "
                        "window=[-1,1] steps=11\n")
    report = check_family_axioms(family_from_json_dict(family), -1.0, 1.0, steps=11)
    assert report.verdict("gmf") == "Fail"
    assert len(report.degenerate) == 8 and {f.t for f in report.degenerate} == {0.0}
    named = [line for line in out.splitlines() if line.startswith("# failing sample ")]
    assert named == [f"# failing sample t=0 x=({format(f.x[0], '.17g')}) reason={f.reason}"
                     for f in report.degenerate]
    assert out.splitlines()[1:-1] == named  # after the header, before the summary


@pytest.mark.parametrize("box, terms, steps, code, summary", [
    (box, None, "41", 0, "# events=0 degenerate=0 warnings=0 axiom_gmf=Pass " + _TRACE_FOOTER)
    for box in ("1e80", "5e102", "1e150")
] + [
    # f = 1.06 t x^4 - 1.41 t x^3 vanishes at the grid value t = 0, where
    # every seed converges on the spot and has a jet too large for a float
    ("1e97", {(1, 4): 1.06, (1, 3): -1.41}, "5", 0,
     "# events=0 degenerate=0 warnings=0 axiom_gmf=Pass window=[-1,1] steps=5\n"),
    # f = -1.11 t x - 0.77 t x^4 vanishes at t = 0 too, where its critical
    # points lie too far apart to square their distance, and are degenerate
    # samples, named as such rather than as unlocated folds
    ("1e69", {(1, 1): -1.11, (1, 4): -0.77}, "5", 1,
     "# events=0 degenerate=0 warnings=0 axiom_gmf=Fail window=[-1,1] steps=5\n"),
], ids=["1e80", "5e102", "1e150", "tx4-tx3-1e97", "tx-tx4-1e69"])
def test_trace_family_huge_box_exits_cleanly(tmp_path, capsys, box, terms, steps, code,
                                             summary):
    """Seeds so far out that their powers overflow end their Newton runs, a
    distance too large for a float reads as distinct, and a point whose jet
    overflows is dropped: no warning, no traceback, and the ordinary
    summary with exit 0 or 1."""
    if terms is None:
        source = ["--preset", "swallowtail"]
    else:
        family = {"param_dim": 1, "fiber_dim": 1,
                  "terms": [{"powers": list(p), "coeff": c} for p, c in terms.items()]}
        source = ["--family", _write(tmp_path, "family.json", family)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(["trace-family", *source, "--t0", "-1", "--t1", "1",
                    "--steps", steps, "--box", box])
    out, err = capsys.readouterr()
    assert (got, err) == (code, "")
    assert out.endswith(summary)
    assert main(["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1",
                 "--box", "1e308"]) == 2
    assert capsys.readouterr().err.startswith("error: box must be")


def test_trace_family_from_json_file(tmp_path, capsys):
    family = {
        "param_dim": 1,
        "fiber_dim": 1,
        "terms": [
            {"powers": [0, 3], "coeff": 1.0},
            {"powers": [1, 1], "coeff": -1.0},
            {"powers": [0, 1], "coeff": 0.5},
        ],
    }
    path = _write(tmp_path, "family.json", family)
    assert main(["trace-family", "--family", path, "--t0", "-1", "--t1", "1"]) == 0
    _, rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0].split(",")[0]) == pytest.approx(0.5, abs=1e-8)


def test_trace_family_error_exits(tmp_path, capsys):
    for name in ("no-such", "suspended-cusp--1", "suspended-cusp-+1", "suspended-cusp-01",
                 "suspended-cusp-", "suspended-cusp-1 ", "suspended-cusp-\u0661"):
        assert main(["trace-family", "--preset", name, "--t0", "-1", "--t1", "1"]) == 2
    assert main(["trace-family", "--preset", "cusp", "--t0", "1", "--t1", "-1"]) == 2
    assert main(["trace-family", "--preset", "cusp",
                 "--t0", "-1", "--t1", "1", "--steps", "1"]) == 2
    bad = tmp_path / "fam.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["trace-family", "--family", str(bad), "--t0", "-1", "--t1", "1"]) == 2
    nan_family = {"param_dim": 1, "fiber_dim": 1,
                  "terms": [{"powers": [0, 3], "coeff": 1.0},
                            {"powers": [1, 1], "coeff": float("nan")}]}
    path = _write(tmp_path, "nan.json", nan_family)
    assert main(["trace-family", "--family", path, "--t0", "-1", "--t1", "1"]) == 2
    for window in (["--t0=-1", "--t1", "nan"], ["--t0=-inf", "--t1", "1"]):
        assert main(["trace-family", "--preset", "swallowtail", *window]) == 2
    for box in ("inf", "nan"):
        assert main(["trace-family", "--preset", "cusp",
                     "--t0", "-1", "--t1", "1", "--box", box]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# series


def test_series_bo(capsys):
    assert main(["series", "--object", "bo", "--d", "2", "--max-degree", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coefficients"] == [1, 1, 2, 2, 3]
    assert out["min_degree"] == 0
    assert out["truncation"] == 4
    assert out["provenance"] == "exact"


def test_series_mt_has_negative_degrees(capsys):
    assert main(["series", "--object", "mt", "--d", "1", "--max-degree", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["min_degree"] == -1
    assert out["coefficients"] == [1] * 7
    assert out["derivation"]


def test_series_sigma_gmf_d1(capsys):
    assert main(["series", "--object", "sigma-gmf", "--d", "1", "--max-degree", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["coefficients"] == [1] * 7


def test_series_mtgmf_carries_bounds(capsys):
    assert main(["series", "--object", "mtgmf", "--d", "1", "--max-degree", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["provenance"] == "split-assumption"
    assert out["bounds_min_degree"] == -1
    assert out["lower"] == out["upper"] == out["coefficients"]
    assert out["assumptions"]


def test_series_grassmann(capsys):
    assert main(["series", "--object", "grassmann", "--d", "2", "--max-degree", "4"]) == 2
    assert main(["series", "--object", "grassmann", "--d", "2", "--n", "2",
                 "--max-degree", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2
    assert out["coefficients"] == [1, 1, 2, 1, 1]


def test_series_env_truncation(capsys):
    """A negative --max-degree is malformed input."""
    for argv in (["series", "--object", "bo", "--d", "2"],
                 ["series", "--object", "sigma-gmf", "--d", "2"],
                 ["verify", "--check", "gysin"],
                 ["verify", "--check", "all", "--d", "2"]):
        assert main(argv + ["--max-degree", "-1"]) == 2
    capsys.readouterr()


def test_series_unknown_object_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--object", "bu", "--d", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def _parse(parser, argv):
    """(exit code or the parsed namespace, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["-h", "verify"],
    ["classify-jet", "-h"], ["trace-family", "-h"], ["series", "-h"], ["verify", "--help"],
    ["bogus"], ["verif", "--check", "all"],
    ["series", "--object", "nope", "--d", "2"], ["verify", "--check", "nope"],
    ["verify", "--check", "all", "--structure", "spin"], ["series", "--object", "bo", "--d", "x"],
    ["series", "--d", "2"], ["classify-jet"], ["verify"], ["trace-family", "--t0", "0", "--t1", "1"],
    ["trace-family", "--family", "f.json", "--preset", "cusp", "--t0", "0", "--t1", "1"],
    ["verify", "--check", "all", "--bogus"], ["--bogus", "verify", "--check", "all"],
    ["verify", "--check", "all", "extra"],
    ["verify", "--check", "all", "--d", "5"], ["series", "--object", "bo", "--d", "3"],
])
def test_one_command_parser_matches_the_full_tree(argv):
    """build_parser(argv) builds the named command's subparser alone: help,
    usage, errors, exit codes and parsed values are the full tree's."""
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


# values for a flag that argparse reads differently, or that its type refuses
_ODD_VALUES = ["-", "-1", "-.5", "-1e-3", "1e309", "nan", " 3", "", "1_000", "2.5"]


def _argv_corpus():
    """(argv, plain) from the option table: plain argv (plain True) in shuffled
    orders, each flag with odd values (plain None: _plain_args may take them or
    not), and argv that only argparse may parse (plain False)."""
    rng = random.Random(0)

    def tokens(flags):
        return [t for flag, value in flags for t in (flag, value) if t is not None]

    for command, (_, _, options, group) in _COMMANDS.items():
        def value(kw):
            if kw.get("action") == "store_true":
                return None
            return kw["choices"][-1] if "choices" in kw else {int: "3", float: "0.5"}.get(
                kw.get("type"), "x.json")
        full = {flag: value(kw) for flag, kw in options.items() if flag not in group[1:]}
        required = {flag: v for flag, v in full.items() if options[flag].get("required")}
        if group:
            required[group[0]] = full[group[0]]
        for _ in range(30):
            flags = list(full.items())
            flags = rng.sample(flags, rng.randint(len(required), len(flags)))
            flags = {**dict(flags), **required}
            if group and rng.random() < 0.5:  # the group's second flag in place of its first
                flags[group[1]] = flags.pop(group[0])
            flags = list(flags.items())
            rng.shuffle(flags)
            yield [command, *tokens(flags)], True
        for flag, kw in options.items():
            for choice in kw.get("choices", ()):
                yield [command, *tokens({**full, flag: choice}.items())], True
            for odd in _ODD_VALUES if value(kw) is not None else ():
                flags = list({**full, flag: odd}.items())
                rng.shuffle(flags)
                yield [command, *tokens(flags)], None
            if value(kw) is not None:
                yield [command, *tokens(full.items()), flag, value(kw)], False  # a duplicate
                yield [command, *tokens((f, v) for f, v in full.items() if f != flag),
                       f"{flag}={value(kw)}"], False
                for end in range(3, len(flag)):  # an abbreviation
                    yield [command, *tokens((f, v) for f, v in full.items() if f != flag),
                           flag[:end], value(kw)], False
            else:
                yield [command, *tokens(full.items()), flag], False
                yield [command, *tokens(full.items()), "x"], False
        for flag in required:
            yield [command, *tokens((f, v) for f, v in full.items() if f != flag)], False
        if group:
            yield [command, *tokens(full.items()), group[1], "cusp"], False
        argv = [command, *tokens(full.items())]
        for at in range(len(argv) + 1):
            yield argv[:at] + ["-h"] + argv[at:], False
            yield argv[:at] + ["--"] + argv[at:], False
    yield [], False
    yield ["bogus", "--check", "all"], False


def test_plain_argv_parses_as_argparse_does():
    """_plain_args accepts plain argv and otherwise returns None; what it
    accepts, argparse parses to the same values (compared by repr, as nan is
    unequal to itself)."""
    parser = build_parser()
    accepted = 0
    for argv, plain in _argv_corpus():
        fast = _plain_args(argv)
        assert plain is None or (fast is not None) == plain, argv
        if fast is None:
            continue
        result, out, err = _parse(parser, argv)
        assert isinstance(result, dict) and (out, err) == ("", ""), (argv, err)
        assert ({k: repr(v) for k, v in vars(fast).items()}
                == {k: repr(v) for k, v in result.items()}), argv
        accepted += 1
    assert accepted > 200


# ---------------------------------------------------------------------------
# verify


def test_verify_d1_oracle(capsys):
    assert main(["verify", "--check", "d1-oracle", "--max-degree", "16"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Pass"
    rec = out["records"][0]
    assert rec["check"] == "d1-oracle"
    assert rec["verdict"] == "Pass"
    assert rec["first_mismatch_degree"] is None
    assert rec["tolerances"] == "exact integer arithmetic"
    assert isinstance(rec["wall_time_s"], float)


def test_verify_all_passes_at_d2(capsys):
    assert main(["verify", "--check", "all", "--d", "2", "--max-degree", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["check"] for r in out["records"]] == [
        "gysin", "hocolim-cofiber", "connectivity", "d1-oracle",
        "sigma-mf-cofibration",
    ]
    assert all(r["verdict"] == "Pass" for r in out["records"])


def test_verify_builds_no_monomial_basis(monkeypatch, capsys):
    """verify reads the zigzag off the single-block tables alone: with every
    MonomialBasis construction refused, a cold run of all checks still passes."""
    from gmfkit import char_class_maps, graded_f2, moduli_calc

    def refuse(self, *args):
        raise AssertionError("MonomialBasis built")

    monkeypatch.setattr(graded_f2.MonomialBasis, "__init__", refuse)
    for cache in (char_class_maps._tables, moduli_calc._hocolim_std, moduli_calc._closed_form):
        cache.cache_clear()
    assert main(["verify", "--check", "all", "--d", "4", "--max-degree", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["records"]) == 5
    assert all(r["verdict"] == "Pass" for r in out["records"])


def test_verify_failing_check_exits_1(capsys):
    assert main(["verify", "--check", "gysin", "--d", "1",
                 "--structure", "so", "--max-degree", "12"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Fail"
    assert out["records"][0]["first_mismatch_degree"] == 1


def test_hocolim_commands_with_d_above_max_degree(capsys):
    assert main(["verify", "--check", "all", "--d", "4", "--max-degree", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r["verdict"] == "Pass" for r in out["records"])
    assert main(["series", "--object", "sigma-gmf", "--d", "4", "--max-degree", "3"]) == 0
    low = json.loads(capsys.readouterr().out)["coefficients"]
    assert main(["series", "--object", "sigma-gmf", "--d", "4", "--max-degree", "4"]) == 0
    high = json.loads(capsys.readouterr().out)["coefficients"]
    assert low == high[:4] == [1, 1, 5, 10]


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_every_object_and_check_matches_the_library(capsys):
    """Every --object and every --check at d=2, N=6 prints the library's
    values, with the JSON keys in the documented order."""
    from gmfkit import cli, graded_f2, moduli_calc as mc

    d, N = 2, 6

    def fields(s, provenance, **extra):
        return dict(min_degree=s.min_degree, coefficients=list(s.coeffs),
                    truncation=s.truncation, provenance=provenance, **extra)

    def thom(sp):
        return fields(sp.series, sp.provenance, derivation=list(sp.derivation))

    gmf = mc.mtgmf_series(d, N)
    objects = {
        "bo": fields(mc.series_BO(d, N), "exact"),
        "bso": fields(mc.series_BSO(d, N), "exact"),
        "grassmann": dict(n=3, **fields(graded_f2.series_grassmannian(d, 3, N), "exact")),
        "sigma-mf": fields(mc.sigma_mf_series(d, N), "exact"),
        "sigma-gmf": fields(mc.sigma_gmf_series(d, N), "exact"),
        "cofiber": fields(mc.cofiber_series(d, N).series, "exact"),
        "wedge-target": fields(mc.wedge_target_series(d, N), "exact"),
        "mt": thom(mc.mt_series(d, N, "o")),
        "mtso": thom(mc.mt_series(d, N, "so")),
        "mtgmf": dict(thom(gmf.split), lower=list(gmf.lower.coeffs),
                      upper=list(gmf.upper.coeffs),
                      bounds_min_degree=gmf.lower.min_degree,
                      assumptions=list(gmf.assumptions)),
    }
    assert list(cli._SERIES) == list(objects)
    for obj, want in objects.items():
        argv = ["series", "--object", obj, "--d", str(d), "--max-degree", str(N)]
        assert main(argv + (["--n", "3"] if obj == "grassmann" else [])) == 0, obj
        out = json.loads(capsys.readouterr().out)
        assert list(out.items()) == [("object", obj), ("d", d), ("N", N)] + list(want.items())

    checks = {
        "gysin": mc.gysin_check(d, N, "o"),
        "hocolim-cofiber": mc.hocolim_cofiber_check(d, N),
        "connectivity": mc.connectivity_and_pi0_checks(d, N),
        "d1-oracle": mc.d1_oracle_check(N),
        "sigma-mf-cofibration": mc.sigma_mf_cofibration_check(d, N),
    }
    assert list(cli._CHECKS) == list(checks)
    records = {}
    for name, rep in checks.items():
        records[name] = {
            "check": rep.check, "d": rep.d, "N": rep.N, "structure": rep.structure,
            "verdict": rep.verdict(), "first_mismatch_degree": rep.first_mismatch_degree,
            "assumptions": list(rep.assumptions), "notes": list(rep.notes),
            "tolerances": "exact integer arithmetic",
        }
    for name in list(checks) + ["all"]:
        assert main(["verify", "--check", name, "--d", str(d), "--max-degree", str(N)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["records", "verdict"] and out["verdict"] == "Pass"
        for rec in out["records"]:
            assert list(rec)[-1] == "wall_time_s"
            del rec["wall_time_s"]
        want = list(records.values()) if name == "all" else [records[name]]
        assert [list(r.items()) for r in out["records"]] == [list(r.items()) for r in want]


# ---------------------------------------------------------------------------
# output files and determinism


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    out_path = tmp_path / "series.json"
    assert main(["series", "--object", "bo", "--d", "2", "--max-degree", "4",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["coefficients"] == [1, 1, 2, 2, 3]


def test_series_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["series", "--object", "mtgmf", "--d", "3", "--max-degree", "10"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_runs_identical_apart_from_wall_time(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--check", "all", "--d", "2", "--max-degree", "10"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0

    def strip_wall(path):
        return [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if "wall_time_s" not in ln]

    assert strip_wall(a) == strip_wall(b)


def test_trace_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# imports


def test_series_and_verify_never_load_numpy(tmp_path):
    # a fresh interpreter: this one has numpy loaded already
    jet = _write(tmp_path, "jet.json", NORMAL_FORM_3D)
    script = f"""
import contextlib, io, sys
from gmfkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--check", "all", "--d", "3", "--max-degree", "8"]) == 0
    for name in {list(_SERIES)!r}:
        assert main(["series", "--object", name, "--d", "3", "--n", "2",
                     "--max-degree", "8"]) == 0, name
    assert "numpy" not in sys.modules, "series or verify loaded numpy"
    assert main(["classify-jet", "--input", {jet!r}]) == 0
assert "numpy" in sys.modules, "classify-jet ran without numpy"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_trace_and_classify_never_load_numpy_ma(tmp_path):
    # a fresh interpreter; numpy.ma (pulled in by e.g. np.unique) costs a
    # cold trace-family about 12 ms and 0.6 MB
    jet = _write(tmp_path, "jet.json", NORMAL_FORM_3D)
    script = f"""
import contextlib, io, sys
from gmfkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1"]) == 0
    assert main(["classify-jet", "--input", {jet!r}]) == 0
assert "numpy" in sys.modules, "trace-family ran without numpy"
assert "numpy.ma" not in sys.modules, "trace-family or classify-jet loaded numpy.ma"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_plain_argv_never_loads_argparse():
    # a fresh interpreter; argparse's gettext call imports locale
    script = f"""
import contextlib, io, sys
from gmfkit.cli import main
PARSING = {{"argparse", "gettext", "locale"}}
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--check", "all", "--d", "3", "--max-degree", "8"]) == 0
    assert main(["series", "--object", "sigma-gmf", "--d", "3", "--max-degree", "8"]) == 0
    assert main(["trace-family", "--preset", "cusp", "--t0", "-1", "--t1", "1"]) == 0
    sys.stdin = io.StringIO({json.dumps(NORMAL_FORM_3D)!r})
    assert main(["classify-jet", "--input", "-"]) == 0
assert not PARSING & set(sys.modules), sorted(PARSING & set(sys.modules))
for argv, code in ((["verify", "-h"], 0), (["verify", "--check", "nope"], 2)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as e:
            assert e.code == code, (argv, e.code)
        else:
            raise AssertionError(f"{{argv}} did not exit")
    assert "argparse" in sys.modules, argv
    assert (out.getvalue() + err.getvalue()).startswith("usage: gmfkit verify"), argv
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter; only what `import gmfkit.cli` itself loads counts
    script = """
import sys
before = set(sys.modules)
import gmfkit.cli
loaded = set(sys.modules) - before
assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
