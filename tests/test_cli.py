"""End-to-end command-line behavior: output schemas, exit codes, environment
overrides, and determinism of repeated runs."""

from __future__ import annotations

import io
import json
import sys

import pytest

from gmfkit.cli import main

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
    capsys.readouterr()


# ---------------------------------------------------------------------------
# trace-family


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


def test_trace_family_swallowtail_fails_axiom(capsys):
    assert main(["trace-family", "--preset", "swallowtail",
                 "--t0", "-1", "--t1", "1"]) == 1
    out = capsys.readouterr().out
    _, rows = _csv_rows(out)
    assert rows == []  # degenerate points are flags, not event rows
    assert "reason=KernelCubicVanishes" in out
    assert "axiom_gmf=Fail" in out


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
    assert main(["trace-family", "--preset", "no-such", "--t0", "-1", "--t1", "1"]) == 2
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


def test_series_env_truncation(monkeypatch, capsys):
    monkeypatch.setenv("GMFKIT_MAX_DEGREE", "5")
    assert main(["series", "--object", "bo", "--d", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == 5
    assert out["coefficients"] == [1] * 6

    monkeypatch.setenv("GMFKIT_MAX_DEGREE", "abc")
    assert main(["series", "--object", "bo", "--d", "1"]) == 2
    monkeypatch.setenv("GMFKIT_MAX_DEGREE", "-3")
    assert main(["series", "--object", "bo", "--d", "1"]) == 2
    capsys.readouterr()


def test_series_unknown_object_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--object", "bu", "--d", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


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
