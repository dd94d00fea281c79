"""Batch command-line front end.

Subcommands: classify-jet, trace-family, series, verify.  All output is
UTF-8 JSON or CSV on stdout (or --out PATH).  Exit codes: 0 success,
1 check/axiom failure, 2 malformed input or unknown object, 3 dimension
inconsistency in a jet file; classify-jet --jsonl writes one line per jet
line of its input, an error line for a jet that fails, and exits with the
largest code of its lines.  Series are truncated at --max-degree, 32 by
default.  trace-family's axiom_gmf fails on a located degenerate point and
on any sampled critical point that classifies as degenerate; when it fails
with no located point, each failing sampled point gets a `# failing sample`
line.  Plain argv -- a command, its long flags spelled out once, each but
--jsonl with its value -- skips argparse; help and errors are argparse's.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import time
import types

from . import family_analysis, jet_core, moduli_calc
from .graded_f2 import DEFAULT_TRUNCATION, series_grassmannian


def _truncation(max_degree: int) -> int:
    if max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    return max_degree


def _loads(text):
    """json.loads, with input nested too deeply for the decoder read as malformed JSON:
    the RecursionError of the decode alone, not one from gmfkit's own code."""
    try:
        return json.loads(text)
    except RecursionError as e:
        raise ValueError(f"malformed JSON: {e}") from None


def _read_json(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return _loads(text)


_INPUT_ERRORS = (ValueError, IndexError, KeyError, OSError)


def _error(e: Exception) -> tuple:
    """(exit code, message) for an input error: 3 for a jet's dimension inconsistency
    (an IndexError, checked before ValueError: a jet's DimensionError is both), else 2."""
    if isinstance(e, json.JSONDecodeError):
        return 2, f"malformed JSON: {e}"
    if isinstance(e, IndexError):
        return 3, f"dimension inconsistency: {e}"
    return 2, str(e)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _classification(data, tol: float) -> dict:
    """classify-jet's output object for one jet's JSON."""
    jet = jet_core.jet_from_json_dict(data)
    cls, split = jet_core._classify_split(jet, tol)
    if split is None:  # classify reads no split of a regular jet; the output still names one
        split = jet_core.spectral_split(jet.quadratic, tol)
    out = {k: v for k, v in cls.to_json_dict(split).items() if v is not None}
    out["dim"] = jet.dim
    out["tol"] = tol
    return out


def cmd_classify_jet(args) -> int:
    if not args.jsonl:
        _emit(json.dumps(_classification(_read_json(args.input), args.tol), indent=2) + "\n",
              args.out)
        return 0
    jet_core._check_tol(args.tol)  # a bad --tol refuses the batch, not each line
    worst = 0
    with contextlib.ExitStack() as stack:
        lines = (getattr(sys.stdin, "buffer", sys.stdin) if args.input == "-"
                 else stack.enter_context(open(args.input, "rb")))
        out = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        for n, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = _classification(_loads(line), args.tol)
            except _INPUT_ERRORS as e:
                code, message = _error(e)
                obj, worst = {"line": n, "error": message, "code": code}, max(worst, code)
            out.write(json.dumps(obj, separators=(",", ":")) + "\n")
    return worst


def _load_family(args) -> family_analysis.PolyFamily:
    if args.preset is not None:
        try:
            return family_analysis.preset_family(args.preset)
        except KeyError:
            raise ValueError(f"unknown preset {args.preset!r}")
    return family_analysis.family_from_json_dict(_read_json(args.family))


def cmd_trace_family(args) -> int:
    F = _load_family(args)
    box = [(-args.box, args.box)] * F.fiber_dim
    result = family_analysis.trace_birth_death(
        F, args.t0, args.t1, steps=args.steps, box=box
    )
    # every field is a number or a plain name, which CSV never quotes
    rows = [["t_star", *(f"x_star_{i + 1}" for i in range(F.fiber_dim)), "index", "det_hessian"]]
    rows += [[_g17(ev.t_star), *map(_g17, ev.x_star), str(ev.index), _g17(ev.det_hessian)]
             for ev in result.events]
    lines = [",".join(row) + "\n" for row in rows]
    failures = family_analysis.gmf_failures(result.degenerate, result.samples)
    if result.degenerate:
        named, prefix = result.degenerate, "# degenerate"
    else:  # no point located: name the sampled points that fail instead
        named, prefix = failures, "# failing sample"
    for flag in named:
        lines.append(f"{prefix} t={_g17(flag.t)} x=({','.join(_g17(v) for v in flag.x)})"
                     f" reason={flag.reason}\n")
    gmf_ok = not failures
    lines.append(
        f"# events={len(result.events)} degenerate={len(result.degenerate)}"
        f" warnings={len(result.warnings)} axiom_gmf={'Pass' if gmf_ok else 'Fail'}"
        f" window=[{_g17(args.t0)},{_g17(args.t1)}] steps={args.steps}\n"
    )
    _emit("".join(lines), args.out)
    return 0 if gmf_ok else 1


def _fields(s, provenance, **extra) -> dict:
    return dict(min_degree=s.min_degree, coefficients=list(s.coeffs),
                truncation=s.truncation, provenance=provenance, **extra)


def _exact(series):
    return lambda d, N, args: _fields(series(d, N), moduli_calc.EXACT)


def _grassmann(d, N, args):
    if args.n is None:
        raise ValueError("--object grassmann requires --n")
    return dict(n=args.n, **_fields(series_grassmannian(d, args.n, N), moduli_calc.EXACT))


def _thom(structure):
    def run(d, N, args):
        sp = moduli_calc.mt_series(d, N, structure)
        return _fields(sp.series, sp.provenance, derivation=list(sp.derivation))
    return run


def _mtgmf(d, N, args):
    r = moduli_calc.mtgmf_series(d, N)
    return _fields(r.split.series, r.split.provenance,
                   derivation=list(r.split.derivation),
                   lower=list(r.lower.coeffs), upper=list(r.upper.coeffs),
                   bounds_min_degree=r.lower.min_degree,
                   assumptions=list(r.assumptions))


# --object name -> fields(d, N, args) that follow object, d and N in the
# JSON.  The tables name moduli_calc functions inside lambdas, so they are
# looked up at call time, as a wrapper installed after import expects.
_SERIES = {
    "bo": _exact(lambda d, N: moduli_calc.series_BO(d, N)),
    "bso": _exact(lambda d, N: moduli_calc.series_BSO(d, N)),
    "grassmann": _grassmann,
    "sigma-mf": _exact(lambda d, N: moduli_calc.sigma_mf_series(d, N)),
    "sigma-gmf": _exact(lambda d, N: moduli_calc.sigma_gmf_series(d, N)),
    "cofiber": _exact(lambda d, N: moduli_calc.cofiber_series(d, N).series),
    "wedge-target": _exact(lambda d, N: moduli_calc.wedge_target_series(d, N)),
    "mt": _thom("o"),
    "mtso": _thom("so"),
    "mtgmf": _mtgmf,
}


def cmd_series(args) -> int:
    N = _truncation(args.max_degree)
    out = {"object": args.object, "d": args.d, "N": N}
    out.update(_SERIES[args.object](args.d, N, args))
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


# --check name -> report(d, N, structure), in the order --check all runs them
_CHECKS = {
    "gysin": lambda d, N, structure: moduli_calc.gysin_check(d, N, structure),
    "hocolim-cofiber": lambda d, N, structure: moduli_calc.hocolim_cofiber_check(d, N),
    "connectivity": lambda d, N, structure: moduli_calc.connectivity_and_pi0_checks(d, N),
    "d1-oracle": lambda d, N, structure: moduli_calc.d1_oracle_check(N),
    "sigma-mf-cofibration":
        lambda d, N, structure: moduli_calc.sigma_mf_cofibration_check(d, N),
}


def cmd_verify(args) -> int:
    N = _truncation(args.max_degree)
    names = list(_CHECKS) if args.check == "all" else [args.check]
    records = []
    for name in names:
        t_start = time.perf_counter()
        rep = _CHECKS[name](args.d, N, args.structure)
        wall = time.perf_counter() - t_start
        records.append({
            "check": rep.check,
            "d": rep.d,
            "N": rep.N,
            "structure": rep.structure,
            "verdict": rep.verdict(),
            "first_mismatch_degree": rep.first_mismatch_degree,
            "assumptions": list(rep.assumptions),
            "notes": list(rep.notes),
            "tolerances": "exact integer arithmetic",
            "wall_time_s": round(wall, 6),
        })
    overall = "Pass" if all(r["verdict"] == "Pass" for r in records) else "Fail"
    _emit(json.dumps({"records": records, "verdict": overall}, indent=2) + "\n",
          args.out)
    return 0 if overall == "Pass" else 1


# command -> (help, func, options, group), read by build_parser and _plain_args: each option is its
# long flag and the keywords of its add_argument call; exactly one flag of group is given.
_COMMANDS = {
    "classify-jet": ("classify a 3-jet from JSON", cmd_classify_jet, {
        "--input": dict(required=True, help="jet JSON path, or - for stdin"),
        "--jsonl": dict(action="store_true", default=False,
                        help="one jet per input line, one compact result or error per output line"),
        "--tol": dict(type=float, default=jet_core.DEFAULT_TOL),
        "--out": dict(default=None),
    }, ()),
    "trace-family": ("locate birth-death events of a 1-parameter family", cmd_trace_family, {
        "--family": dict(help="family JSON path, or - for stdin"),
        "--preset": dict(help="cusp | swallowtail | suspended-cusp-i"),
        "--t0": dict(type=float, required=True),
        "--t1": dict(type=float, required=True),
        "--steps": dict(type=int, default=41),
        "--box": dict(type=float, default=2.0, help="fiber box half-width"),
        "--out": dict(default=None),
    }, ("--family", "--preset")),
    "series": ("print a Poincare series as JSON", cmd_series, {
        "--object": dict(required=True, choices=list(_SERIES)),
        "--d": dict(type=int, required=True),
        "--n": dict(type=int, default=None, help="codimension (grassmann only)"),
        "--max-degree": dict(type=int, default=DEFAULT_TRUNCATION),
        "--out": dict(default=None),
    }, ()),
    "verify": ("run series identity checks", cmd_verify, {
        "--check": dict(required=True, choices=list(_CHECKS) + ["all"]),
        "--d": dict(type=int, default=2),
        "--max-degree": dict(type=int, default=DEFAULT_TRUNCATION),
        "--structure": dict(choices=["o", "so"], default="o"),
        "--out": dict(default=None),
    }, ()),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The argparse tree; with argv naming a command, that command's subparser
    alone, under the full tree's usage line."""
    import argparse  # here, not at import: plain argv never needs it
    p = argparse.ArgumentParser(
        prog="gmfkit",
        description="Jet/family classification and graded-F2 series checks.",
    )
    one = argv[0] if argv and argv[0] in _COMMANDS else None
    # a metavar would rename the command argument in the full tree's errors
    sub = p.add_subparsers(dest="command", required=True,
                           **({"metavar": "{" + ",".join(_COMMANDS) + "}"} if one else {}))
    for command, (text, func, options, group) in _COMMANDS.items():
        if one in (None, command):
            c = sub.add_parser(command, help=text)
            src = c.add_mutually_exclusive_group(required=True) if group else c
            for flag, kw in options.items():
                (src if flag in group else c).add_argument(flag, **kw)
            c.set_defaults(func=func)
    return p


def _plain_args(argv):
    """What build_parser(argv).parse_args(argv) returns, for plain argv (see the
    module docstring), read from _COMMANDS without argparse; else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options, group = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for flag in tokens:
        kw = options.get(flag)
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        # argparse reads a token starting with - as a flag, bar - and its negative numbers
        if value is None or (value[:1] == "-" and value != "-"
                             and not re.match(r"^-\d+$|^-\d*\.\d+$", value)):
            return None
        try:
            given[flag] = value = kw.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
    if (any(kw.get("required") and flag not in given for flag, kw in options.items())
            or group and sum(flag in given for flag in group) != 1):
        return None
    return types.SimpleNamespace(command=argv[0], func=func, **{
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default")) for flag, kw in options.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        code, message = _error(e)
        print(f"error: {message}", file=sys.stderr)
        return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
