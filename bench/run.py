"""gmfkit benchmark: cold CLI commands and a jet batch, checked and timed.

    python3 bench/run.py --workload {series,trace,jets} --seed N --seconds S --trace {0,1}

Run from the root of a gmfkit checkout; gmfkit is imported from ./src.  Every
operation runs in a fresh interpreter started by this driver, one at a time
(see worker.py), so each `series`/`trace` command pays gmfkit's in-process
caches cold, as a CLI user does.  A run repeats whole rounds of the
workload's operations until --seconds have passed, and at least two rounds,
so that every command is also checked for byte-identical repeat output.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs one
untraced round, then traced rounds, and reports per-layer metrics (see
tracer.py) averaged per traced round, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracles
from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170

# jets: per (stratum, dimension) cell; 5 strata x 3 dimensions
JETS_PER_CELL = 40
JETS_WORKERS = 5


class WorkerError(RuntimeError):
    pass


def run_worker(job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass(frozen=True)
class Command:
    argv: tuple
    expect: object          # what the output must match; see check_*
    known_fault: bool = False  # fails today; kept out of wall_s either way
    stdin: str | None = None
    stdin_name: str = ""

    @property
    def label(self) -> str:
        return " ".join(self.argv) + (f" < {self.stdin_name}" if self.stdin else "")


def _canonical(cmd: Command, res: dict) -> str:
    """Output that must repeat byte for byte; verify's wall times may differ."""
    text = res["stdout"]
    if cmd.argv[0] == "verify":
        try:
            doc = json.loads(text)
            for rec in doc["records"]:
                rec.pop("wall_time_s", None)
            text = json.dumps(doc, indent=2)
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
            pass  # compared raw; check_series reports the malformed output
    return f"rc={res['rc']}\n{text}"


def check_series(cmd: Command, res: dict, oracle: dict) -> list:
    kind, d, N, ref_N = cmd.expect
    try:
        doc = json.loads(res["stdout"])
        if kind == "verify":
            bad = [r["check"] for r in doc["records"] if r["verdict"] != "Pass"]
            if bad or doc["verdict"] != "Pass" or res["rc"] != 0:
                return [f"verify verdicts not all Pass: {bad}"]
            return []
        got = doc.get("coefficients")
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as e:
        return [f"malformed output: {e!r}"]
    ref = oracle[f"{d},{ref_N}"]
    if ref["errors"]:
        return ref["errors"]
    want = ref[kind][: N + 1]
    if res["rc"] != 0 or got != want or doc.get("min_degree") != 0 or doc.get("truncation") != N:
        return [f"coefficients {got}, expected {want}"]
    return []


def series_commands() -> list:
    out = []
    for d, N in ((5, 20), (8, 12)):   # deep, wide
        out.append(Command(("verify", "--check", "all", "--d", str(d), "--max-degree", str(N)),
                           ("verify", d, N, N)))
    out.append(Command(("series", "--object", "sigma-gmf", "--d", "5", "--max-degree", "20"),
                       ("sigma-gmf", 5, 20, 20)))
    out.append(Command(("series", "--object", "cofiber", "--d", "8", "--max-degree", "12"),
                       ("cofiber", 8, 12, 12)))
    # d > N: every hocolim-based command exits 2 today (RingMap looks up
    # generators of degree > N); once mended, the output must be the first
    # N+1 coefficients of the same series at truncation d
    out.append(Command(("verify", "--check", "all", "--d", "4", "--max-degree", "3"),
                       ("verify", 4, 3, 4), known_fault=True))
    out.append(Command(("series", "--object", "sigma-gmf", "--d", "4", "--max-degree", "3"),
                       ("sigma-gmf", 4, 3, 4), known_fault=True))
    return out


FAMILY_A = 0.37    # both off the 41-point grid on [-1, 1]
FAMILY_C = 0.113


def trace_commands() -> list:
    window = ("--t0", "-1", "--t1", "1")
    out = [Command(("trace-family", "--preset", "cusp") + window, {"events": [(0.0, [0.0], 0)]}),
           Command(("trace-family", "--preset", "swallowtail") + window,
                   {"events": [], "degenerate": [(0.0, "KernelCubicVanishes")]})]
    for i in range(3):
        out.append(Command(("trace-family", "--preset", f"suspended-cusp-{i}") + window,
                           {"events": [(0.0, [0.0] * (i + 2), i)]}))
    out.append(Command(("trace-family", "--family", "-") + window,
                       {"events": [(-FAMILY_A, [0.0] * 3, 1), (FAMILY_A, [0.0] * 3, 1)]},
                       stdin=json.dumps(oracles.family_cubic_pair(FAMILY_A)),
                       stdin_name="cubic-pair"))
    out.append(Command(("trace-family", "--family", "-") + window,
                       {"events": [(FAMILY_C, [0.0, 0.0], 0)]},
                       stdin=json.dumps(oracles.family_rotated_cusp(FAMILY_C)),
                       stdin_name="rotated-cusp"))
    return out


def run_cli_workload(commands: list, seconds: float, trace: bool, check) -> dict:
    """Whole rounds of cold commands; returns the per-run tallies.

    errors are wrong outputs (the run is not correct); notes explain
    failed operations, which leave correctness to the ones that completed.
    """
    errors, notes, failed, attempted = [], [], 0, 0
    first_output: dict = {}
    setup, rss_kb = [], 0
    op_times: dict = {}     # (traced, label) -> op seconds, one per round
    n_rounds = n_traced = 0
    layer_sums: dict = {}
    start = time.perf_counter()
    while True:
        traced_round = trace and n_rounds > 0
        round_start = time.perf_counter()
        for cmd in commands:
            attempted += 1
            try:
                res = run_worker({"kind": "cli", "argv": list(cmd.argv),
                                  "stdin": cmd.stdin, "trace": traced_round})
            except WorkerError as e:
                failed += 1
                notes.append(f"{cmd.label}: {e}")
                continue
            setup.append(res["setup_s"])
            rss_kb = max(rss_kb, res["rss_kb"])
            if not cmd.known_fault:
                op_times.setdefault((traced_round, cmd.label), []).append(res["op_s"])
            for k, v in res.get("layers", {}).items():
                layer_sums[k] = layer_sums.get(k, 0) + v
            if res["rc"] not in (0, 1):
                failed += 1
                notes.append(f"{cmd.label}: exit {res['rc']}: {res['stderr'].strip()}")
                continue
            canon = _canonical(cmd, res)
            if first_output.setdefault(cmd.label, canon) != canon:
                failed += 1
                notes.append(f"{cmd.label}: output differs from its first run")
                continue
            errs = check(cmd, res)
            errors.extend(f"{cmd.label}: {e}" for e in errs)
        if traced_round:
            n_traced += 1
        else:
            n_rounds += 1
        now = time.perf_counter()
        enough = n_traced >= 1 if trace else n_rounds >= 2
        # stop before a round that would end past --seconds
        if enough and (now - start) + (now - round_start) > seconds:
            break

    def best_round(traced):
        # each command at its fastest over the run's rounds
        times = [min(v) for (t, _), v in op_times.items() if t == traced]
        return [sum(times)] if times else []

    return {"errors": errors, "notes": notes, "failed": failed, "attempted": attempted,
            "setup": setup, "rss_kb": rss_kb, "walls": best_round(False),
            "traced_walls": best_round(True), "n_rounds": n_rounds, "n_traced": n_traced,
            "layer_sums": layer_sums}


def run_series(seed: int, seconds: float, trace: bool) -> dict:
    commands = series_commands()
    random.Random(seed).shuffle(commands)
    shapes = sorted({(c.expect[1], c.expect[3]) for c in commands if c.expect[0] != "verify"})
    try:
        oracle = run_worker({"kind": "oracle", "shapes": shapes})
    except WorkerError as e:
        oracle = {f"{d},{N}": {"errors": [f"oracle: {e}"]} for d, N in shapes}
    return run_cli_workload(commands, seconds, trace,
                            lambda cmd, res: check_series(cmd, res, oracle))


def run_trace(seed: int, seconds: float, trace: bool) -> dict:
    commands = trace_commands()
    random.Random(seed).shuffle(commands)
    return run_cli_workload(commands, seconds, trace,
                            lambda cmd, res: oracles.check_trace(res["stdout"], res["rc"], cmd.expect))


# ---------------------------------------------------------------------------
# jets workload


def run_jets(seed: int, seconds: float, trace: bool) -> dict:
    """JETS_WORKERS fresh interpreters, each running rounds over the same batch."""
    errors, notes, failed, attempted = [], [], 0, 0
    setup, rss_kb, rounds, traced, digests = [], 0, [], [], []
    n_jets = n_forms = 0
    layer_sums: dict = {}
    for _ in range(JETS_WORKERS):
        try:
            res = run_worker({"kind": "jets", "seed": seed, "per_cell": JETS_PER_CELL,
                              "seconds": seconds / JETS_WORKERS, "trace": trace})
        except WorkerError as e:
            failed += 1
            attempted += 1
            notes.append(f"jets worker: {e}")
            continue
        n_jets, n_forms = res["n_jets"], res["n_normal_forms"]
        per_round = n_jets + n_forms
        attempted += per_round * (len(res["rounds"]) + len(res["traced_rounds"]))
        setup.append(res["setup_s"])
        rss_kb = max(rss_kb, res["rss_kb"])
        rounds += res["rounds"]
        traced += res["traced_rounds"]
        errors += res["errors"]
        for k, v in res.get("layers", {}).items():
            layer_sums[k] = layer_sums.get(k, 0) + v
        digests += [(d, per_round) for d in res["digests"]]
    # a round whose outputs differ from the first round's fails all its operations
    differing = [n for d, n in digests if d != digests[0][0]] if digests else []
    failed += sum(differing)
    if differing:
        notes.append(f"jet outputs of {len(differing)} rounds differ from the first round's")
    if rounds:
        cls = min(r[0] for r in rounds)
        nf = min(r[1] for r in rounds)
        print(f"jets: {n_jets} jets per round; classify_per_s {n_jets / cls:.1f} jets/s, "
              f"normal_form_per_s {n_forms / nf:.1f} jets/s")
    return {"errors": errors, "notes": notes, "failed": failed, "attempted": attempted,
            "setup": setup, "rss_kb": rss_kb, "walls": [sum(r) for r in rounds],
            "traced_walls": [sum(r) for r in traced], "n_rounds": len(rounds),
            "n_traced": len(traced), "layer_sums": layer_sums}


# ---------------------------------------------------------------------------


WORKLOADS = {"series": run_series, "trace": run_trace, "jets": run_jets}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "gmfkit", "cli.py")):
        print("error: run from the root of a gmfkit checkout (src/gmfkit not found)",
              file=sys.stderr)
        return 2

    r = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    for e in r["notes"][:20]:
        print(f"failed: {e}", file=sys.stderr)
    for e in r["errors"][:20]:
        print(f"wrong output: {e}", file=sys.stderr)
    if not r["setup"] or not r["walls"] or (args.trace and not r["traced_walls"]):
        print("error: no operation completed", file=sys.stderr)
        return 1
    wall = min(r["walls"])
    if args.trace:
        values = {k: v / r["n_traced"] for k, v in r["layer_sums"].items()}
        seeds = values["family_analysis.seeds"]
        values["family_analysis.points_per_seed"] = (
            values["family_analysis.sample_points"] / seeds if seeds else 0.0)
        values["tracing.overhead_s"] = min(r["traced_walls"]) - wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {"setup_s": {"value": statistics.median(r["setup"]), "unit": "s"},
                   "peak_rss_mb": {"value": r["rss_kb"] / 1024.0, "unit": "MB"},
                   "wall_s": {"value": wall, "unit": "s"}}
    print(f"{args.workload}: attempted {r['attempted']}, failed {r['failed']}, "
          f"{r['n_rounds'] + r['n_traced']} rounds")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not r["errors"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
