"""Job bodies for worker.py; imported only after gmfkit.cli has been timed.

Job kinds:

  cli     run gmfkit.cli.main(argv) once, cold, capturing its output
  jets    run rounds of the classify-jet pipeline and the normal form over a
          seeded batch, untraced, then (when traced) with the tracer installed
  oracle  build the zigzags for the given (d, N) shapes and compute the
          expected series apart from gmfkit's own rank code
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import gmfkit.cli
import jets
import oracles
from gmfkit import jet_core, moduli_calc
from tracer import Tracer


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(job):
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(job.get("stdin") or "")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = gmfkit.cli.main(job["argv"])
        op_s = time.perf_counter() - t0
    result = {"op_s": op_s, "rc": rc, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "rss_kb": _rss_kb()}
    if tracer:
        result["layers"] = tracer.layers()
    return result


def run_jets(job):
    batch = jets.make_batch(job["seed"], job["per_cell"])
    inputs = [data for data, _ in batch]
    bd_positions = [k for k, (_, exp) in enumerate(batch) if exp["class"] == "BirthDeath"]
    tol = jets.TOL

    def one_round():
        # the functions classify-jet calls, in its order, then the normal form
        t0 = time.perf_counter()
        parsed, texts = [], []
        for data in inputs:
            jet = jet_core.jet_from_json_dict(data)
            cls = jet_core.classify(jet, tol=tol)
            split = jet_core.spectral_split(jet.quadratic, tol)
            out = {k: v for k, v in cls.to_json_dict(split).items() if v is not None}
            out["dim"] = jet.dim
            out["tol"] = tol
            texts.append(json.dumps(out, indent=2))
            parsed.append(jet)
        t1 = time.perf_counter()
        forms = [jet_core.birth_death_linear_normal_form(parsed[k], tol) for k in bd_positions]
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, texts, forms

    errors, digests = [], []

    def checked_round():
        classify_s, nf_s, texts, forms = one_round()
        if not digests:
            for (data, exp), text in zip(batch, texts):
                e = jets.check_classification(json.loads(text), exp, data["dim"])
                if e:
                    errors.append(e)
            for k, nf in zip(bd_positions, forms):
                e = jets.check_normal_form(nf, batch[k][1], jet_core.classify)
                if e:
                    errors.append(e)
        h = hashlib.sha256()
        for text in texts:
            h.update(text.encode())
        for nf in forms:
            h.update(jets.normal_form_bytes(nf))
        digests.append(h.hexdigest())
        return classify_s, nf_s

    def rounds_for(seconds, min_rounds):
        # whole rounds; stop before one that would end past `seconds`
        times = []
        start = round_start = time.perf_counter()
        while True:
            times.append(checked_round())
            now = time.perf_counter()
            if len(times) >= min_rounds and (now - start) + (now - round_start) > seconds:
                return times
            round_start = now

    seconds = job["seconds"]
    result = {"n_jets": len(inputs), "n_normal_forms": len(bd_positions)}
    if job["trace"]:
        result["rounds"] = rounds_for(seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        result["traced_rounds"] = rounds_for(seconds / 2, 1)
        result["layers"] = tracer.layers()
    else:
        result["rounds"] = rounds_for(seconds, 2)
        result["traced_rounds"] = []
    result.update(rss_kb=_rss_kb(), errors=errors[:5], digests=digests)
    return result


def run_oracle(job):
    out = {}
    for d, N in job["shapes"]:
        out[f"{d},{N}"] = oracles.zigzag_oracle(moduli_calc.build_zigzag(d, N), d, N)
    return out


def run(job_text: str, setup_s: float) -> int:
    job = json.loads(job_text)
    src = os.path.realpath(os.path.join(os.getcwd(), "src", "gmfkit"))
    if os.path.dirname(os.path.realpath(gmfkit.cli.__file__)) != src:
        print(f"gmfkit imported from {gmfkit.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    handler = {"cli": run_cli, "jets": run_jets, "oracle": run_oracle}[job["kind"]]
    result = handler(job)
    result["setup_s"] = setup_s
    sys.__stdout__.write(json.dumps(result) + "\n")
    return 0
