"""Expected outputs computed apart from gmfkit (standard library only).

Series: dimensions of H_n(BO(m)) are partition counts; Mayer-Vietoris ranks
come from an xor-basis F2 rank of Phi_n assembled here from the zigzag's
public map rows.  Trace: families whose birth-death events are known in
closed form, and a parser for the trace-family CSV.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# series


def partition_dims(m: int, N: int) -> list:
    """dim H_n(BO(m); F2) for n = 0..N: partitions of n into parts <= m."""
    out = [1] + [0] * N
    for part in range(1, m + 1):
        for n in range(part, N + 1):
            out[n] += out[n - part]
    return out


def _convolve(a: list, b: list) -> list:
    N = len(a) - 1
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(N + 1)]


def product_dims(ranks, N: int) -> list:
    """Degreewise dims of H_*(BO(r1) x BO(r2) x ...) up to N."""
    out = [1] + [0] * N
    for r in ranks:
        out = _convolve(out, partition_dims(r, N))
    return out


def bottom_dims(d: int, N: int) -> list:
    """Per summand Y(j) = BO(j) x BO(d-j), j = 0..d: list of degreewise dims."""
    return [product_dims((j, d - j), N) for j in range(d + 1)]


def top_dims(d: int, N: int) -> list:
    """Per summand Y1(i) = BO(i) x BO(1) x BO(d-i-1), i = 0..d-1."""
    return [product_dims((i, 1, d - i - 1), N) for i in range(d)]


def wedge_model(d: int, N: int) -> list:
    """sum_i t * BO(i) x BO(1) x BO(d-i-1), degrees 0..N."""
    S = [sum(col) for col in zip(*top_dims(d, N))]
    return [0] + S[:N]


def rank_f2(rows) -> int:
    """F2 rank of rows given as Python ints, by an xor basis keyed on the top bit."""
    basis: dict = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    return len(basis)


def phi_rows(f_rows, g_rows, t_dims, s_dims) -> list:
    """Rows of Phi_n: one per basis element of (+)_j H_n(Y(j)).

    f_rows[i] / g_rows[i] are the homology rows of Y1(i) -> Y(i) and
    Y1(i) -> Y(i+1) in degree n; the columns of Phi_n are the summands
    H_n(Y1(i)) laid side by side.
    """
    d = len(f_rows)
    off = [0]
    for s in s_dims:
        off.append(off[-1] + s)
    rows = []
    for j in range(d + 1):
        for r in range(t_dims[j]):
            mask = 0
            if j < d:
                mask ^= f_rows[j][r] << off[j]
            if j > 0:
                mask ^= g_rows[j - 1][r] << off[j - 1]
            rows.append(mask)
    return rows


def sigma_gmf_from_ranks(T: list, S: list, ranks: list) -> list:
    """dim H_n(hocolim) = dim coker Phi_n + dim ker Phi_{n-1}."""
    out = [T[0] - ranks[0]]
    for n in range(1, len(T)):
        out.append((T[n] - ranks[n]) + (S[n - 1] - ranks[n - 1]))
    return out


def zigzag_oracle(z, d: int, N: int) -> dict:
    """Check a gmfkit ZigzagDiagram against partition counts and rank it here.

    Returns the expected sigma-gmf and cofiber coefficients plus a list of
    discrepancies: map shapes that disagree with partition counts, and ring
    maps whose cohomology matrix is not injective in some degree.
    """
    errors = []
    bot = bottom_dims(d, N)
    top = top_dims(d, N)
    T = [sum(col) for col in zip(*bot)]
    S = [sum(col) for col in zip(*top)]
    ranks = []
    for n in range(N + 1):
        t_dims = [bot[j][n] for j in range(d + 1)]
        s_dims = [top[i][n] for i in range(d)]
        f_rows, g_rows = [], []
        for i in range(d):
            for name, gm, target in (("f", z.f_maps[i], t_dims[i]),
                                     ("g", z.g_maps[i], t_dims[i + 1])):
                if tuple(gm.shapes[n]) != (target, s_dims[i]):
                    errors.append(f"d={d} N={N} {name}{i} degree {n}: shape "
                                  f"{tuple(gm.shapes[n])} != {(target, s_dims[i])}")
                    continue
                # rows of the homology map are the cohomology columns, so
                # injectivity in cohomology is full row rank here
                if rank_f2(gm.rows[n]) != target:
                    errors.append(f"d={d} N={N} {name}{i} degree {n}: "
                                  f"cohomology map not injective")
            f_rows.append(z.f_maps[i].rows[n])
            g_rows.append(z.g_maps[i].rows[n])
        if errors:
            break
        ranks.append(rank_f2(phi_rows(f_rows, g_rows, t_dims, s_dims)))
    if errors:
        return {"errors": errors}
    return {"errors": [], "sigma-gmf": sigma_gmf_from_ranks(T, S, ranks),
            "cofiber": wedge_model(d, N)}


# ---------------------------------------------------------------------------
# trace


def family_cubic_pair(a: float) -> dict:
    """x^3 + (t^2 - a^2) x - y^2 + z^2: births/deaths at t = +-a, x = 0, index 1."""
    return {"param_dim": 1, "fiber_dim": 3, "terms": [
        {"powers": [0, 3, 0, 0], "coeff": 1.0},
        {"powers": [2, 1, 0, 0], "coeff": 1.0},
        {"powers": [0, 1, 0, 0], "coeff": -a * a},
        {"powers": [0, 0, 2, 0], "coeff": -1.0},
        {"powers": [0, 0, 0, 2], "coeff": 1.0},
    ]}


def family_rotated_cusp(c: float) -> dict:
    """u^3 - (t - c) u + v^2 with u = (x + y)/sqrt2, v = (y - x)/sqrt2.

    One birth-death event at t = c, (x, y) = 0, index 0; the kernel
    direction is the diagonal, not a coordinate axis.
    """
    r = 1.0 / math.sqrt(2.0)
    terms: dict = {}

    def add(powers, v):
        terms[powers] = terms.get(powers, 0.0) + v

    for k, binom in enumerate((1, 3, 3, 1)):
        add((0, 3 - k, k), binom * r ** 3)
    add((1, 1, 0), -r)
    add((1, 0, 1), -r)
    add((0, 1, 0), c * r)
    add((0, 0, 1), c * r)
    add((0, 2, 0), 0.5)
    add((0, 1, 1), -1.0)
    add((0, 0, 2), 0.5)
    return {"param_dim": 1, "fiber_dim": 2,
            "terms": [{"powers": list(p), "coeff": v} for p, v in terms.items()]}


def parse_trace_csv(text: str) -> dict:
    """Events, degenerate flags and summary fields of trace-family output."""
    lines = text.splitlines()
    events, degenerate, summary = [], [], {}
    for line in lines[1:]:
        if line.startswith("# degenerate "):
            fields = dict(f.split("=", 1) for f in line[len("# degenerate "):].split(" "))
            degenerate.append((float(fields["t"]), fields["reason"]))
        elif line.startswith("# events="):
            summary = dict(f.split("=", 1) for f in line[2:].split(" "))
        elif not line.startswith("#"):
            vals = line.split(",")
            events.append((float(vals[0]), [float(v) for v in vals[1:-2]], int(vals[-2])))
    return {"events": events, "degenerate": degenerate, "summary": summary}


def check_trace(text: str, rc: int, expected: dict, tol: float = 1e-6) -> list:
    """Discrepancies between one trace-family output and its closed form."""
    errs = []
    try:
        got = parse_trace_csv(text)
    except (ValueError, KeyError, IndexError) as e:
        return [f"unparseable output: {e}"]
    want_events = expected["events"]
    want_degenerate = expected.get("degenerate", ())
    if rc != (1 if want_degenerate else 0):
        errs.append(f"exit code {rc}")
    if len(got["events"]) != len(want_events):
        errs.append(f"{len(got['events'])} events, expected {len(want_events)}")
    else:
        for (t, x, idx), (t0, x0, idx0) in zip(got["events"], want_events):
            if abs(t - t0) > tol or len(x) != len(x0) or \
                    max(abs(a - b) for a, b in zip(x, x0)) > tol or idx != idx0:
                errs.append(f"event t={t} x={x} index={idx}, expected t={t0} x={x0} index={idx0}")
    if len(got["degenerate"]) != len(want_degenerate):
        errs.append(f"{len(got['degenerate'])} degenerate flags, expected {len(want_degenerate)}")
    else:
        for (t, reason), (t0, reason0) in zip(got["degenerate"], want_degenerate):
            if abs(t - t0) > tol or reason != reason0:
                errs.append(f"degenerate t={t} {reason}, expected t={t0} {reason0}")
    s = got["summary"]
    want_axiom = "Fail" if want_degenerate else "Pass"
    if s.get("events") != str(len(want_events)) or s.get("axiom_gmf") != want_axiom:
        errs.append(f"summary {s}")
    return errs
