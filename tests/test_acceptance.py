"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each criterion is self-contained: oracles are restated here rather
than imported from the other test modules.
"""

from __future__ import annotations

from itertools import product as iproduct
from time import perf_counter

import numpy as np
import pytest

from gmfkit.char_class_maps import map_f, map_g
from gmfkit.family_analysis import preset_family, trace_birth_death
from gmfkit.graded_f2 import series_BO, series_grassmannian
from gmfkit.jet_core import (
    BIRTH_DEATH,
    DEGENERATE,
    KERNEL_CUBIC_VANISHES,
    KERNEL_DIM_AT_LEAST_2,
    NONDEGENERATE,
    REGULAR,
    Jet3,
    birth_death_linear_normal_form,
    classify,
    compose_linear,
)
from gmfkit.moduli_calc import (
    cofiber_series,
    d1_oracle_check,
    gysin_check,
    hocolim_cofiber_check,
    mt_series,
    mtgmf_series,
    sigma_gmf_series,
)


def _criterion(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# restated oracles


def _partition_count(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(_partition_count(n - first, min(first, max_part))
               for first in range(1, min(n, max_part) + 1))


def _random_orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


_STRATA = ("regular", "nondegenerate", "birth-death",
           "kernel-cubic-vanishes", "kernel-dim-2")


def _stratified_jet(rng, d, stratum):
    """Random jet in a named stratum behind a random rotation.

    Nonzero quadratic eigenvalues are drawn from +-[0.3, 2], zero ones are
    exactly zero, so the condition number of the nonzero part is at most
    2/0.3 -- far below the 1e8 filter, by construction.
    """
    eigs = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    cubic = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for k in range(j, d + 1):
                cubic[(i, j, k)] = rng.uniform(-1.0, 1.0)
    lin = np.zeros(d)
    if stratum == "regular":
        lin = rng.normal(size=d)
        lin *= (0.1 + abs(rng.normal())) / np.linalg.norm(lin)
    elif stratum == "birth-death":
        eigs[0] = 0.0
        cubic[(1, 1, 1)] = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    elif stratum == "kernel-cubic-vanishes":
        eigs[0] = 0.0
        cubic[(1, 1, 1)] = 0.0
    elif stratum == "kernel-dim-2":
        eigs[0] = eigs[1] = 0.0
    nonzero = np.abs(eigs[eigs != 0.0])
    if nonzero.size:
        assert float(nonzero.max() / nonzero.min()) <= 1e8
    base = Jet3(d, rng.normal(), lin, np.diag(eigs), cubic)
    return compose_linear(base, _random_orthogonal(rng, d))


def _oracle_classify(jet: Jet3, tol: float = 1e-9):
    """Independent route: general eigensolver, SVD kernel, dense contraction."""
    s = abs(jet.constant)
    for v in jet.linear:
        s = max(s, abs(v))
    for v in jet.quadratic.reshape(-1):
        s = max(s, abs(v))
    for v in jet.cubic.values():
        s = max(s, abs(v))
    s = max(1.0, s)
    if float(np.sqrt(np.sum(jet.linear ** 2))) > tol * s:
        return (REGULAR, None, None)
    w = np.linalg.eigvals(jet.quadratic).real
    thresh = tol * max(1.0, float(np.max(np.abs(w))))
    neg = int(np.sum(w < -thresh))
    zero = int(np.sum(np.abs(w) <= thresh))
    if zero == 0:
        return (NONDEGENERATE, neg, None)
    if zero == 1:
        _, _, vt = np.linalg.svd(jet.quadratic)
        v = vt[-1]
        d = jet.dim
        T = np.zeros((d, d, d))
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                for c in range(1, d + 1):
                    i, j, k = sorted((a, b, c))
                    T[a - 1, b - 1, c - 1] = jet.cubic.get((i, j, k), 0.0)
        val = float(np.einsum("abc,a,b,c->", T, v, v, v))
        if abs(val) > tol * s:
            return (BIRTH_DEATH, neg, None)
        return (DEGENERATE, None, KERNEL_CUBIC_VANISHES)
    return (DEGENERATE, None, KERNEL_DIM_AT_LEAST_2)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gysin_identity():
    """P_B(d) = t^d P_B(d) + P_B(d-1) for d=1..8, both structures, N=32.

    The oriented d=1 case is mathematically false (the top class of an
    oriented line vanishes, so the sphere-bundle sequence does not split);
    it is carried by the strict-xfail test below and excluded from the
    all-combos conjunction here.
    """
    t0 = perf_counter()
    results = {}
    for d in range(1, 9):
        for structure in ("o", "so"):
            results[(structure, d)] = gysin_check(d, 32, structure).ok
    elapsed = perf_counter() - t0
    attainable = [ok for key, ok in results.items() if key != ("so", 1)]
    ok = all(attainable) and elapsed < 1.0
    _criterion(
        1, ok,
        f"{sum(attainable)}/15 attainable (structure, d) combos exact at N=32 "
        f"in {elapsed:.3f}s (< 1s); oriented-line case documented separately",
    )


@pytest.mark.xfail(
    strict=True,
    reason="BSO(1) is a point: its top class vanishes, the sphere-bundle "
    "sequence does not split, and the series identity fails at degree 1 "
    "(0 on the left, 1 on the right); recorded as unattainable",
)
def test_criterion_1_oriented_line_literal():
    assert gysin_check(1, 32, "so").ok


def test_criterion_2_cofiber_equals_wedge():
    """Mayer-Vietoris cofiber vs the closed-form wedge, d=1..5, N=20."""
    oks = []
    d5_time = 0.0
    for d in range(1, 6):
        t0 = perf_counter()
        oks.append(hocolim_cofiber_check(d, 20).ok)
        if d == 5:
            d5_time = perf_counter() - t0
    ok = all(oks) and d5_time < 60.0
    _criterion(
        2, ok,
        f"independent routes agree for d=1..5 at N=20; d=5 took {d5_time:.2f}s (< 60s)",
    )


def test_criterion_3_d1_closed_forms():
    """Hand-derived d=1 values: hocolim = [1,1,...], cofiber = [0,1,1,...]."""
    h = [sigma_gmf_series(1, 32).coeff(n) for n in range(33)]
    c = [cofiber_series(1, 32).series.coeff(n) for n in range(33)]
    ok = h == [1] * 33 and c == [0] + [1] * 32 and d1_oracle_check(32).ok
    _criterion(3, ok, "hocolim and cofiber match the hand computation up to N=32")


def test_criterion_4_cohomology_injectivity():
    """Every per-degree cohomology matrix of both maps has full column rank
    (rank = source dimension), d <= 6, N = 24.  In the monomial-symmetric
    basis the columns have disjoint supports, so this checks that inserting
    the line's part hits every basis element of Y(i): no column is empty."""
    bad = []
    for d in range(1, 7):
        for i in range(d):
            fm, gm = map_f(i, d, 24), map_g(i, d, 24)
            for n in range(25):
                if fm.cohomology_rank(n) != fm.domain.dim(n):
                    bad.append(("f", i, d, n))
                if gm.cohomology_rank(n) != gm.domain.dim(n):
                    bad.append(("g", i, d, n))
    _criterion(4, not bad,
               f"all per-degree matrices injective for d<=6, N=24 (violations: {bad})")


def test_criterion_5_connectivity_and_negative_degrees():
    """Degree-0 coefficient 1 (connected stratum) and exact agreement of the
    two Thom-spectrum series in all negative degrees, d=1..5.

    The negative-degree and degree-0 statements are independent of the
    truncation, so N=8 suffices.
    """
    ok = True
    for d in range(1, 6):
        sig = sigma_gmf_series(d, 8)
        ok &= sig.min_degree == 0 and sig.coeff(0) == 1
        mt = mt_series(d, 8, "o").series
        m = mtgmf_series(d, 8)
        for n in range(-d, 0):
            ok &= m.lower.coeff(n) == m.upper.coeff(n)  # bounds tight: no split assumption
            ok &= m.split.series.coeff(n) == mt.coeff(n)
    _criterion(5, ok,
               "singular stratum connected; spectra agree in negative degrees for d=1..5")


def test_criterion_6_classifier_vs_oracle():
    """10^4 mixed-strata jets per d in {2,3,5} against the independent
    eigen-sign + kernel-cubic oracle, plus 10^3 orthogonal-invariance pairs.

    The condition-number filter is enforced by construction (see
    _stratified_jet: nonzero eigenvalues live in +-[0.3, 2])."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for d in (2, 3, 5):
        for i in range(10_000):
            jet = _stratified_jet(rng, d, _STRATA[i % len(_STRATA)])
            cls = classify(jet, tol=1e-9)
            if (cls.kind, cls.index, cls.reason) != _oracle_classify(jet, 1e-9):
                mismatches += 1
    inv_fail = 0
    for i in range(1_000):
        d = (2, 3, 5)[i % 3]
        jet = _stratified_jet(rng, d, _STRATA[i % len(_STRATA)])
        U = _random_orthogonal(rng, d)
        a, b = classify(jet), classify(compose_linear(jet, U))
        if (a.kind, a.index, a.reason) != (b.kind, b.index, b.reason):
            inv_fail += 1
    ok = mismatches == 0 and inv_fail == 0
    _criterion(
        6, ok,
        f"30000/30000 oracle agreements, {1000 - inv_fail}/1000 invariance pairs",
    )


def test_criterion_7_birth_death_tracing():
    """Preset events: cusp (one index-0 event at the origin), suspended
    cusps (index i), swallowtail (degenerate flag near t=0); < 5s each."""
    problems = []
    times = {}

    t0 = perf_counter()
    res = trace_birth_death(preset_family("cusp"), -1.0, 1.0)
    times["cusp"] = perf_counter() - t0
    if not (len(res.events) == 1
            and abs(res.events[0].t_star) <= 1e-8
            and abs(res.events[0].x_star[0]) <= 1e-6
            and res.events[0].index == 0):
        problems.append(f"cusp events={res.events}")

    for i in (0, 1, 2):
        name = f"suspended-cusp-{i}"
        t0 = perf_counter()
        res = trace_birth_death(preset_family(name), -1.0, 1.0)
        times[name] = perf_counter() - t0
        if not (len(res.events) == 1 and res.events[0].index == i
                and abs(res.events[0].t_star) <= 1e-8
                and float(np.linalg.norm(res.events[0].x_star)) <= 1e-6):
            problems.append(f"{name} events={res.events}")

    t0 = perf_counter()
    res = trace_birth_death(preset_family("swallowtail"), -1.0, 1.0)
    times["swallowtail"] = perf_counter() - t0
    if not (res.degenerate
            and all(f.reason == KERNEL_CUBIC_VANISHES for f in res.degenerate)
            and all(abs(f.t) <= 1e-6 for f in res.degenerate)):
        problems.append(f"swallowtail flags={res.degenerate}")

    slow = {k: v for k, v in times.items() if v >= 5.0}
    ok = not problems and not slow
    worst = max(times.values())
    _criterion(
        7, ok,
        f"five presets correct, slowest {worst:.2f}s (< 5s each)"
        + (f"; problems: {problems or slow}" if not ok else ""),
    )


def test_criterion_8_normal_form():
    """10^3 random birth-death jets, d <= 5: exact diag {-1,0,1} quadratic
    with the kernel on axis 1, unit cubic there, classification preserved."""
    rng = np.random.default_rng(4096)
    bad = 0
    for _ in range(1_000):
        d = int(rng.integers(1, 6))
        jet = _stratified_jet(rng, d, "birth-death")
        orig = classify(jet)
        res = birth_death_linear_normal_form(jet)
        red = res.reduced
        diag = np.diag(red.quadratic)
        good = (
            np.array_equal(red.quadratic, np.diag(diag))
            and diag[0] == 0.0
            and set(np.unique(diag)) <= {-1.0, 0.0, 1.0}
            and abs(red.cubic[(1, 1, 1)] - 1.0) <= 1e-9
        )
        again = classify(red)
        good = good and (again.kind, again.index) == (BIRTH_DEATH, orig.index)
        if not good:
            bad += 1
    _criterion(8, bad == 0, f"{1000 - bad}/1000 normal forms exact and re-classified")


def test_criterion_9_series_infrastructure():
    """series_BO vs brute-force partition counts (m <= 6, n <= 30) and
    Gaussian-binomial symmetry G(d,n) = G(n,d) (d,n <= 6)."""
    ok = True
    for m in range(7):
        s = series_BO(m, 30)
        for n in range(31):
            ok &= s.coeff(n) == _partition_count(n, m)
    for d, n in iproduct(range(7), range(7)):
        a = series_grassmannian(d, n, d * n)
        b = series_grassmannian(n, d, d * n)
        ok &= [a.coeff(i) for i in range(d * n + 1)] == [b.coeff(i) for i in range(d * n + 1)]
    _criterion(9, ok, "partition counts and Gaussian symmetry exact")
