"""Fiber jets, critical-point continuation, and birth-death tracing on
one-parameter polynomial families.  Derivatives are cross-checked with
finite differences and with the exactness of cubic Taylor data."""

from __future__ import annotations

import itertools
import json
import logging
import time
import warnings

import numpy as np
import pytest

from gmfkit import family_analysis
from gmfkit.family_analysis import (
    BirthDeathEvent,
    PolyFamily,
    check_family_axioms,
    family_from_json_dict,
    family_to_json_dict,
    fiber_critical_points,
    fiber_jet3,
    preset_family,
    trace_birth_death,
)
from gmfkit.jet_core import (
    BIRTH_DEATH,
    DEGENERATE,
    KERNEL_CUBIC_VANISHES,
    NONDEGENERATE,
    classify,
    evaluate,
    jet_from_parts,
)
from planted_folds import planted_family

# ---------------------------------------------------------------------------
# oracles


def _family_value(F: PolyFamily, t, x) -> float:
    """Direct monomial summation, written against the published term format."""
    point = list(np.atleast_1d(t)) + list(np.atleast_1d(x))
    total = 0.0
    for powers, coeff in F.terms:
        term = coeff
        for v, p in zip(point, powers):
            term *= v ** p
        total += term
    return total


def _fd_gradient(F, t, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        g[j] = (_family_value(F, t, x + e) - _family_value(F, t, x - e)) / (2 * h)
    return g


def _fd_hessian_diag(F, t, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x))
    f0 = _family_value(F, t, x)
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        out[j] = (_family_value(F, t, x + e) - 2 * f0 + _family_value(F, t, x - e)) / h ** 2
    return out


def _random_cubic_family(rng, k, d):
    """Random terms of fiber degree <= 3 (so the 3-jet is exact)."""
    terms = []
    for _ in range(int(rng.integers(2, 7))):
        tp = tuple(int(rng.integers(0, 3)) for _ in range(k))
        fiber = [0] * d
        for _ in range(int(rng.integers(0, 4))):
            fiber[int(rng.integers(0, d))] += 1
        terms.append((tp + tuple(fiber), float(rng.normal())))
    return PolyFamily(k, d, tuple(terms))


CUSP = preset_family("cusp")


# ---------------------------------------------------------------------------
# families and fiber jets


def test_poly_family_validation():
    with pytest.raises(ValueError):
        PolyFamily(1, 0, (((0,), 1.0),))
    with pytest.raises(ValueError):
        PolyFamily(1, 1, (((0, 1, 2), 1.0),))  # powers too long
    with pytest.raises(ValueError):
        PolyFamily(1, 1, (((0, -1), 1.0),))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            PolyFamily(1, 1, (((0, 3), 1.0), ((1, 1), bad)))


def test_fiber_jet3_hand_value():
    # cusp fiber at t=3, x=1: value -2, flat gradient, f''/2 = 3, f'''/6 = 1
    jet = fiber_jet3(CUSP, 3.0, [1.0])
    assert jet.constant == -2.0
    assert jet.linear[0] == 0.0
    assert jet.quadratic[0, 0] == 3.0
    assert jet.cubic == {(1, 1, 1): 1.0}


def test_fiber_jet3_exact_for_cubic_families():
    rng = np.random.default_rng(71)
    for _ in range(25):
        k = int(rng.integers(0, 2))
        d = int(rng.integers(1, 4))
        F = _random_cubic_family(rng, k, d)
        t = tuple(rng.uniform(-1.5, 1.5, size=k))
        x0 = rng.uniform(-1.0, 1.0, size=d)
        jet = fiber_jet3(F, t, x0)
        for _ in range(10):
            h = rng.uniform(-1.0, 1.0, size=d)
            want = _family_value(F, t, x0 + h)
            got = evaluate(jet, h)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_fiber_jet3_quartic_remainder():
    # x^4 - t x around x0: the 3-jet misses exactly the h^4 term
    F = preset_family("swallowtail")
    x0 = 0.5
    jet = fiber_jet3(F, 1.0, [x0])
    for h in (-0.7, -0.1, 0.3, 1.1):
        want = _family_value(F, 1.0, [x0 + h])
        got = evaluate(jet, [h])
        assert got - want == pytest.approx(-h ** 4, abs=1e-10)


def test_fiber_jet3_finite_difference_oracle():
    rng = np.random.default_rng(73)
    for _ in range(15):
        d = int(rng.integers(1, 4))
        F = _random_cubic_family(rng, 1, d)
        t = float(rng.uniform(-1.0, 1.0))
        x0 = rng.uniform(-1.0, 1.0, size=d)
        jet = fiber_jet3(F, t, x0)
        assert np.allclose(jet.linear, _fd_gradient(F, (t,), x0), atol=1e-7)
        assert np.allclose(2.0 * np.diag(jet.quadratic),
                           _fd_hessian_diag(F, (t,), x0), atol=1e-5)


def test_calculus_on_rows_matches_the_monomial_sum():
    """Values on an array of points are, bit for bit, the direct monomial
    sum at each point; gradients and Hessians row by row are what each
    point gives alone."""
    rng = np.random.default_rng(79)
    for _ in range(12):
        k, d = int(rng.integers(0, 2)), int(rng.integers(1, 4))
        quartic = (tuple(int(p) for p in rng.integers(0, 5, size=k + d)), float(rng.normal()))
        F = PolyFamily(k, d, _random_cubic_family(rng, k, d).terms + (quartic,))
        calc = family_analysis._calculus(F)
        P = rng.uniform(-2.0, 2.0, size=(7, k + d))
        values, grads, hessians = calc.at(P, "value", "grad", "hess")
        for i, pt in enumerate(P):
            assert values[i] == _family_value(F, pt[:k], pt[k:])
            grad, hess = calc.at(pt, "grad", "hess")
            assert grads[i].tobytes() == grad.tobytes()
            assert hessians[i].tobytes() == hess.tobytes()


def test_calculus_tables_together_match_each_alone():
    """A shared power table, with every power the tables asked for use,
    changes no table's entries: every name evaluated alongside the others
    is, bit for bit, what it gives alone, on rows and at one point."""
    rng = np.random.default_rng(83)
    for _ in range(12):
        k, d = int(rng.integers(0, 2)), int(rng.integers(1, 4))
        quartic = (tuple(int(p) for p in rng.integers(0, 5, size=k + d)), float(rng.normal()))
        F = PolyFamily(k, d, _random_cubic_family(rng, k, d).terms + (quartic,))
        calc = family_analysis._calculus(F)
        ranks = {"value": 0, "grad": 1, "hess": 2, "third": 3}
        if k:
            ranks.update(grad_dt=1, hess_dt=2)
        P = rng.uniform(-2.0, 2.0, size=(5, k + d))
        for pts in (P, P[0]):
            together = calc.at(pts, *ranks)
            for (name, rank), got in zip(ranks.items(), together):
                (alone,) = calc.at(pts, name)
                assert got.shape == alone.shape == pts.shape[:-1] + (d,) * rank
                assert got.tobytes() == alone.tobytes(), (name, k, d)


def test_fiber_jet3_rejects_wrong_param_count():
    with pytest.raises(ValueError):
        fiber_jet3(CUSP, (1.0, 2.0), [0.0])
    F0 = PolyFamily(0, 1, (((3,), 1.0),))
    with pytest.raises(ValueError, match="has 1 entries, expected 0"):
        fiber_jet3(F0, 0.5, [0.5])
    assert fiber_jet3(F0, (), [0.5]).constant == 0.125
    with pytest.raises(ValueError, match=r"parameter \(inf,\) is not finite"):
        fiber_jet3(CUSP, (float("inf"),), [0.5])


def test_huge_points_read_as_non_finite():
    """Powers and products too large for a float read as infinite or NaN:
    the evaluator neither raises nor warns, and a jet there is rejected as
    malformed.  (Tracing on such a box: test_trace_family_huge_box_exits_cleanly.)"""
    calc = family_analysis._calculus(CUSP)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, grad = calc.at((1.0, -1e200), "value", "grad")
        (products,) = calc.at(np.array([[1e200, 1e200], [1.0, 0.5]]), "value")
        with pytest.raises(ValueError, match="finite"):
            fiber_jet3(CUSP, 1e200, [1e200])
    assert value == -np.inf and grad[0] == np.inf
    assert np.isnan(products[0]) and products[1] == 0.5 ** 3 - 0.5


# ---------------------------------------------------------------------------
# critical points in a fiber


def test_fiber_critical_points_cusp():
    pts = fiber_critical_points(CUSP, 3.0, [(-2.0, 2.0)])
    assert len(pts) == 2
    left, right = pts  # sorted by x
    assert left.x[0] == pytest.approx(-1.0, abs=1e-9)
    assert right.x[0] == pytest.approx(1.0, abs=1e-9)
    assert left.value == pytest.approx(2.0, abs=1e-9)
    assert right.value == pytest.approx(-2.0, abs=1e-9)
    assert (left.cls.kind, left.cls.index) == (NONDEGENERATE, 1)
    assert (right.cls.kind, right.cls.index) == (NONDEGENERATE, 0)
    for p in pts:
        assert p.grad_norm <= 1e-10
        assert p.t == 3.0


@pytest.mark.parametrize("name, kind", [
    ("cusp", BIRTH_DEATH), ("swallowtail", DEGENERATE), ("suspended-cusp-0", BIRTH_DEATH),
    ("suspended-cusp-1", BIRTH_DEATH), ("suspended-cusp-2", BIRTH_DEATH)])
def test_fold_fiber_holds_one_point(name, kind):
    """At t = 0 each preset's fiber holds one critical point, at the fold
    and classed as it is, not near-copies of it: the seeds' linear Newton
    tails once stalled at different distances from a multiple root, and
    left the swallowtail four BirthDeath points up to 3e-9 from 0."""
    F = preset_family(name)
    (p,) = fiber_critical_points(F, 0.0, [(-2.0, 2.0)] * F.fiber_dim)
    assert np.abs(p.x).max() <= 1e-12 and p.cls.kind == kind
    if kind == DEGENERATE:
        assert p.cls.reason == KERNEL_CUBIC_VANISHES


def test_fiber_critical_points_empty_fiber():
    # x^3 + x has no real critical points
    assert fiber_critical_points(CUSP, -1.0, [(-2.0, 2.0)]) == []


def test_one_high_power_costs_only_the_powers_in_use():
    """The evaluator makes only the powers its tables use: a term x^20000
    costs three powers of x per call, not 20,000, so the fiber's points come
    in well under a second.  They are the points made with every power
    2..20000 (x^20000 underflows to zero near them)."""
    P = 20000
    F = family_from_json_dict({"param_dim": 1, "fiber_dim": 2, "terms": [
        {"powers": [0, 3, 0], "coeff": 1.0}, {"powers": [1, 1, 0], "coeff": -1.0},
        {"powers": [0, 0, 2], "coeff": 1.0}, {"powers": [0, P, 0], "coeff": 1.0}]})
    start = time.perf_counter()
    pts = fiber_critical_points(F, 0.5, [(-2.0, 2.0)] * 2)
    assert time.perf_counter() - start < 1.0
    assert [(p.x.tolist(), p.value, p.cls.kind, p.cls.index) for p in pts] == [
        ([-0.408248290463863, 0.0], 0.13608276348795434, NONDEGENERATE, 1),
        ([0.408248290463863, 0.0], -0.13608276348795434, NONDEGENERATE, 0)]
    calc = family_analysis._calculus(F)
    calc.at((0.5, 0.1, 0.2), "grad", "hess")
    assert calc.powers[("grad", "hess")] == [[], [2, P - 2, P - 1], []]


def test_fiber_critical_points_param_dim_zero():
    F = PolyFamily(0, 2, (((2, 0), 1.0), ((0, 2), 1.0)))
    pts = fiber_critical_points(F, (), [(-2.0, 2.0)] * 2)
    assert len(pts) == 1
    assert pts[0].t is None
    assert np.allclose(pts[0].x, 0.0, atol=1e-10)
    assert (pts[0].cls.kind, pts[0].cls.index) == (NONDEGENERATE, 0)


def test_fiber_critical_points_one_newton_run_per_seed(monkeypatch):
    """The seed grid is one _newton batch, one row per seed: the 1-d grid's
    8 points, each once.  Fold polishing shares _newton, so only the calls
    made by fiber_critical_points itself are seed runs."""
    calls = []
    newton = family_analysis._newton

    def counting(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(family_analysis, "_newton", counting)
    pts = fiber_critical_points(CUSP, 3.0, [(-2.0, 2.0)])
    assert len(pts) == 2
    assert len(calls) == 1
    z0 = calls[0][1]
    assert z0.shape == (8, 1)
    assert np.array_equal(z0[:, 0], np.linspace(-2.0, 2.0, 8))


def _cubic_pair(a):
    """x^3 + (t^2 - a^2) x - y^2 + z^2: folds at t = +-a."""
    return PolyFamily(1, 3, (((0, 3, 0, 0), 1.0), ((2, 1, 0, 0), 1.0), ((0, 1, 0, 0), -a * a),
                             ((0, 0, 2, 0), -1.0), ((0, 0, 0, 2), 1.0)))


def _rotated_cusp(c):
    """u^3 - (t - c) u + v^2 with u = (x + y)/sqrt2, v = (y - x)/sqrt2: one
    fold at t = c, (x, y) = 0, along the diagonal."""
    r = 1.0 / np.sqrt(2.0)
    return PolyFamily(1, 2, (
        ((0, 3, 0), r ** 3), ((0, 2, 1), 3 * r ** 3), ((0, 1, 2), 3 * r ** 3), ((0, 0, 3), r ** 3),
        ((1, 1, 0), -r), ((1, 0, 1), -r), ((0, 1, 0), c * r), ((0, 0, 1), c * r),
        ((0, 2, 0), 0.5), ((0, 1, 1), -1.0), ((0, 0, 2), 0.5)))


def _newton_calls(monkeypatch, run):
    """The (system, z0, box) of every _newton call that run() makes; the
    prune hook of a seed run is passed on, not recorded."""
    newton, calls = family_analysis._newton, []

    def capture(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(family_analysis, "_newton", capture)
    run()
    monkeypatch.undo()
    return calls


def _trace_seed_batch(F, steps):
    """The (system, seeds, box) of the seed run of trace_birth_death."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _newton_calls(mp, lambda: trace_birth_death(F, -1.0, 1.0, steps=steps))
    return calls[0]


def _seed_batch(F, ts, half=2.0):
    """The (system, seeds, box) of an unpruned seed run on [-half, half]^d:
    the full seed grid once per parameter value of ts, in order, built here
    so that a fiber the interval bound prunes still gets its whole grid."""
    d = F.fiber_dim
    axis = np.linspace(-half, half, family_analysis._auto_grid(d))
    grid = np.array(list(itertools.product(axis, repeat=d)))
    T = np.array(ts, dtype=float).reshape(-1, F.param_dim)
    params = np.repeat(T, len(grid), axis=0)
    calc = family_analysis._calculus(F)

    def system(X, live):
        return calc.at(np.hstack((params[live], X)), "grad", "hess")

    return system, np.tile(grid, (len(T), 1)), (np.full(d, -half), np.full(d, half))


def test_seed_batch_is_what_fiber_critical_points_runs(monkeypatch):
    """Where the bound does not prune, _seed_batch is the batch that
    fiber_critical_points hands _newton, seeds and residuals alike."""
    for name, t in [("cusp", 0.37), ("swallowtail", -1.0), ("suspended-cusp-2", 0.0)]:
        F = preset_family(name)
        ((system, seeds, box),) = _newton_calls(
            monkeypatch, lambda: fiber_critical_points(F, t, [(-2.0, 2.0)] * F.fiber_dim))
        own_system, own_seeds, own_box = _seed_batch(F, [t])
        assert np.array_equal(seeds, own_seeds) and np.array_equal(box, own_box)
        rows = np.arange(len(seeds))
        for got, want in zip(system(seeds, rows), own_system(seeds, rows)):
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", ["cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1",
                                  "suspended-cusp-2", "cubic-pair"])
@pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.37, 1.0])
def test_batched_newton_rows_are_independent(name, t):
    """Each row of a batched _newton run gives, bit for bit, what the same
    seed gives alone, whichever guard ends its run."""
    F = _cubic_pair(0.37) if name == "cubic-pair" else preset_family(name)
    system, seeds, box = _seed_batch(F, [t])
    batch = family_analysis._newton(system, seeds, box)
    assert batch.shape == seeds.shape
    for i in range(len(seeds)):
        alone = family_analysis._newton(system, seeds[i:i + 1], box)
        assert batch[i].tobytes() == alone[0].tobytes(), (name, t, i)


def test_batched_newton_singular_and_failing_rows():
    # suspended-cusp-2 at t = 0: the 3-point grid puts seeds at x = 0, where
    # f_xx = 0, so the stacked solve of the first step raises
    system, seeds, box = _seed_batch(preset_family("suspended-cusp-2"), [0.0])
    r, J = system(seeds, np.arange(len(seeds)))
    singular = np.linalg.det(J) == 0.0
    assert singular.any() and not singular.all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, r[:, :, None])
    out = family_analysis._newton(system, seeds, box)
    assert np.isfinite(out).all(axis=1).any()
    # the cusp at t = -1 has no critical points: every row fails
    system, seeds, box = _seed_batch(CUSP, [-1.0])
    assert len(seeds) == 8 and np.isnan(family_analysis._newton(system, seeds, box)).all()


def test_leaders_match_unique_first_indices():
    """_newton's group merge: each row's leader is the first index np.unique
    gives its key, on keys with many duplicate rows, negative entries and
    float bit patterns viewed as int64, down to one row and to none."""
    rng = np.random.default_rng(34)
    for rows in (0, 1, 2, 7, 60, 500):
        for cols in (1, 2, 3):
            key = rng.integers(-3, 3, size=(rows, cols))
            key[:, -1] = rng.choice(np.array([0.0, -0.0, 1.5, -2.25]), rows).view(np.int64)
            _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
            assert family_analysis._leaders(key).tolist() == first[inverse.ravel()].tolist()


def test_dedup_matches_the_pairwise_norm(monkeypatch):
    """_dedup keeps, bit for bit and in order, the points that the pairwise
    rule keeps: a point goes when its _distance to one kept before it is
    within the radius.  The near copies lie on both sides of the radius,
    along random directions, axes and diagonals; the exact repeats copy
    points the rule keeps and points it drops, and a +-0.0 pair."""
    rng = np.random.default_rng(5)
    r = family_analysis.DEDUP_RADIUS
    calls = []
    distance = family_analysis._distance
    monkeypatch.setattr(family_analysis, "_distance", lambda x, y: calls.append(1) or distance(x, y))
    for d in (1, 2, 3, 6):
        base = rng.uniform(-2.0, 2.0, size=(5, d))
        dirs = np.concatenate([rng.normal(size=(40, d)), np.eye(d), np.ones((1, d))])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        scales = r * np.concatenate([rng.uniform(0.3, 1.3, size=len(dirs)),
                                     [1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.0 / np.sqrt(d)]])
        offsets = dirs[rng.integers(len(dirs), size=len(scales))] * scales[:, None]
        copies = base[rng.integers(len(base), size=len(scales))] + offsets
        pts = np.concatenate([base, copies, [[1e308] * d, [-1e308] * d], [[0.0] * d]])
        rng.shuffle(pts)
        # exact repeats of every kind of row, after their first copies
        pts = np.concatenate([pts, pts[rng.integers(len(pts), size=20)], [[-0.0] * d]])
        want = []
        for x in pts:
            if all(distance(x, y) > r for y in want):
                want.append(x)
        calls.clear()
        got = pts[family_analysis._dedup(np.zeros(len(pts), dtype=np.int64), pts, r)]
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], d
        assert len(base) + 2 <= len(got) < len(pts)
        kept = {x.tobytes() for x in want}
        assert {x.tobytes() in kept for x in pts[-21:-1]} == {True, False}, d
        # the repeats are dropped unmeasured
        measured = len(calls)
        calls.clear()
        family_analysis._dedup(np.zeros(len(pts) - 21, dtype=np.int64), pts[:-21], r)
        assert len(calls) == measured, d


def _pairwise_rule(pts, r):
    """The indices of the rows of pts that the pairwise rule keeps, in order."""
    kept = []
    for i, x in enumerate(pts):
        if all(family_analysis._distance(x, pts[j]) > r for j in kept):
            kept.append(i)
    return kept


def test_dedup_keeps_each_fiber_apart():
    """_dedup on the interleaved rows of several fibers keeps, in order,
    what the pairwise rule keeps on each fiber alone: a +-0.0 pair of one
    fiber is one row, while a row equal to, or within the radius of, a row
    of another fiber is no repeat there.  Offsets from 0 along an axis,
    exact floats, sit just inside and just outside the radius."""
    rng = np.random.default_rng(37)
    r = family_analysis.DEDUP_RADIUS
    for d in (1, 2, 3):
        base = rng.uniform(-2.0, 2.0, size=(6, d))
        near = base[rng.integers(6, size=40)] + rng.uniform(-r, r, size=(40, d))
        pts = np.concatenate([base, near, base[rng.integers(6, size=10)]])
        fiber = rng.integers(0, 4, size=len(pts))
        # far from the rest: one row in fibers 0 and 1, a +-0.0 pair in fiber 2, -0.0 in fiber 3
        pts = np.concatenate([pts, [[5.0] * d, [5.0] * d, [0.0] * d, [-0.0] * d, [-0.0] * d]])
        fiber = np.concatenate([fiber, [0, 1, 2, 2, 3]])
        axis = np.zeros((4, d))
        axis[1, 0], axis[3, d - 1] = r * (1.0 - 1e-12), r * (1.0 + 1e-12)
        pts, fiber = np.concatenate([pts, axis]), np.concatenate([fiber, [4, 4, 5, 5]])
        got = family_analysis._dedup(fiber, pts, r).tolist()
        want = sorted(np.flatnonzero(fiber == f)[k]
                      for f in range(6) for k in _pairwise_rule(pts[fiber == f], r))
        assert got == want, d
        n = len(pts) - 4
        assert {n - 5, n - 4, n - 1} <= set(got) and n - 2 not in got, d  # one row per fiber
        assert got[-3:] == [n, n + 2, n + 3], d
        assert len(got) < n - len(base), d


def _one_row_solves(J, r):
    """Each row's step solved on its own, and which rows have one."""
    steps, solved = np.zeros_like(r), np.zeros(len(r), dtype=bool)
    for i in range(len(r)):
        try:
            steps[i] = np.linalg.solve(J[i:i + 1], r[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            continue
        solved[i] = True
    return steps, solved


def _first_step_batches():
    """(name, J, r) of the first Newton step of every trace the benchmark runs."""
    families = [(name, preset_family(name)) for name in
                ("cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1", "suspended-cusp-2")]
    families += [("cubic-pair", _cubic_pair(0.37)), ("rotated-cusp", _rotated_cusp(0.113))]
    for name, F in families:
        system, seeds, _ = _trace_seed_batch(F, 41)
        r, J = system(seeds, np.arange(len(seeds)))
        yield name, J, r


def _singular_stacks():
    """Random stacks with exactly singular members: a zero column, two equal
    integer rows, and one NaN matrix, which is not singular."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        J = rng.normal(size=(60, n, n))
        J[::7, :, rng.integers(n)] = 0.0
        ints = rng.integers(-3, 4, size=(20, n, n)).astype(float)
        if n > 1:
            ints[::2, -1] = ints[::2, 0]
        J[1::3] = ints
        J[5, 0, 0] = np.nan
        yield f"random-{n}", J, rng.normal(size=(60, n))


def test_singular_fallback_matches_one_row_solves():
    """When a stacked solve raises, the rows that are solved and their steps
    are exactly what one-row solves give."""
    fell_back = []
    for name, J, r in list(_first_step_batches()) + list(_singular_stacks()):
        step, solved = family_analysis._solve_rows(J, r)
        alone, alone_solved = _one_row_solves(J, r)
        assert np.array_equal(solved, alone_solved), name
        assert step[solved].tobytes() == alone[solved].tobytes(), name
        if not solved.all():
            fell_back.append(name)
    assert set(fell_back) == {"suspended-cusp-2", "rotated-cusp",
                              "random-1", "random-2", "random-3", "random-4"}


def test_newton_overflowing_step_ends_the_run():
    """A step whose norm overflows ends its run as a non-finite step does:
    the iterate is not taken and no overflow warning is raised."""
    box = (np.array([-1.0]), np.array([1.0]))

    def system(Z, live):
        # one fiber coordinate, one parameter; the parameter's step is 1e300
        J = np.tile(np.diag([1.0, 1e-300]), (len(Z), 1, 1))
        return np.ones_like(Z), J

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = family_analysis._newton(system, np.zeros((2, 2)), box)
        # the family whose fold polish first showed the overflow
        F = PolyFamily(1, 2, (((0, 4, 0), -0.3), ((1, 0, 3), 1.7),
                              ((0, 1, 1), 0.2), ((0, 0, 2), 1.0)))
        rep = check_family_axioms(F, -1.0, 1.0, steps=11)
    assert np.isnan(out).all()
    assert rep.verdict("gmf") == "Pass" and rep.warnings == ()


# ---------------------------------------------------------------------------
# the interval bound that skips fibers with no in-box critical point


_BOUND_FAMILIES = [(name, preset_family(name)) for name in
                   ("cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1",
                    "suspended-cusp-2", "suspended-cusp-3", "suspended-cusp-4")]
_BOUND_FAMILIES += [("cubic-pair", _cubic_pair(0.37)), ("rotated-cusp", _rotated_cusp(0.113))]
# the 41-point grid on [-1, 1] and seeded random values beyond it
_BOUND_TS = np.concatenate([np.linspace(-1.0, 1.0, 41),
                            np.random.default_rng(11).uniform(-1.5, 1.5, 24)])


def _inner(box):
    """The bounds of the test a kept point must pass to lie in box."""
    return box[0] - 1e-12, box[1] + 1e-12


def _upfront(F, ts, box):
    """Which fibers of ts _critical_points skips before the seed run: the
    box test over the in-box test's bounds, level 0 of the subdivision."""
    lo, hi = _inner(box)
    return family_analysis._calculus(F)._gradient_excluded(
        ts[:, None], np.tile(lo, (len(ts), 1)), np.tile(hi, (len(ts), 1)))


def _bound_verdicts():
    """(name, half, ts, proven) for every family and box half-width: what
    the up-front box test proves."""
    for name, F in _BOUND_FAMILIES:
        for half in (0.5, 2.0, 7.0):
            _, _, box = _seed_batch(F, _BOUND_TS, half)
            yield name, half, _BOUND_TS, _upfront(F, _BOUND_TS, box)


def _kept_in_box(verdicts):
    """Each (name, half, t) of verdicts whose fiber is proven although
    _newton from the full seed grid keeps an in-box point there."""
    families = dict(_BOUND_FAMILIES)
    for name, half, ts, proven in verdicts:
        d = families[name].fiber_dim
        system, seeds, box = _seed_batch(families[name], ts[proven], half)
        Z = family_analysis._newton(system, seeds, box).reshape(-1, family_analysis._auto_grid(d) ** d, d)
        lo, hi = _inner(box)
        for t in ts[proven][((Z >= lo) & (Z <= hi)).all(axis=2).any(axis=1)]:
            yield name, half, float(t)


def test_interval_bound_is_sound():
    """On every fiber the up-front bound proves, _newton from the full seed
    grid keeps no in-box point, so skipping its seeds drops no sample."""
    assert list(_kept_in_box(_bound_verdicts())) == []


def test_interval_bound_fires_only_off_the_critical_points():
    """The bound proves the cusp-type fibers at t < 0 (and |t| > a for the
    cubic pair) and none where a critical point lies in the box: the cusp
    at 0 < t <= 3 half^2, the swallowtail at |t| <= 4 half^3.  So on the
    box of half-width 1/2 it also proves the cusp-type fibers at t > 3/4
    and the swallowtail's at |t| > 1/2, whose critical points have left the
    box.  The rotated cusp mixes odd powers of x and y in each gradient
    entry and is never proven."""
    for name, half, ts, proven in _bound_verdicts():
        if name == "cubic-pair":
            assert np.array_equal(proven, np.abs(ts) > 0.37), half
        elif name == "rotated-cusp" or (name == "swallowtail" and half > 0.5):
            assert not proven.any(), (name, half)
        elif name == "swallowtail":
            assert np.array_equal(proven, np.abs(ts) > 0.5) and proven.sum() == 34
        elif half == 0.5:
            assert np.array_equal(proven, (ts < 0.0) | (ts > 0.75)) and proven.sum() == 41, name
        else:
            assert np.array_equal(proven, ts < 0.0) and proven.sum() == 31, (name, half)


def _broken_bound(monkeypatch, broken):
    if broken == "margin -1":
        monkeypatch.setattr(family_analysis, "_margin", lambda size, ops: -1.0)
    else:
        monkeypatch.setattr(family_analysis, "_power_range", lambda a, b, p: (
            np.maximum(np.maximum(a, -b), 0.0) ** p, np.maximum(-a, b) ** p))


@pytest.mark.parametrize("broken", ["margin -1", "odd powers as even"])
def test_interval_bound_check_catches_broken_bounds(monkeypatch, broken):
    """The soundness check of the up-front bound fails when the margin is
    -1 or when odd powers are bounded as even ones."""
    _broken_bound(monkeypatch, broken)
    assert next(_kept_in_box(_bound_verdicts()), None) is not None


# ---------------------------------------------------------------------------
# the box subdivision that stops Newton on fibers with no in-box point


def _subdivision_verdicts():
    """(name, half, ts, proven) for every family and box half-width: what
    rootless_in_box proves."""
    for name, F in _BOUND_FAMILIES:
        calc = family_analysis._calculus(F)
        for half in (0.5, 2.0, 7.0):
            _, _, box = _seed_batch(F, _BOUND_TS, half)
            yield name, half, _BOUND_TS, calc.rootless_in_box(_BOUND_TS[:, None], _inner(box))


def test_box_subdivision_is_sound():
    """On every fiber the subdivision proves, _newton from the full seed
    grid keeps no in-box point, so stopping its rows drops no sample."""
    assert list(_kept_in_box(_subdivision_verdicts())) == []


def test_box_subdivision_proves_more_than_the_bound():
    """The up-front bound is the subdivision's level 0, so the subdivision
    proves every fiber the bound proves; it also proves the rotated cusp's
    fibers short of the fold, which the bound never does (on the widest
    box, all but t = 0.1, which would need more levels), and on the box of
    half-width 1/2 no cusp fiber beyond those the bound proves."""
    for (name, half, ts, proven), (*_, upfront) in zip(_subdivision_verdicts(), _bound_verdicts()):
        assert (proven >= upfront).all(), (name, half)
        if name == "rotated-cusp":
            short = (ts < 0.113) & ((half < 7.0) | (np.abs(ts - 0.1) > 1e-9))
            assert np.array_equal(proven, short), half
            assert not upfront.any()
        elif name == "cusp" and half == 0.5:
            assert np.array_equal(proven, (ts < 0.0) | (ts > 0.75))


@pytest.mark.parametrize("broken", ["margin -1", "odd powers as even"])
def test_box_subdivision_check_catches_broken_bounds(monkeypatch, broken):
    """The soundness check of the subdivision fails when the margin is -1
    or when odd powers are bounded as even ones."""
    _broken_bound(monkeypatch, broken)
    assert next(_kept_in_box(_subdivision_verdicts()), None) is not None


def test_rotated_cusp_rows_stop_at_the_prune_step(monkeypatch):
    """On the benchmark's rotated cusp the subdivision, run once at step
    PRUNE_STEP, proves exactly the 23 grid values t < 0.113, which the
    up-front bound proves none of; their rows are live up to that step and none is
    evaluated after it, but for _newton's closing check, which evaluates
    each fiber's rows that no merge folded into another."""
    F = _rotated_cusp(0.113)
    ts = np.linspace(-1.0, 1.0, 41)
    m = family_analysis._auto_grid(2) ** 2
    subdivide, newton = family_analysis._FamilyCalculus.rootless_in_box, family_analysis._newton
    proven_ts, lives = [], []

    def recording_subdivide(self, T, box):
        proven = subdivide(self, T, box)
        proven_ts.append(T[proven, 0])
        return proven

    def recording_newton(system, z0, box, **kwargs):
        if z0.shape[1] == 2:  # the seed run, not the fold polish
            def system_seen(X, live):
                lives.append(live.copy())
                return system(X, live)
            return newton(system_seen, z0, box, **kwargs)
        return newton(system, z0, box, **kwargs)

    monkeypatch.setattr(family_analysis._FamilyCalculus, "rootless_in_box", recording_subdivide)
    monkeypatch.setattr(family_analysis, "_newton", recording_newton)
    res = trace_birth_death(F, -1.0, 1.0, steps=41)
    assert [e.index for e in res.events] == [0]
    assert not _upfront(F, ts, _seed_batch(F, ts)[2]).any()
    (proven,) = proven_ts
    assert np.array_equal(proven, ts[ts < 0.113]) and len(proven) == 23
    stopped = np.flatnonzero(ts < 0.113)  # fibers in seed-run order: none is left out
    step = family_analysis.PRUNE_STEP
    assert np.isin(lives[step - 1] // m, stopped).sum() > 0
    assert not any(np.isin(live // m, stopped).any() for live in lives[step:-1])
    assert np.array_equal(np.unique(lives[-1] // m), np.arange(41)) and len(lives[-1]) < 41 * m


_PRUNE_CASES = [(name, preset_family(name), 2.0, 41) for name in
                ("cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1", "suspended-cusp-2")]
_PRUNE_CASES += [("cubic-pair", _cubic_pair(0.37), 2.0, 41), ("rotated-cusp", _rotated_cusp(0.113), 2.0, 41),
                 ("rotated-cusp-7", _rotated_cusp(0.113), 7.0, 101),
                 ("tx-tx4-1e69", PolyFamily(1, 1, (((1, 1), -1.11), ((1, 4), -0.77))), 1e69, 5)]


@pytest.mark.parametrize("name, F, half, steps", _PRUNE_CASES, ids=[c[0] for c in _PRUNE_CASES])
def test_prune_changes_no_sample(monkeypatch, name, F, half, steps):
    """_critical_points gives, bit for bit, the same points with the prune
    hook and the merged rows as without either."""
    box = [(-half, half)] * F.fiber_dim
    ts = [(float(t),) for t in np.linspace(-1.0, 1.0, steps)]
    pruned = family_analysis._critical_points(F, ts, box)
    newton = family_analysis._newton
    monkeypatch.setattr(family_analysis, "_newton",
                        lambda system, z0, box, prune=None, group=None: newton(system, z0, box))
    unpruned = family_analysis._critical_points(F, ts, box)
    assert [[_point_bits(p) for p in pts] for pts in pruned] == \
        [[_point_bits(p) for p in pts] for pts in unpruned]


def test_fold_polish_stall_scale_counts_the_parameter(monkeypatch):
    """Near t = 1000 an ulp of t is about 1e-13, so a fold-polish step does
    not fall below 1e-14 (1 + |x|) until it rounds to zero.  Each row of the
    rotated cusp's polish there that no guard ends stops on its first step
    within 1e-14 (1 + |x| + |t|) of the iterate it steps to, and on some
    rows that step exceeds 1e-14 (1 + |x|): the parameter decides the stall."""
    F = _rotated_cusp(1000.113)
    fa, d = family_analysis, F.fiber_dim
    candidates = [(t, np.array(x), None) for t in (1000.1, 1000.125, 1000.2)
                  for x in ((0.0, 0.0), (0.1, 0.1), (0.05, -0.02))]
    calc, fiber_box = fa._calculus(F), (np.full(d, -2.0), np.full(d, 2.0))
    ((system, z0, box),) = _newton_calls(
        monkeypatch, lambda: fa._refine_fold(calc, candidates, fiber_box, 0.05))
    decided = []
    for i in range(len(z0)):
        seen = []
        fa._newton(lambda z, live: seen.append(z) or system(z, live + i), z0[i:i + 1], box)
        z = np.concatenate(seen)  # the iterate of each step, then the final one
        step = fa._solve_rows(*system(z[:-1], np.full(len(z) - 1, i))[::-1])[0]
        zn = z[:-1] - step
        assert zn.tobytes() == z[1:].tobytes(), i  # no guard ends these rows
        norm, x_norm = fa._row_norms(step), fa._row_norms(zn[:, :d])
        stalled = norm <= 1e-14 * (1.0 + x_norm + np.abs(zn[:, d]))
        assert stalled.tolist() == [False] * (len(step) - 1) + [True], i
        decided.append(bool(norm[-1] > 1e-14 * (1.0 + x_norm[-1])))
    assert any(decided)


def _polish_batches(monkeypatch):
    """The (calc, candidates, box, grid_dt) of each _refine_fold batch, and
    the trace result, for the seven bench families traced on [-1, 1]."""
    refine = family_analysis._refine_fold
    batches = []
    monkeypatch.setattr(family_analysis, "_refine_fold",
                        lambda *args: batches.append(args) or refine(*args))
    results = [trace_birth_death(F, -1.0, 1.0) for _, F, _, _ in _PRUNE_CASES[:7]]
    monkeypatch.setattr(family_analysis, "_refine_fold", refine)
    assert len(batches) == 7 and max(len(b[1]) for b in batches) > 1
    return batches, results


def test_fold_polish_rows_are_what_each_gives_alone(monkeypatch):
    """The fold polish is one _newton batch; each of its rows gives, bit for
    bit, what its candidate gives polished alone."""
    refine = family_analysis._refine_fold
    for calc, candidates, box, grid_dt in _polish_batches(monkeypatch)[0]:
        for c, got in zip(candidates, refine(calc, candidates, box, grid_dt)):
            (alone,) = refine(calc, [c], box, grid_dt)
            assert got.tobytes() == alone.tobytes()


def _parent_fold_system(calc):
    """The fold system evaluated row by row, one eigh and one set of kernel
    products per row: the reference for _refine_fold's batched one."""
    d = calc.d

    def system(Z, live):
        grad, H, T, grad_dt, H_dt = calc.at(np.hstack((Z[:, d:], Z[:, :d])),
                                            "grad", "hess", "third", "grad_dt", "hess_dt")
        r, J = np.full((len(Z), d + 1), np.nan), np.full((len(Z), d + 1, d + 1), np.nan)
        for i in range(len(Z)):
            if not np.isfinite(H[i]).all():
                continue
            w, V = np.linalg.eigh(H[i])
            i0 = int(np.argmin(np.abs(w)))
            v = V[:, i0]
            J[i, :d, :d] = H[i]
            J[i, :d, d] = grad_dt[i]
            for c in range(d):  # T[i, :, :, c] = dH/dx_c
                J[i, d, c] = float(v @ T[i, :, :, c] @ v)
            J[i, d, d] = float(v @ H_dt[i] @ v)
            r[i, :d], r[i, d] = grad[i], float(w[i0])
        return r, J

    return system


def _parent_polish(F, candidates, box, grid_dt):
    """Each candidate polished and classified on its own: the per-row fold
    system in one _newton run, the polished point kept within 2 grid_dt and
    the box +-1e-9, then fiber_jet3, classify at EVENT_TOL and det H from a
    second at().  Per candidate (t, x, verdict, det, H), the last three None
    where the jet is too large for a float."""
    calc = family_analysis._calculus(F)
    d, (lo, hi) = calc.d, box
    z0 = np.array([tuple(x) + (t,) for t, x, *_ in candidates], dtype=float)
    out = []
    for (t, x, *_), z in zip(candidates, family_analysis._newton(_parent_fold_system(calc), z0, box)):
        if (not np.isnan(z).any() and abs(float(z[d]) - t) <= 2.0 * grid_dt
                and np.all(z[:d] >= lo - 1e-9) and np.all(z[:d] <= hi + 1e-9)):
            t, x = float(z[d]), z[:d]
        try:
            jet = fiber_jet3(F, (t,), x)
        except ValueError:
            out.append((t, x, None, None, None))
            continue
        (H,) = calc.at((t,) + tuple(x), "hess")
        out.append((t, x, classify(jet, family_analysis.EVENT_TOL), float(np.linalg.det(H)), H))
    return out


def _parent_trace_tail(outcomes, candidates, span):
    """Events, flags and warnings from _parent_polish's outcomes, as
    trace_birth_death makes them."""
    slack = 1e-6 * span
    events, degenerate, unlocated = [], [], []
    for (t, x, cls, det, H), (_, _, must) in zip(outcomes, candidates):
        if cls is None:
            if must is not None:
                unlocated.append(must)
            continue
        if must is not None and not (cls.kind in (BIRTH_DEATH, DEGENERATE)
                                     and must[0] - slack <= t <= must[1] + slack):
            unlocated.append(must)
        if cls.kind == BIRTH_DEATH:
            if not family_analysis._near_duplicate(((e[0], e[1]) for e in events), t, x, span):
                events.append((t, x, cls.index, det, H))
        elif cls.kind == DEGENERATE:
            if not family_analysis._near_duplicate(((f[0], f[1]) for f in degenerate), t, x, span):
                degenerate.append((t, x, cls.reason))
    located = [e[:2] for e in events] + [f[:2] for f in degenerate]
    warned = []
    for t_lo, t_hi, why, p, q in unlocated:
        sep = family_analysis._distance(p.x, q.x)
        if DEGENERATE not in (p.cls.kind, q.cls.kind) and not any(
                t_lo - slack <= t <= t_hi + slack
                and min(family_analysis._distance(x, p.x), family_analysis._distance(x, q.x)) <= sep
                for t, x in located):
            warned.append(f"fold not located on [{t_lo!r}, {t_hi!r}], where {why}")
    return sorted(events, key=lambda e: e[0]), sorted(degenerate, key=lambda f: f[0]), warned


def _assert_rows_close(new, old):
    """new and old agree row by row within 1e-12 of the row's largest finite
    magnitude, and non-finite entry for non-finite entry."""
    new, old = new.reshape(len(new), -1), old.reshape(len(old), -1)
    finite = np.isfinite(old)
    assert np.array_equal(new[~finite], old[~finite], equal_nan=True)
    scale = np.where(finite, np.abs(old), 0.0).max(axis=1, keepdims=True, initial=0.0)
    assert (np.abs(new - old) <= 1e-12 * scale)[finite].all()


def _det_close(got, det, H) -> bool:
    """got within 1e-12 of det, relative to the d-th power of H's largest
    entry: det H cancels to near 0 at a fold."""
    return abs(got - det) <= 1e-12 * max(1.0, float(np.abs(H).max())) ** len(H)


def _assert_polish_matches_the_parent(monkeypatch, F, candidates, box, grid_dt):
    """_refine_fold's system against _parent_fold_system on the start rows
    and the returned ones, and each returned point, classified from one at()
    call with det H from the same Hessians, against _parent_polish."""
    calc = family_analysis._calculus(F)
    d = calc.d
    newton, systems = family_analysis._newton, []
    monkeypatch.setattr(family_analysis, "_newton",
                        lambda system, z0, box: systems.append(system) or newton(system, z0, box))
    P = family_analysis._refine_fold(calc, candidates, box, grid_dt)
    monkeypatch.setattr(family_analysis, "_newton", newton)
    C = np.array([(t,) + tuple(x) for t, x, *_ in candidates])
    Z = np.vstack((C, P))[:, list(range(1, d + 1)) + [0]]  # as (x, t) rows
    for got, want in zip(systems[0](Z, np.arange(len(Z))), _parent_fold_system(calc)(Z, None)):
        _assert_rows_close(got, want)
    value, grad, hess, third = calc.at(P, "value", "grad", "hess", "third")
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(hess)
    reference = _parent_polish(F, candidates, box, grid_dt)
    for i, (t, x, cls, det, H) in enumerate(reference):
        assert abs(P[i, 0] - t) <= 1e-12 and np.abs(P[i, 1:] - x).max() <= 1e-12
        try:
            got = classify(jet_from_parts(d, value[i], grad[i], hess[i] / 2.0, third[i] / 6.0),
                           family_analysis.EVENT_TOL)
        except ValueError:
            assert cls is None
            continue
        assert (got.kind, got.index, got.reason) == (cls.kind, cls.index, cls.reason)
        assert _det_close(dets[i], det, H)
    return reference


def test_fold_polish_batch_matches_the_per_candidate_reference(monkeypatch):
    """On each bench family's polish batch, the batched fold system and the
    one-evaluation classification match the per-row system and the
    per-candidate polish they replace, and so do the trace's events, flags
    and warnings."""
    for (calc, candidates, box, grid_dt), res in zip(*_polish_batches(monkeypatch)):
        F = next(F for _, F, _, _ in _PRUNE_CASES[:7] if family_analysis._calculus(F) is calc)
        outcomes = _assert_polish_matches_the_parent(monkeypatch, F, candidates, box, grid_dt)
        events, degenerate, warned = _parent_trace_tail(outcomes, candidates, 2.0)
        assert len(res.events) == len(events) and len(res.degenerate) == len(degenerate)
        for e, (t, x, index, det, H) in zip(res.events, events):
            assert abs(e.t_star - t) <= 1e-12 and np.abs(e.x_star - x).max() <= 1e-12
            assert e.index == index and _det_close(e.det_hessian, det, H)
        for f, (t, x, reason) in zip(res.degenerate, degenerate):
            assert abs(f.t - t) <= 1e-12 and np.abs(f.x - x).max() <= 1e-12 and f.reason == reason
        assert list(res.warnings) == warned


# x^3 + t x y + (t^2 - 0.09) x + (1 + t/2) y^2 + 0.3 t y^3: folds near
# t = +-0.3, where the Hessian moves with t, unlike in the presets
_T_IN_THE_HESSIAN = PolyFamily(1, 2, (((0, 3, 0), 1.0), ((1, 1, 1), 1.0), ((2, 1, 0), 1.0),
                                      ((0, 1, 0), -0.09), ((1, 0, 2), 0.5), ((0, 0, 2), 1.0),
                                      ((1, 0, 3), 0.3)))


@pytest.mark.parametrize("F", [preset_family("swallowtail"), _rotated_cusp(0.113),
                               preset_family("suspended-cusp-1"), _T_IN_THE_HESSIAN],
                         ids=["swallowtail", "rotated-cusp", "suspended-cusp-1", "t-in-the-hessian"])
def test_fold_polish_random_batch_matches_the_per_candidate_reference(monkeypatch, F):
    """A seeded batch of candidates over the box, a tenth of them so far out
    that their Hessian is not finite and their run ends at once, matches the
    per-candidate reference with windows of 0.1 and 2 in t; in the wider one
    most rows polish."""
    d = F.fiber_dim
    rng = np.random.default_rng(35)
    X = rng.uniform(-2.0, 2.0, size=(60, d))
    X[::10] = 1e308
    candidates = [(float(t), x, None) for t, x in zip(rng.uniform(-1.0, 1.0, 60), X)]
    box = (np.full(d, -2.0), np.full(d, 2.0))
    (H,) = family_analysis._calculus(F).at(np.column_stack((np.zeros(60), X)), "hess")
    assert (~np.isfinite(H).all(axis=(1, 2))).sum() == 6
    for grid_dt in (0.05, 1.0):
        outcomes = _assert_polish_matches_the_parent(monkeypatch, F, candidates, box, grid_dt)
    kinds = [cls and cls.kind for _, _, cls, _, _ in outcomes]
    assert kinds.count(None) == 6 and {BIRTH_DEATH, DEGENERATE} & set(kinds)


@pytest.mark.parametrize("lo, grid_dt, polished", [
    (-2.0, 0.005, True),   # |t* - t| = 2 grid_dt
    (-2.0, 0.004, False),  # beyond 2 grid_dt
    (5e-10, 0.01, True),   # x* = 0 within 1e-9 of the box
    (1e-8, 0.01, False),   # x* = 0 beyond it
])
def test_fold_polish_keeps_a_point_near_its_candidate_and_the_box(lo, grid_dt, polished):
    """The cusp's candidate (t, x) = (0.01, 0.05) polishes to its fold (0, 0),
    which _refine_fold returns only within 2 grid_dt of t and 1e-9 of the
    fiber box, and the candidate's own point otherwise."""
    (row,) = family_analysis._refine_fold(family_analysis._calculus(CUSP),
                                          [(0.01, np.array([0.05]), None)],
                                          (np.array([lo]), np.array([2.0])), grid_dt)
    assert row.tolist() == ([0.0, 0.0] if polished else [0.01, 0.05])


# ---------------------------------------------------------------------------
# seed rows that coincide after the first Newton step run once


def _counting(system):
    """system, and the list of the live row counts it is called with."""
    counts = []

    def counted(X, live):
        counts.append(len(live))
        return system(X, live)

    return counted, counts


@pytest.mark.parametrize("name, F, half, steps", _PRUNE_CASES, ids=[c[0] for c in _PRUNE_CASES])
def test_grouped_seed_run_is_the_ungrouped_one(name, F, half, steps):
    """With each row grouped by its fiber, the seed batch's _newton output is,
    bit for bit and NaN for NaN, what it is without groups, and so is what a
    prune hook is handed: the fibers with a live row and the best iterates.
    The families quadratic in some coordinates evaluate fewer rows."""
    system, seeds, box = _seed_batch(F, np.linspace(-1.0, 1.0, steps), half)
    m = family_analysis._auto_grid(F.fiber_dim) ** F.fiber_dim
    seen = []

    def prune(live, best):
        seen.append((set((live // m).tolist()), best.tobytes()))
        return live

    counted, grouped_rows = _counting(system)
    grouped = family_analysis._newton(counted, seeds, box, prune, group=np.arange(len(seeds)) // m)
    counted, rows = _counting(system)
    assert grouped.tobytes() == family_analysis._newton(counted, seeds, box, prune).tobytes()
    assert len(seen) in (0, 2) and seen[:1] == seen[1:]
    assert sum(grouped_rows) <= sum(rows)
    if name.startswith("suspended-cusp") or name == "cubic-pair":
        assert 2 * sum(grouped_rows) < sum(rows), name


def _step_table_system(tables, group):
    """A one-coordinate system with no parameter whose Newton step from z,
    for a row of group g, is tables[g][z] = (residual, step), else (1, 1).
    Residuals and steps are powers of two, so every step lands exactly, and
    a residual of 2^-40 is within NEWTON_TOL."""
    def system(Z, live):
        r, s = np.array([tables[g].get(z, (1.0, 1.0))
                         for g, z in zip(group[live].tolist(), Z[:, 0].tolist())]).reshape(-1, 2).T
        return r[:, None], (r / s)[:, None, None]
    return system


def _assert_rows_alone(system, seeds, group):
    """Each row of the grouped run gives what it gives alone, and the run
    evaluates fewer rows from its second step on."""
    counted, counts = _counting(system)
    out = family_analysis._newton(counted, seeds, (np.array([-1.0]), np.array([1.0])), group=group)
    for i in range(len(seeds)):
        alone = family_analysis._newton(lambda X, live: system(X, live + i), seeds[i:i + 1],
                                        (np.array([-1.0]), np.array([1.0])))
        assert out[i].tobytes() == alone[0].tobytes(), i
    assert counts[1] < counts[0]
    return out[:, 0]


def test_merged_rows_keep_their_own_first_iterate():
    """Rows that meet after the first step and never converge again: a row
    whose seed was within NEWTON_TOL keeps its seed whether it leads or
    follows, and the other row ends NaN."""
    tiny = 2.0 ** -40
    table = {0.5: (tiny, 0.5)}  # 1.0 and 0.5 both step to 0.0, which steps off by 1s
    seeds = np.array([[1.0], [0.5], [0.5], [1.0]])
    group = np.array([0, 0, 1, 1])
    out = _assert_rows_alone(_step_table_system([table, table], group), seeds, group)
    assert np.isnan(out[[0, 3]]).all() and (out[[1, 2]] == 0.5).all()


def test_merged_rows_take_the_later_converged_iterate():
    """Rows that meet after the first step and later pass NEWTON_TOL at an
    iterate they then leave: every row ends on that iterate, the one whose
    seed was within NEWTON_TOL too."""
    tiny = 2.0 ** -40
    table = {0.5: (tiny, 0.5), 0.0: (1.0, -0.25), 0.25: (tiny, 1.0)}  # 0.0 -> 0.25 -> -0.75 -> ...
    seeds = np.array([[1.0], [0.5], [0.5], [1.0]])
    group = np.array([0, 0, 1, 1])
    out = _assert_rows_alone(_step_table_system([table, table], group), seeds, group)
    assert (out == 0.25).all()


def test_rows_of_different_groups_are_not_merged():
    """Rows of two groups that meet on one iterate but whose data differ
    from there run apart.  In the cubic pair's 41-value batch, rows of
    different fibers coincide after the first step, and the grouped run is
    still the ungrouped one."""
    tiny = 2.0 ** -40
    tables = [{0.0: (1.0, -0.25), 0.25: (tiny, 0.25)}, {}]  # group 0 cycles 0.0 <-> 0.25, group 1 leaves
    seeds = np.array([[1.0], [1.0], [1.0]])
    group = np.array([0, 1, 1])
    out = _assert_rows_alone(_step_table_system(tables, group), seeds, group)
    assert out[0] == 0.25 and np.isnan(out[1:]).all()

    system, seeds, box = _seed_batch(_cubic_pair(0.37), np.linspace(-1.0, 1.0, 41))
    group = np.arange(len(seeds)) // 64
    r, J = system(seeds, np.arange(len(seeds)))
    first = seeds - family_analysis._solve_rows(J, r)[0]
    fiber_of = {}
    for g, z in zip(group.tolist(), map(tuple, first.tolist())):
        fiber_of.setdefault(z, set()).add(g)
    assert any(len(fibers) > 1 for fibers in fiber_of.values())
    assert family_analysis._newton(system, seeds, box, group=group).tobytes() == \
        family_analysis._newton(system, seeds, box).tobytes()


def test_suspended_cusp_seed_run_solves_a_quarter_of_the_rows(monkeypatch):
    """On the benchmark's suspended-cusp-1 window the seed run hands
    _solve_rows at most a quarter of the rows it does unmerged, and the
    count repeats exactly."""
    F = preset_family("suspended-cusp-1")
    ts = [(float(t),) for t in np.linspace(-1.0, 1.0, 41)]
    solve, counts = family_analysis._solve_rows, []

    def counting(J, r):
        counts[-1] += len(r)
        return solve(J, r)

    monkeypatch.setattr(family_analysis, "_solve_rows", counting)
    for _ in range(2):
        counts.append(0)
        family_analysis._critical_points(F, ts, [(-2.0, 2.0)] * 3)
    newton = family_analysis._newton
    monkeypatch.setattr(family_analysis, "_newton",
                        lambda system, z0, box, prune=None, group=None: newton(system, z0, box, prune))
    counts.append(0)
    family_analysis._critical_points(F, ts, [(-2.0, 2.0)] * 3)
    merged, again, unmerged = counts
    assert merged == again and 4 * merged <= unmerged == 9216


# ---------------------------------------------------------------------------
# the Newton loop and the evaluator against the full-array versions they replaced


def _parent_at(calc, pt, *names) -> list:
    """_FamilyCalculus.at() as it was before its plan and column path: the
    powers found per call, every column converted with tolist(), and every
    table gathered into its dense tensor."""
    pt = np.asarray(pt, dtype=float)
    rows = pt.reshape(-1, pt.shape[-1])
    powers = [sorted(set().union(*used)) for used in zip(*(calc.tables[n][1] for n in names))]
    pw = []
    for col, ps in zip(rows.T, powers):
        xs = col.tolist()
        try:
            pw.append({1: col, **{p: np.fromiter(map(pow, xs, itertools.repeat(p)), float,
                                                 len(xs)) for p in ps}})
        except OverflowError:
            pw.append({1: col, **{p: np.array([family_analysis._power(x, p) for x in xs])
                                  for p in ps}})
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for name in names:
            lists, _, gather, shape = calc.tables[name]
            out = np.zeros((len(lists), len(rows)))
            for val, terms in zip(out, lists):
                for coeff, factors in terms:
                    v = coeff
                    for var, p in factors:
                        v = v * pw[var][p]
                    val += v
            results.append(out[gather].T.reshape(pt.shape[:-1] + shape))
    return results


def _parent_row_norms(V):
    s = np.zeros(len(V))
    for col in V.T:
        s += col * col
    return np.sqrt(s)


def _parent_newton(system, z0, box, prune=None, group=None):
    """_newton as it was before its live iterates were kept compact: every
    step gathers the live rows from Z and scatters the new iterates back."""
    fa = family_analysis
    Z = np.array(z0, dtype=float)
    lo, hi = box
    d = len(lo)
    reach = fa._reach(lo, hi)
    best = np.full_like(Z, np.nan)
    live, src = np.arange(len(Z)), np.arange(len(Z))
    own = None

    def reached(best):
        return best if own is None else np.where(np.isnan(best[src, :1]), own, best[src])

    with np.errstate(over="ignore"):
        for k in range(fa.MAX_ITER):
            if k == fa.PRUNE_STEP and prune is not None:
                live = prune(live, reached(best))
            if not live.size:
                break
            if k == 1 and group is not None:
                key = np.column_stack((group[live], Z[live].view(np.int64)))
                src[live] = live[fa._leaders(key)]
                live = live[src[live] == live]
                own, best = best, np.full_like(best, np.nan)
            z = Z[live]
            r, J = system(z, live)
            res_norm = _parent_row_norms(r)
            small = res_norm <= fa.NEWTON_TOL
            best[live[small]] = z[small]
            step, go = fa._solve_rows(J, r)
            zn = z - step
            step_norm = _parent_row_norms(step)
            go &= np.isfinite(res_norm) & np.isfinite(step_norm)
            if Z.shape[1] > d:
                param_norm = _parent_row_norms(zn[:, d:])
                go &= np.isfinite(param_norm)
            go[go] = np.abs(zn[go, :d]).max(axis=1) <= reach
            live, zn = live[go], zn[go]
            Z[live] = zn
            size = 1.0 + _parent_row_norms(zn[:, :d])
            if Z.shape[1] > d:
                size += param_norm[go]
            live = live[step_norm[go] > 1e-14 * size]
        Z, best = Z[src], reached(best)
        lead = np.flatnonzero(src == np.arange(len(Z)))
        done = (_parent_row_norms(system(Z[lead], lead)[0]) <= fa.NEWTON_TOL)[np.searchsorted(lead, src)]
    return np.where(done[:, None], Z, best)


def _schroeder_newton(system, z0, box, prune=None, group=None):
    """The seed run's _newton on full arrays: _parent_newton with each row's
    last step norm and step-norm ratio kept by row index from its second
    step on, and the step taken m times where the ratio rule holds."""
    fa = family_analysis
    Z = np.array(z0, dtype=float)
    lo, hi = box
    assert Z.shape[1] == len(lo)  # no unknown parameter
    reach = fa._reach(lo, hi)
    best = np.full_like(Z, np.nan)
    live, src = np.arange(len(Z)), np.arange(len(Z))
    last, ratio = np.full(len(Z), np.nan), np.full(len(Z), np.nan)
    own = None

    def reached(best):
        return best if own is None else np.where(np.isnan(best[src, :1]), own, best[src])

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(fa.MAX_ITER):
            if k == fa.PRUNE_STEP and prune is not None:
                live = prune(live, reached(best))
            if not live.size:
                break
            if k == 1 and group is not None:
                key = np.column_stack((group[live], Z[live].view(np.int64)))
                src[live] = live[fa._leaders(key)]
                live = live[src[live] == live]
                own, best = best, np.full_like(best, np.nan)
            z = Z[live]
            r, J = system(z, live)
            res_norm = _parent_row_norms(r)
            small = res_norm <= fa.NEWTON_TOL
            best[live[small]] = z[small]
            step, go = fa._solve_rows(J, r)
            step_norm = _parent_row_norms(step)
            rho = step_norm / last[live]  # NaN before the row's third step
            m = np.rint(1.0 / (1.0 - rho))
            rule = (0.3 < rho) & (rho < 0.9) & (m >= 2) & (np.abs(rho - ratio[live]) <= 0.02 * ratio[live])
            step[rule] *= m[rule, None]
            if k >= 1:
                last[live], ratio[live] = step_norm, rho
            zn = z - step
            go &= np.isfinite(res_norm) & np.isfinite(step_norm)
            go[go] = np.abs(zn[go]).max(axis=1) <= reach
            live, zn = live[go], zn[go]
            Z[live] = zn
            size = 1.0 + _parent_row_norms(zn)
            live = live[step_norm[go] > 1e-14 * size]
        Z, best = Z[src], reached(best)
        lead = np.flatnonzero(src == np.arange(len(Z)))
        done = (_parent_row_norms(system(Z[lead], lead)[0]) <= fa.NEWTON_TOL)[np.searchsorted(lead, src)]
    return np.where(done[:, None], Z, best)


def _reference_newton(system, z0, box, **kw):
    """_schroeder_newton for a seed run, _parent_newton for the fold polish."""
    seed_run = np.shape(z0)[1] == len(box[0])
    return (_schroeder_newton if seed_run else _parent_newton)(system, z0, box, **kw)


def _traced_bits(monkeypatch, F, half, steps, newton, columns):
    """Run trace_birth_death with newton as _newton and columns as the
    evaluator's column path; return the bits of the live indices and rows
    each system was handed, step by step, and of every _critical_points and
    _refine_fold result."""
    fa = family_analysis
    handed, outputs = [], []
    critical_points, refine_fold = fa._critical_points, fa._refine_fold

    def recording(system):
        def seen(z, live):
            handed.append((live.tobytes(), z.tobytes()))
            return system(z, live)
        return seen

    def keeping(f, bits):
        def run(*args):
            out = f(*args)
            outputs.append(bits(out))
            return out
        return run

    monkeypatch.setattr(fa, "_newton", lambda system, z0, box, **kw: newton(recording(system), z0, box, **kw))
    monkeypatch.setattr(fa._FamilyCalculus, "_columns", columns)
    monkeypatch.setattr(fa, "_critical_points", keeping(
        critical_points, lambda samples: [[_point_bits(p) for p in pts] for pts in samples]))
    monkeypatch.setattr(fa, "_refine_fold", keeping(refine_fold, lambda P: P.tobytes()))
    trace_birth_death(F, -1.0, 1.0, steps=steps, box=[(-half, half)] * F.fiber_dim)
    monkeypatch.undo()
    assert len(outputs) == 2
    return handed, outputs


_REFERENCE_CASES = _PRUNE_CASES[:7] + [
    ("suspended-cusp-1-small", preset_family("suspended-cusp-1"), 0.5, 11),
    ("rotated-cusp-7", _rotated_cusp(0.113), 7.0, 101)]


@pytest.mark.parametrize("name, F, half, steps", _REFERENCE_CASES, ids=[c[0] for c in _REFERENCE_CASES])
def test_newton_and_evaluator_are_the_parent_bit_for_bit(monkeypatch, name, F, half, steps):
    """With compact live iterates and columns evaluated from a plan, the
    seed run's samples and the fold polish's points are bit for bit what
    the full-array loops and the stacked at() give, and every system call
    is handed the same live indices and rows: on the seven bench families,
    a small box at 11 steps and a wide one at 101.  The seed run's loop is
    the one with the ratio rule, and the fold polish's the one without."""
    new = _traced_bits(monkeypatch, F, half, steps, family_analysis._newton,
                       family_analysis._FamilyCalculus._columns)
    old = _traced_bits(monkeypatch, F, half, steps, _reference_newton,
                       lambda calc, cols, names: _parent_at(calc, np.column_stack(cols), *names))
    assert new[1] == old[1]
    assert len(new[0]) == len(old[0]) and new[0] == old[0]


def _plan_cases():
    """(family, (m, k + d) points, names) for the column path: every name
    tuple the tracer evaluates, on an empty batch, a batch with a power too
    large for a float, a table of entries with no terms (the rotated cusp's
    hess_dt) and a family with no parameter."""
    rng = np.random.default_rng(40)
    tracer_names = [("grad", "hess"), ("grad", "hess", "third", "grad_dt", "hess_dt"),
                    ("value", "grad", "hess", "third"), ("hess",), ("value",)]
    rotated = _rotated_cusp(0.113)
    assert all(not terms for terms in family_analysis._calculus(rotated).tables["hess_dt"][0])
    for F in (CUSP, preset_family("swallowtail"), preset_family("suspended-cusp-2"), rotated):
        n = 1 + F.fiber_dim
        P = rng.uniform(-2.0, 2.0, size=(9, n))
        P[3, 1:] = 1e200  # x^3 and x^4 overflow: the _power fallback
        for names in tracer_names:
            yield F, P, names
            yield F, P[:0], names
    F0 = PolyFamily(0, 2, (((3, 0), 1.0), ((1, 1), -0.5), ((0, 2), 2.0), ((4, 1), 0.25)))
    P0 = rng.uniform(-2.0, 2.0, size=(6, 2))
    P0[1, 0] = -1e200
    for names in tracer_names[2:] + [("grad", "hess")]:
        yield F0, P0, names
        yield F0, P0[:0], names


def test_column_path_is_at_on_stacked_points():
    """The evaluator's column path gives, bit for bit and shape for shape,
    what at() gave on the stacked points, and so does at() on rows and on
    one point, without a warning."""
    for F, P, names in _plan_cases():
        calc = family_analysis._calculus(F)
        want = _parent_at(calc, P, *names)
        for got in (calc._columns(list(P.T), names), calc.at(P, *names)):
            assert [(g.shape, g.tobytes()) for g in got] == [(w.shape, w.tobytes()) for w in want], names
        if len(P):
            got, want = calc.at(P[3], *names), _parent_at(calc, P[3], *names)
            assert [(g.shape, g.tobytes()) for g in got] == [(w.shape, w.tobytes()) for w in want], names


# ---------------------------------------------------------------------------
# birth-death tracing


def test_trace_cusp_single_event():
    res = trace_birth_death(CUSP, -1.0, 1.0)
    assert len(res.events) == 1
    ev = res.events[0]
    assert abs(ev.t_star) <= 1e-8
    assert abs(ev.x_star[0]) <= 1e-6
    assert ev.index == 0
    assert abs(ev.det_hessian) <= 1e-4
    assert res.degenerate == ()
    assert res.warnings == ()  # the on-grid fold is a textbook event
    assert len(res.samples) == 41
    assert res.samples[0][1] == []      # no critical points at t=-1
    assert len(res.samples[-1][1]) == 2


def test_trace_warns_on_unlocated_count_change():
    """In the box |x| <= 1/2 the cusp pair leaves through the boundary at
    t = 3/4: the count drops by two with no fold to polish onto, which must
    be reported, not passed over."""
    res = trace_birth_death(CUSP, -1.0, 1.0, steps=40, box=[(-0.5, 0.5)])
    assert len(res.events) == 1
    assert abs(res.events[0].t_star) <= 1e-8
    assert len(res.warnings) == 1
    assert res.warnings[0].startswith("fold not located on [0.74358974358974")
    assert "count changes by -2" in res.warnings[0]


def test_trace_shifted_cusp():
    """A coarse grid (steps=5) hands the fold polish candidates a whole grid
    cell away from the event."""
    F = PolyFamily(1, 1, (((0, 3), 1.0), ((1, 1), -1.0), ((0, 1), 0.5)))
    for steps in (41, 5):
        res = trace_birth_death(F, -1.0, 1.0, steps=steps)
        assert len(res.events) == 1, steps
        ev = res.events[0]
        assert ev.t_star == pytest.approx(0.5, abs=1e-8)
        assert abs(ev.x_star[0]) <= 1e-6
        assert ev.index == 0


def test_trace_tangential_touch():
    """x^3 - (t - c)^2 x: the critical pair exists on both sides of t=c and
    merges only instantaneously, so no count change and no eigen sign
    change -- the interior |mu|-minimum route must find the single event,
    also when c lies off the grid."""
    for c in (0.0, 0.113):
        terms = (((0, 3), 1.0), ((2, 1), -1.0))
        if c:
            terms += (((1, 1), 2.0 * c), ((0, 1), -c * c))
        res = trace_birth_death(PolyFamily(1, 1, terms), -1.0, 1.0)
        assert len(res.events) == 1, c
        ev = res.events[0]
        assert abs(ev.t_star - c) <= 1e-8
        assert abs(ev.x_star[0]) <= 1e-6
        assert ev.index == 0
        assert res.degenerate == ()


# (seed, fiber dimension, a birth and a death): ten planted families
_PLANTED = [(seed, d, pair) for seed, (d, pair) in enumerate(
    [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True), (4, False), (4, True),
     (1, True), (2, False)])]


def test_trace_finds_every_planted_fold():
    """On families with planted folds (planted_folds.py), in fiber
    dimensions 1 to 4, every sampled fiber holds exactly the planted
    critical points, each nondegenerate; every planted event is found
    within 1e-6 in t and 1e-5 in x, with its index; and no other event,
    flag or warning is reported."""
    for seed, d, pair in _PLANTED:
        F, planted, points = planted_family(seed, d, pair)
        res = trace_birth_death(F, -1.0, 1.0, steps=41, box=[(-2.0, 2.0)] * d)
        assert res.degenerate == () and res.warnings == (), seed
        assert len(res.events) == len(planted), seed
        for ev, (t, x, index) in zip(res.events, planted):
            assert abs(ev.t_star - t) <= 1e-6 and np.abs(ev.x_star - x).max() <= 1e-5, seed
            assert ev.index == index, seed
        for t, pts in res.samples:
            want = points(t)
            want = want[np.lexsort(want.T[::-1])]
            assert len(pts) == len(want), (seed, t)
            for p, x in zip(pts, want):
                assert np.abs(p.x - x).max() <= 1e-9 and p.cls.kind == NONDEGENERATE, (seed, t)


def test_trace_simultaneous_events():
    """Two separated fold pairs appear at the same parameter value t=c; the
    count jumps by four and both merging pairs must be reported, on the
    grid (c=0.2, 0.25, 0.3) and off it (c=0.313), with no warning.  On the
    grid the degenerate sample holds near-copies of the fold points about
    1e-9 apart: c=0.2 loses both events if the dedup radius grows to 1e-7,
    and c=0.25 warns twice without the near-copy rule that ends
    trace_birth_death."""
    for c in (0.2, 0.25, 0.3, 0.313):
        F = PolyFamily(1, 2, (
            ((0, 3, 0), 1.0), ((1, 1, 0), -1.0), ((0, 1, 0), c),
            ((0, 0, 3), 1.0), ((1, 0, 1), -1.0), ((0, 0, 1), -c),
        ))
        res = trace_birth_death(F, -1.0, 1.0)
        assert len(res.events) == 2, c
        assert res.warnings == (), c
        assert sorted(ev.index for ev in res.events) == [0, 1]
        for ev in res.events:
            assert ev.t_star == pytest.approx(c, abs=1e-8)
            assert abs(ev.x_star[0]) <= 1e-6
            assert abs(abs(ev.x_star[1]) - np.sqrt(2.0 * c / 3.0)) <= 1e-6
    # f_x = (x^2 - s(t - ta))((x - 1)^2 - (t - tb)): a slow pair born at ta
    # stays closer together than the pair born at tb, so the newborn pair is
    # the one the tracks leave unmatched, not the closest one
    s, ta, tb = 0.01, 0.29, 0.302
    F = PolyFamily(1, 1, (
        ((0, 5), 0.2), ((0, 4), -0.5), ((0, 3), (1.0 + tb + s * ta) / 3.0),
        ((1, 3), -(1.0 + s) / 3.0), ((0, 2), -s * ta), ((1, 2), s),
        ((0, 1), s * ta * (1.0 + tb)), ((1, 1), -s * (ta + 1.0 + tb)), ((2, 1), s),
    ))
    for steps in (41, 11):
        res = trace_birth_death(F, -1.0, 1.0, steps=steps)
        assert len(res.events) == 2, steps
        assert res.warnings == ()
        for ev, t_true, x_true in zip(res.events, (ta, tb), (0.0, 1.0)):
            assert ev.t_star == pytest.approx(t_true, abs=1e-8)
            assert ev.x_star[0] == pytest.approx(x_true, abs=1e-6)
            assert ev.index == 0


def test_trace_two_folds_sampled_on_one_grid_value():
    """x^3 - (t - c) x + y^3 - (t + c) y at c = 0.25, on the grid: the fiber
    t = c holds its two folds (0, +-sqrt(1/6)) as one point each, and both
    are new there.  Each is its own candidate, not half of a merging pair,
    so on the box [-0.5, 0.5]^2 both events are located, and the only
    warnings are for the two pairs that leave the box on [0.5, 0.55]."""
    c = 0.25
    F = PolyFamily(1, 2, (((0, 3, 0), 1.0), ((1, 1, 0), -1.0), ((0, 1, 0), c),
                          ((0, 0, 3), 1.0), ((1, 0, 1), -1.0), ((0, 0, 1), -c)))
    res = trace_birth_death(F, -1.0, 1.0, steps=41, box=[(-0.5, 0.5)] * 2)
    y = np.sqrt(1.0 / 6.0)
    found = sorted((ev.index, ev.t_star, *ev.x_star) for ev in res.events)
    assert len(found) == 2 and [f[0] for f in found] == [0, 1]
    for (_, t, x0, x1), want in zip(found, (y, -y)):
        assert abs(t - c) <= 1e-9 and abs(x0) <= 1e-6 and abs(x1 - want) <= 1e-6
    assert len(res.warnings) == 2 and all("[0.5, 0.55]" in w for w in res.warnings)


def test_trace_suspended_cusp_indices():
    for i in (0, 1, 2):
        F = preset_family(f"suspended-cusp-{i}")
        assert F.fiber_dim == i + 2
        res = trace_birth_death(F, -1.0, 1.0)
        assert len(res.events) == 1, f"suspended-cusp-{i}"
        ev = res.events[0]
        assert abs(ev.t_star) <= 1e-8
        assert float(np.linalg.norm(ev.x_star)) <= 1e-6
        assert ev.index == i
        assert res.warnings == ()


def test_trace_swallowtail_degenerate_flag():
    """x^4 - (t - c) x is degenerate at t=c; the flag must survive an
    off-grid c, and the gmf axiom must fail."""
    swallowtail = preset_family("swallowtail")
    for c in (0.0, 0.004, 0.046):
        F = swallowtail if c == 0.0 else PolyFamily(1, 1, swallowtail.terms + (((0, 1), c),))
        res = trace_birth_death(F, -1.0, 1.0)
        assert res.events == ()
        assert len(res.degenerate) == 1, c
        for flag in res.degenerate:
            assert flag.reason == KERNEL_CUBIC_VANISHES
            assert abs(flag.t - c) <= 1e-6
        assert check_family_axioms(F, -1.0, 1.0).verdict("gmf") == "Fail"


def test_trace_validation_errors():
    F0 = PolyFamily(0, 1, (((2,), 1.0),))
    with pytest.raises(ValueError):
        trace_birth_death(F0, -1.0, 1.0)
    with pytest.raises(ValueError):
        trace_birth_death(CUSP, -1.0, 1.0, steps=1)
    with pytest.raises(ValueError):
        trace_birth_death(CUSP, 1.0, -1.0)
    nan, inf = float("nan"), float("inf")
    for t0, t1 in ((-1.0, nan), (nan, 1.0), (-inf, 1.0), (-1.0, inf)):
        with pytest.raises(ValueError):
            trace_birth_death(CUSP, t0, t1)
    for box in ([(-inf, inf)], [(nan, 1.0)], [(-1.0, nan)], [(-1.0, -1.0)]):
        with pytest.raises(ValueError):
            trace_birth_death(CUSP, -1.0, 1.0, box=box)
    with pytest.raises(ValueError, match=r"parameter \(nan,\) is not finite"):
        fiber_critical_points(CUSP, nan, [(-2.0, 2.0)])
    with pytest.raises(ValueError, match=r"parameter \(nan,\) is not finite"):
        fiber_jet3(CUSP, nan, [0.5])
    with pytest.raises(ValueError, match="has 1 entries, expected 0"):
        fiber_critical_points(F0, 0.5, [(-2.0, 2.0)])
    with pytest.raises(ValueError, match="has 2 entries, expected 1"):
        fiber_critical_points(CUSP, (0.5, 0.5), [(-2.0, 2.0)])


def _point_bits(p):
    return (p.t, p.x.tobytes(), np.float64(p.value).tobytes(), p.cls,
            np.float64(p.grad_norm).tobytes())


_SAMPLE_CASES = [
    (preset_family(name), 2.0, 41) for name in
    ("cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1", "suspended-cusp-2")
] + [
    (_cubic_pair(0.37), 2.0, 41),
    (_rotated_cusp(0.113), 2.0, 41),
    # the two families of test_trace_family_huge_box_exits_cleanly
    (PolyFamily(1, 1, (((1, 4), 1.06), ((1, 3), -1.41))), 1e97, 5),
    (PolyFamily(1, 1, (((1, 1), -1.11), ((1, 4), -0.77))), 1e69, 5),
]
_SAMPLE_IDS = ["cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1", "suspended-cusp-2",
               "cubic-pair", "rotated-cusp", "tx4-tx3-1e97", "tx-tx4-1e69"]


@pytest.mark.parametrize("F, half, steps", _SAMPLE_CASES, ids=_SAMPLE_IDS)
def test_trace_samples_are_the_fibers_alone(F, half, steps):
    """trace_birth_death finds all its fibers in one batch; each sample is,
    bit for bit, what fiber_critical_points gives for that t alone."""
    box = [(-half, half)] * F.fiber_dim
    res = trace_birth_death(F, -1.0, 1.0, steps=steps, box=box)
    assert len(res.samples) == steps
    for t, pts in res.samples:
        alone = fiber_critical_points(F, (t,), box)
        assert [_point_bits(p) for p in pts] == [_point_bits(q) for q in alone], t


def _parent_samples(F, ts, fiber, X):
    """The per-point sample loop that _critical_points replaced, on the
    converged in-box rows X of each fiber: a tuple/set pass with the pairwise
    rule, then per point a jet from its own at() call, jet_from_parts,
    classify at CLASSIFY_TOL and np.linalg.norm of the gradient, and a sort
    by x as a tuple.  Per fiber, the _point_bits of its points."""
    calc, d = family_analysis._calculus(F), F.fiber_dim
    out = []
    for f, t in enumerate(ts):
        seen, kept = set(), []
        for x in X[fiber == f]:
            xs = tuple(x.tolist())
            with np.errstate(over="ignore"):
                if xs not in seen and all(float(np.linalg.norm(x - y)) > family_analysis.DEDUP_RADIUS
                                          for y in kept):
                    kept.append(x)
            seen.add(xs)
        points = []
        for x in kept:
            value, grad, hess, third = calc.at((t,) + tuple(x), "value", "grad", "hess", "third")
            try:
                jet = jet_from_parts(d, value, grad, hess / 2.0, third / 6.0)
            except ValueError:
                continue
            points.append(family_analysis.CriticalPoint(
                t=t, x=x, value=float(value), cls=classify(jet, family_analysis.CLASSIFY_TOL),
                grad_norm=float(np.linalg.norm(grad))))
        points.sort(key=lambda p: tuple(p.x))
        out.append([_point_bits(p) for p in points])
    return out


@pytest.mark.parametrize("F, half, steps", _SAMPLE_CASES, ids=_SAMPLE_IDS)
def test_trace_samples_match_the_per_point_reference(monkeypatch, F, half, steps):
    """Each sampled point's x, value, grad_norm and verdict, from one _dedup
    call, one jet evaluation and one classify_parts call over all the fibers,
    are bit for bit what the per-point loop they replace gives on the same
    converged rows; on the bench families, whose seeds meet, fewer points
    are kept than there are rows."""
    dedup, seen = family_analysis._dedup, []
    monkeypatch.setattr(family_analysis, "_dedup", lambda *args: seen.append(args) or dedup(*args))
    res = trace_birth_death(F, -1.0, 1.0, steps=steps, box=[(-half, half)] * F.fiber_dim)
    ((fiber, X, _),) = seen
    ts = [t for t, _ in res.samples]
    assert [[_point_bits(p) for p in pts] for _, pts in res.samples] == \
        _parent_samples(F, ts, fiber, X)
    assert half > 2.0 or sum(len(pts) for _, pts in res.samples) < len(X)


@pytest.mark.parametrize("name, steps", [("cusp", 41), ("suspended-cusp-2", 11)])
def test_trace_one_newton_run_for_all_seeds(monkeypatch, name, steps):
    """The seed grids of all the grid values are one _newton batch: the
    fiber's seed grid once per value the interval bound leaves unproven, in
    order.  The one other call is the fold polish: one batch, a row of
    (x, t) per candidate, with t in the window."""
    F = preset_family(name)
    d = F.fiber_dim
    calls = _newton_calls(monkeypatch, lambda: trace_birth_death(F, -1.0, 1.0, steps=steps))
    seed_runs = [(system, z0) for system, z0, _ in calls if z0.shape[1] == d]
    assert len(seed_runs) == 1
    (system, z0), = seed_runs
    # 3x^2 - t > 0 for t < 0: the bound proves exactly those fibers
    ts = np.linspace(-1.0, 1.0, steps)
    _, _, box = _seed_batch(F, ts)
    proven = _upfront(F, ts, box)
    assert np.array_equal(proven, ts < 0.0)
    own_system, seeds, _ = _seed_batch(F, ts[~proven])
    assert np.array_equal(z0, seeds)
    rows = np.arange(len(z0))
    assert system(z0, rows)[0].tobytes() == own_system(z0, rows)[0].tobytes()
    (polish,) = [z0 for _, z0, _ in calls if z0.shape[1] != d]
    assert polish.shape[0] >= 1 and polish.shape[1] == d + 1
    assert ((polish[:, d] >= -1.0) & (polish[:, d] <= 1.0)).all()


def test_pruned_fibers_are_logged_apart_from_unconverged_seeds(caplog):
    """A trace logs the fibers the bound prunes and the seed rows they skip
    on a line of their own; each pruned fiber still counts all its seeds as
    not converged."""
    with caplog.at_level(logging.INFO, logger="gmfkit.family_analysis"):
        trace_birth_death(CUSP, -1.0, 1.0, steps=9)
    messages = [r.getMessage() for r in caplog.records]
    assert messages.count("fiber_critical_points: 4 of 9 fibers have no in-box critical point "
                          "by an interval bound; 32 seed rows skipped") == 1
    assert messages.count("fiber_critical_points: 8 of 8 seeds did not converge") >= 4


def test_seed_batches_over_the_bound_are_refused_before_any_allocation(monkeypatch):
    """Every entry point refuses a seed batch over MAX_SEED_ROWS before
    _calculus compiles a table; the largest batch CI runs
    (suspended-cusp-2 at 2001 grid values) is admitted."""
    def no_calculus(F):
        raise AssertionError("_calculus ran")

    monkeypatch.setattr(family_analysis, "_calculus", no_calculus)
    wide = PolyFamily(1, 40, (((0, 2) + (0,) * 39, 1.0),))
    wide0 = PolyFamily(0, 40, (((2,) + (0,) * 39, 1.0),))
    refused = [
        lambda: preset_family("suspended-cusp-40"),
        lambda: fiber_critical_points(wide, 0.0, [(-2.0, 2.0)] * 40),
        lambda: trace_birth_death(CUSP, -1.0, 1.0, steps=10 ** 9),
        lambda: check_family_axioms(CUSP, -1.0, 1.0, steps=10 ** 9),
        lambda: check_family_axioms(wide0),
    ]
    for run in refused:
        with pytest.raises(ValueError, match="MAX_SEED_ROWS"):
            run()
    bound = family_analysis.MAX_SEED_ROWS
    family_analysis._check_seed_batch(bound // 8, 1)
    family_analysis._check_seed_batch(2001, 4)
    with pytest.raises(ValueError, match="MAX_SEED_ROWS"):
        family_analysis._check_seed_batch(bound // 8 + 1, 1)


def test_seed_batches_over_the_cell_bound_are_refused_before_any_allocation(monkeypatch):
    """MAX_SEED_CELLS bounds rows x d^2: suspended-cusp-12 at 15 grid values
    (245,760 rows at d = 14) is under MAX_SEED_ROWS but refused before
    _calculus runs, at 3 values (49,152 rows) it is admitted, and
    preset_family admits exactly the i whose one fiber grid is admitted."""
    def no_calculus(F):
        raise AssertionError("_calculus ran")

    monkeypatch.setattr(family_analysis, "_calculus", no_calculus)
    F = preset_family("suspended-cusp-12")
    assert 15 * 2 ** 14 <= family_analysis.MAX_SEED_ROWS
    for run in (lambda: trace_birth_death(F, -1.0, 1.0, steps=15),
                lambda: check_family_axioms(F, -1.0, 1.0, steps=15)):
        with pytest.raises(ValueError, match="MAX_SEED_CELLS"):
            run()
    family_analysis._check_seed_batch(3, 14)
    family_analysis._check_seed_batch(2001, 4)
    with pytest.raises(ValueError, match="MAX_SEED_CELLS"):
        family_analysis._check_seed_batch(4, 14)
    assert preset_family("suspended-cusp-13").fiber_dim == 15
    family_analysis._check_seed_batch(1, 15)
    with pytest.raises(ValueError, match="i <= 13"):
        preset_family("suspended-cusp-14")
    with pytest.raises(ValueError):
        family_analysis._check_seed_batch(1, 16)


def test_trace_events_are_verified_birth_death_jets():
    """Every emitted event re-classifies as BirthDeath with its own index."""
    from gmfkit.jet_core import classify

    for name in ("cusp", "suspended-cusp-1"):
        res = trace_birth_death(preset_family(name), -1.0, 1.0)
        for ev in res.events:
            cls = classify(fiber_jet3(preset_family(name), (ev.t_star,), ev.x_star),
                           tol=1e-5)
            assert (cls.kind, cls.index) == (BIRTH_DEATH, ev.index)


# ---------------------------------------------------------------------------
# family axioms


def test_axioms_cusp():
    rep = check_family_axioms(CUSP, -1.0, 1.0)
    assert rep.verdict("gmf") == "Pass"
    assert rep.verdict("embedding") == "Pass"
    assert rep.verdict("submersion") == "Pass"
    # x^3 - tx escapes through the box boundary: the proxy must say so
    assert rep.verdict("properness") == "Fail"
    assert len(rep.events) == 1
    assert rep.degenerate == ()


def test_axioms_swallowtail():
    rep = check_family_axioms(preset_family("swallowtail"), -1.0, 1.0)
    assert rep.verdict("gmf") == "Fail"
    assert len(rep.degenerate) >= 1


def test_axioms_proper_quadratic_family():
    # x^2 + tx stays coercive on the box for |t| <= 1: everything passes
    F = PolyFamily(1, 1, (((0, 2), 1.0), ((1, 1), 1.0)))
    rep = check_family_axioms(F, -1.0, 1.0)
    assert [v.verdict for v in rep.verdicts] == ["Pass"] * 4
    assert rep.events == ()
    assert rep.degenerate == ()


def test_axioms_param_dim_zero():
    F = PolyFamily(0, 1, (((2,), 1.0), ((0,), -1.0)))
    rep = check_family_axioms(F)
    assert rep.verdict("gmf") == "Pass"
    assert rep.verdict("properness") == "Pass"


def test_axioms_window_required():
    with pytest.raises(ValueError):
        check_family_axioms(CUSP)  # one-parameter family, no t-window
    F2 = PolyFamily(2, 1, (((0, 0, 2), 1.0),))
    with pytest.raises(ValueError):
        check_family_axioms(F2, -1.0, 1.0)


def test_axiom_verdict_lookup_error():
    rep = check_family_axioms(CUSP, -1.0, 1.0)
    with pytest.raises(KeyError):
        rep.verdict("no-such-axiom")


# ---------------------------------------------------------------------------
# presets and JSON


def test_preset_families():
    assert CUSP.param_dim == 1 and CUSP.fiber_dim == 1
    assert preset_family("swallowtail").fiber_dim == 1
    assert preset_family("suspended-cusp-2").fiber_dim == 4
    with pytest.raises(KeyError):
        preset_family("no-such-preset")
    with pytest.raises(KeyError):
        preset_family("suspended-cusp-abc")


def test_family_json_round_trip():
    rng = np.random.default_rng(79)
    for _ in range(10):
        F = _random_cubic_family(rng, int(rng.integers(0, 2)), int(rng.integers(1, 4)))
        data = json.loads(json.dumps(family_to_json_dict(F)))
        back = family_from_json_dict(data)
        assert back == F


def test_family_json_errors():
    with pytest.raises(ValueError):
        family_from_json_dict({"param_dim": 1, "fiber_dim": 1})
    with pytest.raises(ValueError):
        family_from_json_dict({
            "param_dim": 1, "fiber_dim": 1,
            "terms": [{"powers": [0, 1, 2], "coeff": 1.0}],
        })
    with pytest.raises(ValueError):
        family_from_json_dict({
            "param_dim": 1, "fiber_dim": 1,
            "terms": [{"powers": [0, 1], "coeff": "nan-ish"}],
        })


def test_family_json_rejects_non_integral_integers():
    """param_dim, fiber_dim and every power must be JSON integers: not truncated."""
    good = {"param_dim": 1, "fiber_dim": 1, "terms": [{"powers": [0, 3], "coeff": 1.0}]}
    assert family_from_json_dict(good) == PolyFamily(1, 1, (((0, 3), 1.0),))
    bad = [{"param_dim": 1.0}, {"param_dim": True}, {"fiber_dim": 1.9}, {"fiber_dim": "1"},
           {"terms": [{"powers": [0, 3.7], "coeff": 1.0}]},
           {"terms": [{"powers": [0, True], "coeff": 1.0}]},
           {"terms": [{"powers": "03", "coeff": 1.0}]}]
    for defect in bad:
        with pytest.raises(ValueError):
            family_from_json_dict({**good, **defect})


def test_constructors_reject_non_integral_integers():
    """PolyFamily's dimensions and powers and Jet3's dim and cubic index
    entries must be ints or numpy integers: a float, 2.0 too, a bool or a
    str is ValueError, not truncated or read, and PolyFamily stores ints."""
    from gmfkit.jet_core import Jet3

    with pytest.raises(ValueError):
        PolyFamily(1, 1.9, (((0, 3.7), 1.0),))
    with pytest.raises(ValueError):
        Jet3(2.7, 0.0, [0.0, 0.0], np.eye(2), {(1.5, 2, 2): 1.0})
    for k, d, power in [(1, 1, 3.7), (1, 2.0, 3), (True, 1, 3), (1, "1", 3), (1, 1, True), (1.0, 1, 3)]:
        with pytest.raises(ValueError):
            PolyFamily(k, d, (((0, power) + (0,) * (int(d) - 1), 1.0),))
    for dim, idx in [(2.0, (1, 2, 2)), (True, (1, 1, 1)), ("2", (1, 2, 2)), (2, (1.5, 2, 2)),
                     (2, (1, 2.0, 2)), (2, (True, 2, 2)), (2, (1, 2, "2"))]:
        with pytest.raises(ValueError):
            Jet3(dim, 0.0, np.zeros(int(dim)), np.eye(int(dim)), {idx: 1.0})
    F = PolyFamily(np.int64(1), np.int64(1), (((np.int64(0), np.int64(3)), 1.0),))
    assert F == PolyFamily(1, 1, (((0, 3), 1.0),))
    assert type(F.param_dim) is type(F.fiber_dim) is type(F.terms[0][0][1]) is int
    jet = Jet3(np.int64(2), 0.0, [0.0, 0.0], np.eye(2), {(np.int64(1), 2, np.int32(2)): 1.0})
    assert type(jet.dim) is int and list(jet.cubic) == [(1, 2, 2)]
    assert all(type(i) is int for i in next(iter(jet.cubic)))


def test_event_record_fields():
    ev = BirthDeathEvent(0.0, np.zeros(1), 0, 0.0)
    assert ev.t_star == 0.0 and ev.index == 0
