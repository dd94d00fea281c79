"""Fiber jets, critical-point continuation, and birth-death tracing on
one-parameter polynomial families.  Derivatives are cross-checked with
finite differences and with the exactness of cubic Taylor data."""

from __future__ import annotations

import json
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
    KERNEL_CUBIC_VANISHES,
    NONDEGENERATE,
    evaluate,
)

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
        values, grads, hessians = calc.value(P), calc.gradient(P), calc.hessian(P)
        for i, pt in enumerate(P):
            assert values[i] == _family_value(F, pt[:k], pt[k:])
            assert grads[i].tobytes() == calc.gradient(pt).tobytes()
            assert hessians[i].tobytes() == calc.hessian(pt).tobytes()


def test_fiber_jet3_rejects_wrong_param_count():
    with pytest.raises(ValueError):
        fiber_jet3(CUSP, (1.0, 2.0), [0.0])


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


def test_fiber_critical_points_empty_fiber():
    # x^3 + x has no real critical points
    assert fiber_critical_points(CUSP, -1.0, [(-2.0, 2.0)]) == []


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

    def counting(*args):
        calls.append(args)
        return newton(*args)

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


def _seed_batch(monkeypatch, F, t):
    """The (system, seeds, box) that fiber_critical_points hands _newton."""
    newton, batches = family_analysis._newton, []

    def capture(*args):
        batches.append(args)
        return newton(*args)

    monkeypatch.setattr(family_analysis, "_newton", capture)
    fiber_critical_points(F, t, [(-2.0, 2.0)] * F.fiber_dim)
    monkeypatch.undo()
    (batch,) = batches
    return batch


@pytest.mark.parametrize("name", ["cusp", "swallowtail", "suspended-cusp-0", "suspended-cusp-1",
                                  "suspended-cusp-2", "cubic-pair"])
@pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.37, 1.0])
def test_batched_newton_rows_are_independent(monkeypatch, name, t):
    """Each row of a batched _newton run gives, bit for bit, what the same
    seed gives alone, whichever guard ends its run."""
    F = _cubic_pair(0.37) if name == "cubic-pair" else preset_family(name)
    system, seeds, box = _seed_batch(monkeypatch, F, t)
    batch = family_analysis._newton(system, seeds, box)
    assert batch.shape == seeds.shape
    for i in range(len(seeds)):
        alone = family_analysis._newton(system, seeds[i:i + 1], box)
        assert batch[i].tobytes() == alone[0].tobytes(), (name, t, i)


def test_batched_newton_singular_and_failing_rows(monkeypatch):
    # suspended-cusp-2 at t = 0: the 3-point grid puts seeds at x = 0, where
    # f_xx = 0, so the stacked solve of the first step raises
    system, seeds, box = _seed_batch(monkeypatch, preset_family("suspended-cusp-2"), 0.0)
    r, J = system(seeds)
    singular = np.linalg.det(J) == 0.0
    assert singular.any() and not singular.all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, r[:, :, None])
    out = family_analysis._newton(system, seeds, box)
    assert np.isfinite(out).all(axis=1).any()
    # the cusp at t = -1 has no critical points: every row fails
    system, seeds, box = _seed_batch(monkeypatch, CUSP, -1.0)
    assert np.isnan(family_analysis._newton(system, seeds, box)).all()


def test_newton_overflowing_step_ends_the_run():
    """A step whose norm overflows ends its run as a non-finite step does:
    the iterate is not taken and no overflow warning is raised."""
    box = (np.array([-1.0]), np.array([1.0]))

    def system(Z):
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


def test_trace_simultaneous_events():
    """Two separated fold pairs appear at the same parameter value t=c; the
    count jumps by four and both merging pairs must be reported, on the
    grid (c=0.3) and off it (c=0.313)."""
    for c in (0.3, 0.313):
        F = PolyFamily(1, 2, (
            ((0, 3, 0), 1.0), ((1, 1, 0), -1.0), ((0, 1, 0), c),
            ((0, 0, 3), 1.0), ((1, 0, 1), -1.0), ((0, 0, 1), -c),
        ))
        res = trace_birth_death(F, -1.0, 1.0)
        assert len(res.events) == 2, c
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
    with pytest.raises(ValueError):
        fiber_critical_points(CUSP, nan, [(-2.0, 2.0)])


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


def test_event_record_fields():
    ev = BirthDeathEvent(0.0, np.zeros(1), 0, 0.0)
    assert ev.t_star == 0.0 and ev.index == 0
