"""One-parameter polynomial families and their birth-death events.

A family is a real polynomial F(t, x) on R^k x R^d (k in {0, 1} is what the
tracing code exercises).  Fiber 3-jets come from exact polynomial
differentiation, never finite differences.  Critical points are found by
Newton iteration from a seed grid.  Birth-death parameter values start as
grid-scale candidates (critical-point count changes, and sign changes or
local minima of the smallest-magnitude Hessian eigenvalue along matched
tracks) and are located by Newton on the augmented fold system.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .jet_core import (
    BIRTH_DEATH,
    DEGENERATE,
    GmfClass,
    Jet3,
    classify,
    jet_from_parts,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# polynomial families


@dataclass(frozen=True)
class PolyFamily:
    """Terms are (powers, coeff) with powers of length param_dim + fiber_dim.

    The first param_dim exponents belong to the parameters, the rest to the
    fiber variables.
    """

    param_dim: int
    fiber_dim: int
    terms: tuple

    def __post_init__(self):
        k, d = int(self.param_dim), int(self.fiber_dim)
        if k < 0 or d < 1:
            raise ValueError("need param_dim >= 0 and fiber_dim >= 1")
        norm = []
        for powers, coeff in self.terms:
            powers = tuple(int(p) for p in powers)
            if len(powers) != k + d or any(p < 0 for p in powers):
                raise ValueError(f"bad powers {powers} for param_dim={k}, fiber_dim={d}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} at powers {powers}")
            norm.append((powers, coeff))
        object.__setattr__(self, "terms", tuple(norm))


def _diff_terms(terms, var):
    out = []
    for powers, coeff in terms:
        p = powers[var]
        if p:
            q = list(powers)
            q[var] = p - 1
            out.append((tuple(q), coeff * p))
    return tuple(out)


def _eval_terms(terms, point):
    val = 0.0
    for powers, coeff in terms:
        v = coeff
        for x, p in zip(point, powers):
            if p:
                v *= x ** p
        val += v
    return val


class _FamilyCalculus:
    """Cached exact derivatives of a family with respect to fiber variables.

    Every method takes a point pt = (parameters..., fiber coordinates...).
    For a one-parameter family the gradient and Hessian of dF/dt are kept
    too (t is differentiated first).
    """

    def __init__(self, F: PolyFamily):
        k, d = F.param_dim, F.fiber_dim
        self.F, self.d = F, d

        def fiber_derivatives(terms):
            grad = [_diff_terms(terms, k + j) for j in range(d)]
            hess = {(j, l): _diff_terms(grad[j], k + l) for j in range(d) for l in range(j, d)}
            return grad, hess

        self.grad, self.hess = fiber_derivatives(F.terms)
        self.third = {(j, l, m): _diff_terms(h, k + m)
                      for (j, l), h in self.hess.items() for m in range(l, d)}
        if k == 1:
            self.grad_dt, self.hess_dt = fiber_derivatives(_diff_terms(F.terms, 0))

    def value(self, pt) -> float:
        return _eval_terms(self.F.terms, pt)

    def gradient(self, pt, dt: bool = False) -> np.ndarray:
        return np.array([_eval_terms(g, pt) for g in (self.grad_dt if dt else self.grad)])

    def hessian(self, pt, dt: bool = False) -> np.ndarray:
        H = np.zeros((self.d, self.d))
        for (j, l), terms in (self.hess_dt if dt else self.hess).items():
            H[j, l] = H[l, j] = _eval_terms(terms, pt)
        return H

    def third_tensor(self, pt) -> np.ndarray:
        """Dense symmetric tensor of third fiber derivatives."""
        T = np.zeros((self.d,) * 3)
        for key, terms in self.third.items():
            v = _eval_terms(terms, pt)
            for a, b, c in set(itertools.permutations(key)):
                T[a, b, c] = v
        return T


@functools.lru_cache(maxsize=32)
def _calculus(F: PolyFamily) -> _FamilyCalculus:
    return _FamilyCalculus(F)


def fiber_jet3(F: PolyFamily, t, x) -> Jet3:
    """Degree-3 Taylor data of f_t at x, by exact polynomial differentiation."""
    t = tuple(float(v) for v in np.atleast_1d(t)) if np.ndim(t) else (float(t),) if F.param_dim == 1 else tuple()
    if len(t) != F.param_dim:
        raise ValueError(f"parameter has {len(t)} entries, expected {F.param_dim}")
    x = np.asarray(x, dtype=float).reshape(F.fiber_dim)
    calc = _calculus(F)
    pt = t + tuple(x)
    return jet_from_parts(F.fiber_dim, calc.value(pt), calc.gradient(pt),
                          calc.hessian(pt) / 2.0, calc.third_tensor(pt) / 6.0)


# ---------------------------------------------------------------------------
# critical points in a fiber

NEWTON_TOL = 1e-10      # residual norm that counts as converged
CLASSIFY_TOL = 1e-9     # classification of sampled critical points
EVENT_TOL = 1e-5        # classification of polished fold candidates
MAX_ITER = 50           # Newton steps per run
DEDUP_RADIUS = 10.0 * NEWTON_TOL


@dataclass(frozen=True)
class CriticalPoint:
    t: float | None
    x: np.ndarray
    value: float
    cls: GmfClass
    grad_norm: float


def _newton(system, z0, box):
    """Newton iteration for system(z) = (residual, Jacobian) from z0.

    z holds the fiber coordinates first, then any unknown parameters; box is
    the fiber box (lo, hi).  Returns the final iterate if its residual norm
    is within NEWTON_TOL, else the last iterate that was, else None.

    Iteration continues after the residual criterion is met: at a multiple
    root Newton converges only linearly and stops far from the point if cut
    off at the first small residual, which would leave distinct copies of
    the same critical point beyond the dedup radius, and near a fold the
    residual can be quadratic in the distance to it.  The loop ends on a
    singular or non-finite step, when the fiber coordinates leave
    10 (diam + 1), when the step stalls, or after MAX_ITER steps.
    """
    z = np.array(z0, dtype=float)
    lo, hi = box
    d = len(lo)
    diam = float(np.max(hi - lo))
    best = None
    for _ in range(MAX_ITER):
        r, J = system(z)
        if _norm(r) <= NEWTON_TOL:
            best = z.copy()
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            break
        zn = z - step  # non-finite exactly when the step is (or overflows)
        if not np.isfinite(zn).all() or np.abs(zn[:d]).max() > 10.0 * (diam + 1.0):
            break
        z = zn
        if _norm(step) <= 1e-14 * (1.0 + _norm(z[:d]) + _norm(z[d:])):
            break
    if _norm(system(z)[0]) <= NEWTON_TOL:
        return z
    return best


def _norm(v) -> float:
    # np.linalg.norm of a vector, without its overhead on the Newton path
    return math.sqrt(v.dot(v))


def _box_arrays(box, d):
    lo = np.asarray([b[0] for b in box], dtype=float)
    hi = np.asarray([b[1] for b in box], dtype=float)
    if lo.shape != (d,) or np.any(hi <= lo):
        raise ValueError("box must be a list of (lo, hi) pairs, one per fiber variable")
    return lo, hi


def _dedup(points, radius):
    kept = []
    for x in points:
        if all(np.linalg.norm(x - y) > radius for y in kept):
            kept.append(x)
    return kept


def _auto_grid(d: int) -> int:
    # cap the seed count so high-dimensional fibers stay tractable
    if d == 1:
        return 8
    return max(2, int(round(64.0 ** (1.0 / d))))


def fiber_critical_points(F: PolyFamily, t, box):
    """Newton from a seed grid; converged in-box points, deduplicated.

    Non-converged seeds are dropped (a count is logged).  Each point is
    classified from its fiber 3-jet, whose linear part is the gradient at
    the point and hence ~0 by construction.
    """
    t = tuple(np.atleast_1d(np.asarray(t, dtype=float))) if F.param_dim else tuple()
    if len(t) != F.param_dim:
        raise ValueError(f"parameter has {len(t)} entries, expected {F.param_dim}")
    calc = _calculus(F)
    d = F.fiber_dim
    lo, hi = _box_arrays(box, d)
    axes = [np.linspace(lo[j], hi[j], _auto_grid(d)) for j in range(d)]
    seeds = list(itertools.product(*axes))

    def system(x):
        pt = t + tuple(x)
        return calc.gradient(pt), calc.hessian(pt)

    dropped = 0
    found = []
    for s in seeds:
        x = _newton(system, s, (lo, hi))
        if x is None:
            dropped += 1
            continue
        if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12):
            found.append(x)
    if dropped:
        log.info("fiber_critical_points: %d of %d seeds did not converge", dropped, len(seeds))
    points = []
    for x in _dedup(found, DEDUP_RADIUS):
        pt = t + tuple(x)
        points.append(
            CriticalPoint(
                t=t[0] if F.param_dim == 1 else None,
                x=x,
                value=calc.value(pt),
                cls=classify(fiber_jet3(F, t, x), CLASSIFY_TOL),
                grad_norm=float(np.linalg.norm(calc.gradient(pt))),
            )
        )
    points.sort(key=lambda p: tuple(p.x))
    return points


# ---------------------------------------------------------------------------
# birth-death tracing along a one-parameter family


@dataclass(frozen=True)
class BirthDeathEvent:
    t_star: float
    x_star: np.ndarray
    index: int
    det_hessian: float


@dataclass(frozen=True)
class DegenerateFlag:
    t: float
    x: np.ndarray
    reason: str


@dataclass(frozen=True)
class TraceResult:
    events: tuple
    degenerate: tuple
    warnings: tuple
    samples: tuple  # (t, list of CriticalPoint) per grid value


def _min_eig(calc, pt):
    """Signed smallest-magnitude eigenvalue of the Hessian of f_t."""
    w = np.linalg.eigvalsh(calc.hessian(pt))
    return float(w[np.argmin(np.abs(w))])


def _refine_fold(calc, t, x, box):
    """Newton on the augmented system (grad f_t(x), mu_min(H_t(x))) = 0 in (x, t).

    Locates the degenerate point itself rather than a nearby critical
    point, which one-dimensional refinements cannot do when the smallest
    eigenvalue touches zero without crossing (the kernel-cubic test at the
    returned point then reads the true local model, not grid-scale noise).
    Returns (t, x) or None if the iteration fails to converge.
    """
    d = calc.d

    def system(z):
        pt = (float(z[d]),) + tuple(z[:d])
        H = calc.hessian(pt)
        w, V = np.linalg.eigh(H)
        i0 = int(np.argmin(np.abs(w)))
        v = V[:, i0]
        J = np.zeros((d + 1, d + 1))
        J[:d, :d] = H
        J[:d, d] = calc.gradient(pt, dt=True)
        T = calc.third_tensor(pt)  # T[:, :, c] = dH/dx_c
        for c in range(d):
            J[d, c] = float(v @ T[:, :, c] @ v)
        J[d, d] = float(v @ calc.hessian(pt, dt=True) @ v)
        return np.append(calc.gradient(pt), float(w[i0])), J

    z = _newton(system, np.append(np.asarray(x, dtype=float), float(t)), box)
    return None if z is None else (float(z[d]), z[:d])


def _match_tracks(prev_pts, next_pts):
    """Greedy nearest-neighbor matching; returns (prev index, next index) pairs."""
    dists = [
        (np.linalg.norm(p.x - q.x), i, j)
        for i, p in enumerate(prev_pts)
        for j, q in enumerate(next_pts)
    ]
    dists.sort(key=lambda r: r[0])
    used_i, used_j = set(), set()
    pairs = []
    for _, i, j in dists:
        if i not in used_i and j not in used_j:
            used_i.add(i)
            used_j.add(j)
            pairs.append((i, j))
    return pairs


def trace_birth_death(
    F: PolyFamily,
    t0: float,
    t1: float,
    steps: int = 41,
    box=None,
) -> TraceResult:
    """Locate birth-death parameter values of f_t on [t0, t1].

    Grid-scale candidates come from changes in the critical-point count
    between neighboring samples (the midpoint of the bracket, at each pair
    of points that track matching leaves unmatched) and from sign changes or
    interior local minima of the smallest-magnitude Hessian eigenvalue along
    matched tracks.  Each candidate is polished by Newton on the augmented
    fold system (grad f_t(x), mu_min(H_t(x))) = 0 and then verified through
    classification of the fiber jet at (t*, x*); a degenerate verdict is
    reported as a flag, not an event.  A count change or a sign change of
    det H whose bracket yields no event or flag is reported as a warning.
    """
    if F.param_dim != 1:
        raise ValueError("tracing requires a one-parameter family")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    d = F.fiber_dim
    if box is None:
        box = [(-2.0, 2.0)] * d
    lo, hi = _box_arrays(box, d)
    calc = _calculus(F)
    span = t1 - t0
    warnings: list = []

    ts = np.linspace(t0, t1, steps)
    samples = [fiber_critical_points(F, (t,), box) for t in ts]

    # (t, x, must) at grid scale; must = (t_lo, t_hi, why, p, q) when the
    # bracket [t_lo, t_hi] is sure to hold a degenerate point that the sample
    # points p and q lead into
    candidates = []

    # tracks by nearest-neighbor matching; at a count change the points of
    # the richer sample left unmatched are the ones born or dying in the
    # bracket, and each closest disjoint pair of them is one merging pair
    tracks = []  # list of lists of (sample_index, CriticalPoint)
    open_tracks = [[(0, p)] for p in samples[0]]
    for a in range(1, steps):
        pairs = _match_tracks([tr[-1][1] for tr in open_tracks], samples[a])
        matched_next = set()
        still_open = []
        loose = []
        by_prev = {i: j for i, j in pairs}
        for i, tr in enumerate(open_tracks):
            if i in by_prev:
                j = by_prev[i]
                tr.append((a, samples[a][j]))
                matched_next.add(j)
                still_open.append(tr)
            else:
                tracks.append(tr)
                loose.append(tr[-1][1].x)
        for j, p in enumerate(samples[a]):
            if j not in matched_next:
                still_open.append([(a, p)])
                loose.append(p.x)
        open_tracks = still_open
        t_mid = 0.5 * float(ts[a - 1] + ts[a])
        if len(loose) == 1:
            candidates.append((t_mid, loose[0], None))
        why = f"the critical-point count changes by {len(samples[a]) - len(samples[a - 1]):+d}"
        while len(loose) >= 2:
            p, q = min(itertools.combinations(loose, 2),
                       key=lambda pq: float(np.linalg.norm(pq[0] - pq[1])))
            candidates.append((t_mid, (p + q) / 2.0,
                               (float(ts[a - 1]), float(ts[a]), why, p, q)))
            loose = [r for r in loose if r is not p and r is not q]
    tracks.extend(open_tracks)

    # along tracks: sign changes and interior minima of mu; mu also flips
    # sign where two eigenvalues swap as the smallest in magnitude, so only a
    # sign change of det H is sure to hold a degenerate point
    for tr in tracks:
        if len(tr) < 2:
            continue
        pts = [(float(ts[a]),) + tuple(p.x) for a, p in tr]
        mus = [_min_eig(calc, pt) for pt in pts]
        dets = [np.linalg.det(calc.hessian(pt)) for pt in pts]
        for u in range(len(tr) - 1):
            (a, pa), (b, pb) = tr[u], tr[u + 1]
            if mus[u] == 0.0 or mus[u] * mus[u + 1] < 0.0:
                must = ((float(ts[a]), float(ts[b]), "det H changes sign along a track",
                         pa.x, pb.x) if dets[u] * dets[u + 1] <= 0.0 else None)
                candidates.append((0.5 * float(ts[a] + ts[b]), (pa.x + pb.x) / 2.0, must))
        # interior local minima of |mu| without a sign change
        for u in range(1, len(tr) - 1):
            if abs(mus[u]) < abs(mus[u - 1]) and abs(mus[u]) <= abs(mus[u + 1]):
                if mus[u - 1] * mus[u] < 0.0 or mus[u] * mus[u + 1] < 0.0:
                    continue  # handled by the sign-change branch
                a, p = tr[u]
                candidates.append((float(ts[a]), p.x, None))

    # polish each candidate on the augmented fold system, rejecting a result
    # more than two grid cells away in t or outside the fiber box; an
    # unpolished candidate is classified as it stands, and as it is rarely
    # degenerate at grid scale it is usually dropped
    grid_dt = span / (steps - 1)
    slack = 1e-6 * span
    events: list = []
    degenerate: list = []
    unlocated = []
    for t_star, x_star, must in candidates:
        ref = _refine_fold(calc, t_star, x_star, (lo, hi))
        if ref is not None:
            t_r, x_r = ref
            if (
                abs(t_r - t_star) <= 2.0 * grid_dt
                and np.all(x_r >= lo - 1e-9) and np.all(x_r <= hi + 1e-9)
            ):
                t_star, x_star = t_r, np.asarray(x_r)
        jet = fiber_jet3(F, (t_star,), x_star)
        cls = classify(jet, EVENT_TOL)
        if must is not None and not (
            cls.kind in (BIRTH_DEATH, DEGENERATE)
            and must[0] - slack <= t_star <= must[1] + slack
        ):
            unlocated.append(must)
        det_h = float(np.linalg.det(calc.hessian((t_star,) + tuple(x_star))))
        if cls.kind == BIRTH_DEATH:
            if _near_duplicate(events, t_star, x_star, span):
                continue
            events.append(BirthDeathEvent(t_star, x_star, cls.index, det_h))
        elif cls.kind == DEGENERATE:
            if _near_duplicate(degenerate, t_star, x_star, span):
                continue
            degenerate.append(DegenerateFlag(t_star, x_star, cls.reason))
        # a nondegenerate verdict means the candidate was a benign minimum

    # a candidate that must hold a degenerate point but located none is
    # surfaced, unless a point located in its bracket lies closer to p or q
    # than they lie to each other: then one of them was already accounted
    # for (a degenerate sample can hold near-copies of one critical point)
    located = [(e.t_star, e.x_star) for e in events] + [(f.t, f.x) for f in degenerate]
    for t_lo, t_hi, why, p, q in unlocated:
        sep = float(np.linalg.norm(p - q))
        if not any(
            t_lo - slack <= t <= t_hi + slack
            and min(np.linalg.norm(x - p), np.linalg.norm(x - q)) <= sep
            for t, x in located
        ):
            warnings.append(f"fold not located on [{t_lo!r}, {t_hi!r}], where {why}")

    events.sort(key=lambda e: e.t_star)
    degenerate.sort(key=lambda f: f.t)
    return TraceResult(tuple(events), tuple(degenerate), tuple(warnings),
                       tuple((float(t), pts) for t, pts in zip(ts, samples)))


def _near_duplicate(records, t_star, x_star, span):
    for r in records:
        t_r = r.t_star if isinstance(r, BirthDeathEvent) else r.t
        x_r = r.x_star if isinstance(r, BirthDeathEvent) else r.x
        if abs(t_r - t_star) <= 1e-6 * span and np.linalg.norm(x_r - x_star) <= 1e-4:
            return True
    return False


# ---------------------------------------------------------------------------
# axiom report


PASS = "Pass"
FAIL = "Fail"


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    verdict: str
    note: str


@dataclass(frozen=True)
class FamilyAxiomReport:
    verdicts: tuple
    events: tuple
    degenerate: tuple
    warnings: tuple

    def verdict(self, axiom: str) -> str:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v.verdict
        raise KeyError(axiom)


def _boundary_min(calc, t, lo, hi):
    d = len(lo)
    best = math.inf
    axes = [np.linspace(lo[j], hi[j], 8) for j in range(d)]
    for face_var in range(d):
        for face_val in (lo[face_var], hi[face_var]):
            free = [axes[j] if j != face_var else np.array([face_val]) for j in range(d)]
            for p in itertools.product(*free):
                best = min(best, calc.value(t + p))
    return best


def check_family_axioms(
    F: PolyFamily,
    t0: float | None = None,
    t1: float | None = None,
    steps: int = 41,
    box=None,
) -> FamilyAxiomReport:
    """Sampled verdicts for the generalized-Morse family conditions.

    (i) properness proxy: at each sampled t the box-boundary minimum of f_t
        must lie above every interior critical value found (a boundary-
        dominance surrogate for behavior at infinity; a Fail here flags
        possible escape, it does not disprove properness).
    (ii) graph embeddings x -> (f(x), x) are embeddings by construction;
        recorded, not independently verified.
    (iii) the parameter projection is a coordinate projection, a submersion
        by construction.
    (iv) every critical point found must classify as nondegenerate or
        birth-death; any Degenerate verdict (at a sample or at a refined
        event) fails the axiom.
    """
    d = F.fiber_dim
    if box is None:
        box = [(-2.0, 2.0)] * d
    lo, hi = _box_arrays(box, d)
    calc = _calculus(F)

    events: tuple = ()
    degenerate: list = []
    warnings: list = []

    if F.param_dim == 0:
        grids = [tuple()]
        sampled = [(tuple(), fiber_critical_points(F, tuple(), box))]
    elif F.param_dim == 1:
        if t0 is None or t1 is None:
            raise ValueError("one-parameter family needs a t-window")
        trace = trace_birth_death(F, t0, t1, steps, box)
        events = trace.events
        degenerate.extend(trace.degenerate)
        warnings.extend(trace.warnings)
        sampled = [((t,), pts) for t, pts in trace.samples]
    else:
        raise ValueError("axiom checks support param_dim 0 or 1")

    prop_ok, prop_note = True, "boundary minimum above interior critical values at all samples"
    for t, pts in sampled:
        if not pts:
            continue
        bmin = _boundary_min(calc, t, lo, hi)
        vmax = max(p.value for p in pts)
        if bmin <= vmax:
            prop_ok = False
            prop_note = (
                f"boundary minimum {bmin:.6g} not above interior critical value "
                f"{vmax:.6g} at t={t}; possible escape through the box"
            )
            break

    for t, pts in sampled:
        for p in pts:
            if p.cls.kind == DEGENERATE:
                degenerate.append(DegenerateFlag(
                    t[0] if t else 0.0, p.x, p.cls.reason))

    iv_ok = not degenerate
    verdicts = (
        AxiomVerdict("properness", PASS if prop_ok else FAIL, prop_note),
        AxiomVerdict("embedding", PASS, "graph embedding by construction; not independently verified"),
        AxiomVerdict("submersion", PASS, "coordinate projection, submersion by construction"),
        AxiomVerdict(
            "gmf",
            PASS if iv_ok else FAIL,
            "all critical points nondegenerate or birth-death"
            if iv_ok
            else f"degenerate point at t={degenerate[0].t:.6g}: {degenerate[0].reason}",
        ),
    )
    return FamilyAxiomReport(verdicts, events, tuple(degenerate), tuple(warnings))


# ---------------------------------------------------------------------------
# presets and JSON schema


def preset_family(name: str) -> PolyFamily:
    """Built-in one-parameter families on fiber boxes [-2, 2]^d.

    cusp: x^3 - t x.
    suspended-cusp-i: x^3 - t x - y_1^2 - ... - y_i^2 + y_{i+1}^2
        (the cusp axis plus i negative squares, padded by one positive
        square), so the event has index i.
    swallowtail: x^4 - t x (degenerate at t = 0: the fiber jet there has
        vanishing kernel cubic).
    """
    if name == "cusp":
        return PolyFamily(1, 1, (((0, 3), 1.0), ((1, 1), -1.0)))
    if name == "swallowtail":
        return PolyFamily(1, 1, (((0, 4), 1.0), ((1, 1), -1.0)))
    if name.startswith("suspended-cusp-"):
        try:
            i = int(name.rsplit("-", 1)[1])
        except ValueError:
            raise KeyError(name) from None
        if i < 0:
            raise KeyError(name)
        d = i + 2
        terms = [((0,) + (3,) + (0,) * (d - 1), 1.0), ((1,) + (1,) + (0,) * (d - 1), -1.0)]
        for j in range(i):
            pw = [0] * (1 + d)
            pw[2 + j] = 2
            terms.append((tuple(pw), -1.0))
        pw = [0] * (1 + d)
        pw[1 + d - 1] = 2
        terms.append((tuple(pw), 1.0))
        return PolyFamily(1, d, tuple(terms))
    raise KeyError(name)


def family_to_json_dict(F: PolyFamily) -> dict:
    return {
        "param_dim": F.param_dim,
        "fiber_dim": F.fiber_dim,
        "terms": [{"powers": list(p), "coeff": c} for p, c in F.terms],
    }


def family_from_json_dict(data: dict) -> PolyFamily:
    try:
        k = int(data["param_dim"])
        d = int(data["fiber_dim"])
        terms = tuple(
            (tuple(int(p) for p in item["powers"]), float(item["coeff"]))
            for item in data["terms"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed family JSON: {e}") from e
    return PolyFamily(k, d, terms)
