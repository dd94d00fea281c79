"""One-parameter polynomial families and their birth-death events.

A family is a real polynomial F(t, x) on R^k x R^d (k in {0, 1} is what the
tracing code exercises).  Fiber 3-jets come from exact polynomial
differentiation, never finite differences, with each derivative's term list
compiled once and evaluated over many points at a time.  Critical points are
found by Newton iteration from a seed grid, the whole grid as one batch with
guards that act seed by seed.  Birth-death parameter values start as
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


class _TermLists:
    """Term lists compiled once, to evaluate together at the same points.

    Each term becomes (coeff, ((variable, power), ...)) with its zero powers
    left out, and top holds each variable's highest power.  Given as a dict
    keyed by sorted index tuples, the lists are the independent entries of a
    symmetric tensor, which at() returns filled in.
    """

    def __init__(self, lists, nvars: int):
        self.symmetric = isinstance(lists, dict)
        self.lists = tuple(
            tuple((coeff, tuple((v, p) for v, p in enumerate(powers) if p)) for powers, coeff in terms)
            for terms in (lists.values() if self.symmetric else lists))
        self.top = [0] * nvars
        for terms in self.lists:
            for _, factors in terms:
                for v, p in factors:
                    self.top[v] = max(self.top[v], p)
        if self.symmetric:
            keys = list(lists)
            slots = [(idx, c) for c, key in enumerate(keys) for idx in set(itertools.permutations(key))]
            self.index = (Ellipsis,) + tuple(np.array(i) for i in zip(*(idx for idx, _ in slots)))
            self.source = [c for _, c in slots]
            self.shape = (1 + max(map(max, keys)),) * len(keys[0])

    def at(self, pt) -> np.ndarray:
        """Every list at pt, stacked along the last axis, or the tensor.

        pt is one point or an array of points, one per row.  The powers of
        each coordinate come from one table made with Python's **: repeated
        multiplication and numpy's power each differ from it in the last bit
        for some inputs, and Newton can then stop elsewhere.
        """
        pt = np.asarray(pt, dtype=float)
        rows = pt.reshape(-1, pt.shape[-1])
        pw = [[None, col] + [np.array([x ** p for x in col.tolist()]) for p in range(2, top + 1)]
              for col, top in zip(rows.T, self.top)]
        out = np.zeros((len(self.lists), len(rows)))
        for val, terms in zip(out, self.lists):
            for coeff, factors in terms:
                v = coeff
                for var, p in factors:
                    v = v * pw[var][p]
                val += v
        out = out.T.reshape(pt.shape[:-1] + (len(self.lists),))
        if not self.symmetric:
            return out
        tensor = np.zeros(pt.shape[:-1] + self.shape)
        tensor[self.index] = out[..., self.source]
        return tensor


class _FamilyCalculus:
    """Exact derivatives of a family with respect to fiber variables.

    Every method takes a point pt = (parameters..., fiber coordinates...) or
    an (m, k + d) array of such points, one per row, and then returns one
    result per row.  For a one-parameter family the gradient and Hessian of
    dF/dt are kept too (t is differentiated first).
    """

    def __init__(self, F: PolyFamily):
        k, d = F.param_dim, F.fiber_dim
        self.d = d
        n = k + d

        def fiber_derivatives(terms):
            grad = [_diff_terms(terms, k + j) for j in range(d)]
            hess = {(j, l): _diff_terms(grad[j], k + l) for j in range(d) for l in range(j, d)}
            return grad, hess

        grad, hess = fiber_derivatives(F.terms)
        third = {(j, l, m): _diff_terms(h, k + m) for (j, l), h in hess.items() for m in range(l, d)}
        self.terms = _TermLists([F.terms], n)
        self.grad, self.hess = _TermLists(grad, n), _TermLists(hess, n)
        self.third = _TermLists(third, n)
        if k == 1:
            grad_dt, hess_dt = fiber_derivatives(_diff_terms(F.terms, 0))
            self.grad_dt, self.hess_dt = _TermLists(grad_dt, n), _TermLists(hess_dt, n)

    def value(self, pt):
        v = self.terms.at(pt)[..., 0]
        return v if v.ndim else float(v)

    def gradient(self, pt, dt: bool = False) -> np.ndarray:
        return (self.grad_dt if dt else self.grad).at(pt)

    def hessian(self, pt, dt: bool = False) -> np.ndarray:
        return (self.hess_dt if dt else self.hess).at(pt)

    def third_tensor(self, pt) -> np.ndarray:
        """Dense symmetric tensor of third fiber derivatives."""
        return self.third.at(pt)


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
    """Newton iteration for system(Z) = (residuals, Jacobians), run from every
    row of the (m, n) start array z0 at once.

    A row holds the fiber coordinates first, then any unknown parameters;
    box is the fiber box (lo, hi).  system maps a (p, n) array of rows to
    their (p, n) residuals and (p, n, n) Jacobians.  Row i of the returned
    (m, n) array is run i's final iterate if its residual norm is within
    NEWTON_TOL, else the last iterate of run i that was, else NaN.

    Iteration continues after the residual criterion is met: at a multiple
    root Newton converges only linearly and stops far from the point if cut
    off at the first small residual, which would leave distinct copies of
    the same critical point beyond the dedup radius, and near a fold the
    residual can be quadratic in the distance to it.  A run ends on a
    singular step, on a step or parameters too large to square (non-finite
    ones included), when its fiber coordinates leave 10 (diam + 1), when its
    step stalls, or after MAX_ITER steps; the other runs go on without it,
    and no run's result depends on the other rows.
    """
    Z = np.array(z0, dtype=float)
    lo, hi = box
    d = len(lo)
    diam = float(np.max(hi - lo))
    best = np.full_like(Z, np.nan)
    live = np.arange(len(Z))
    for _ in range(MAX_ITER):
        if not live.size:
            break
        z = Z[live]
        r, J = system(z)
        small = _row_norms(r) <= NEWTON_TOL
        best[live[small]] = z[small]
        step, go = _solve_rows(J, r)
        zn = z - step
        with np.errstate(over="ignore"):  # norms that overflow end the run below
            step_norm, param_norm = _row_norms(step), _row_norms(zn[:, d:])
        go &= np.isfinite(step_norm) & np.isfinite(param_norm)
        go[go] = np.abs(zn[go, :d]).max(axis=1) <= 10.0 * (diam + 1.0)
        live, zn = live[go], zn[go]
        Z[live] = zn
        moving = step_norm[go] > 1e-14 * (1.0 + _row_norms(zn[:, :d]) + param_norm[go])
        live = live[moving]
    done = _row_norms(system(Z)[0]) <= NEWTON_TOL
    return np.where(done[:, None], Z, best)


def _solve_rows(J, r):
    """Steps J_i^-1 r_i, and which rows have one: a singular J_i makes the
    stacked solve raise, and then the rows are solved one by one."""
    try:
        return np.linalg.solve(J, r[:, :, None])[:, :, 0], np.ones(len(r), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step, solved = np.zeros_like(r), np.zeros(len(r), dtype=bool)
    for i in range(len(r)):
        try:
            step[i] = np.linalg.solve(J[i:i + 1], r[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            continue
        solved[i] = True
    return step, solved


def _row_norms(V) -> np.ndarray:
    # Euclidean norm of each row, summed column by column so that a row's
    # norm does not depend on the other rows
    s = np.zeros(len(V))
    for col in V.T:
        s += col * col
    return np.sqrt(s)


def _with_params(t, X) -> np.ndarray:
    """The points (t, x), one per row x of X."""
    P = np.empty((len(X), len(t) + X.shape[1]))
    P[:, :len(t)] = t
    P[:, len(t):] = X
    return P


def _box_arrays(box, d):
    lo = np.asarray([b[0] for b in box], dtype=float)
    hi = np.asarray([b[1] for b in box], dtype=float)
    # hi - lo is NaN or infinite when a bound is
    if lo.shape != (d,) or not (np.isfinite(hi - lo).all() and (hi > lo).all()):
        raise ValueError("box must be a list of finite (lo, hi) pairs with lo < hi, "
                         "one per fiber variable")
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

    The whole seed grid is one batch of rows for _newton, each row with its
    own guards.  Non-converged seeds are dropped (a count is logged).  Each
    point is classified from its fiber 3-jet, whose linear part is the
    gradient at the point and hence ~0 by construction.
    """
    t = tuple(np.atleast_1d(np.asarray(t, dtype=float))) if F.param_dim else tuple()
    if len(t) != F.param_dim:
        raise ValueError(f"parameter has {len(t)} entries, expected {F.param_dim}")
    if not all(map(math.isfinite, t)):
        raise ValueError(f"parameter {t} is not finite")
    calc = _calculus(F)
    d = F.fiber_dim
    lo, hi = _box_arrays(box, d)
    axes = [np.linspace(lo[j], hi[j], _auto_grid(d)) for j in range(d)]
    seeds = np.array(list(itertools.product(*axes)))

    def system(X):
        P = _with_params(t, X)
        return calc.gradient(P), calc.hessian(P)

    Z = _newton(system, seeds, (lo, hi))
    converged = np.isfinite(Z).all(axis=1)
    dropped = len(Z) - int(converged.sum())
    if dropped:
        log.info("fiber_critical_points: %d of %d seeds did not converge", dropped, len(seeds))
    found = list(Z[converged & (Z >= lo - 1e-12).all(axis=1) & (Z <= hi + 1e-12).all(axis=1)])
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

    def system(Z):  # one row
        z = Z[0]
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
        return np.append(calc.gradient(pt), float(w[i0]))[None], J[None]

    z = _newton(system, np.append(np.asarray(x, dtype=float), float(t))[None], box)[0]
    return None if np.isnan(z).any() else (float(z[d]), z[:d])


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
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
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


def _boundary_points(lo, hi) -> np.ndarray:
    """An 8-point-per-axis grid on each of the 2d faces of the box, one row each."""
    d = len(lo)
    axes = [np.linspace(lo[j], hi[j], 8) for j in range(d)]
    points = []
    for face_var in range(d):
        for face_val in (lo[face_var], hi[face_var]):
            free = [axes[j] if j != face_var else np.array([face_val]) for j in range(d)]
            points.extend(itertools.product(*free))
    return np.array(points)


def _boundary_min(calc, t, boundary) -> float:
    return float(calc.value(_with_params(t, boundary)).min())


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
    boundary = _boundary_points(lo, hi)
    for t, pts in sampled:
        if not pts:
            continue
        bmin = _boundary_min(calc, t, boundary)
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
