"""One-parameter polynomial families and their birth-death events.

A family is a real polynomial F(t, x) on R^k x R^d (k in {0, 1} is what the
tracing code exercises).  Its value and fiber derivatives come from exact
polynomial differentiation, never finite differences: one evaluator per
family compiles each derivative table once and evaluates the tables a caller
names in one call per batch of points, on one shared table of powers.
Critical points are found by Newton iteration from a seed grid, with guards
that act seed by seed; a trace runs the seed grids of all its parameter
values as one batch, so its memory grows with the number of values; seeds
that converge to the same floats are merged before any distance is taken.
Where a family is quadratic in some fiber coordinates, Newton's first step
solves those exactly, and the seeds of a fiber that then coincide run on as
one.  A fiber whose gradient a natural interval bound keeps away from zero
on the box has no in-box point that passes the residual test, and its seeds
are left out of the batch; this covers the fibers on the side of a
birth-death value without the cancelling pair, but not a gradient whose
entries mix odd powers of several coordinates (the rotated cusp), where no
single coordinate interval excludes zero.  A fiber none of whose seeds has
reached a point of the box after a few Newton steps gets the same bound on
a bisection of the box, and its seeds stop if every sub-box is excluded.
Birth-death parameter values start as grid-scale candidates (critical-point
count changes, and sign changes or local minima of the smallest-magnitude
Hessian eigenvalue along matched tracks) and are located by Newton on the
augmented fold system.  A bracket sure to hold a fold that locates none
warns, unless a sample point it starts from is itself degenerate.

Like `jet_core`, this module imports numpy at the first `np.<name>` a function
evaluates, not when it loads.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys

from ._record import record
from .jet_core import (
    BIRTH_DEATH,
    DEGENERATE,
    GmfClass,
    Jet3,
    _integer,
    _json_numbers,
    _LazyNumpy,
    _norms,
    classify_parts,
    jet_from_parts,
)

np = _LazyNumpy(globals())


def _log_info(msg, *args):
    # INFO goes out only if something has loaded logging: until then no
    # handler or level is configured, and the root's default WARNING drops
    # INFO, so the import (about 7 ms) is not paid for nothing
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).info(msg, *args)


# ---------------------------------------------------------------------------
# polynomial families


@record
class PolyFamily:
    """Terms are (powers, coeff) with powers of length param_dim + fiber_dim.

    The first param_dim exponents belong to the parameters, the rest to the
    fiber variables.
    """

    param_dim: int
    fiber_dim: int
    terms: tuple

    def __post_init__(self):
        k, d = _integer(self.param_dim, "param_dim"), _integer(self.fiber_dim, "fiber_dim")
        if k < 0 or d < 1:
            raise ValueError("need param_dim >= 0 and fiber_dim >= 1")
        norm = []
        for powers, coeff in self.terms:
            powers = tuple(_integer(p, "power") for p in powers)
            if len(powers) != k + d or any(p < 0 for p in powers):
                raise ValueError(f"bad powers {powers} for param_dim={k}, fiber_dim={d}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} at powers {powers}")
            norm.append((powers, coeff))
        vars(self).update(param_dim=k, fiber_dim=d, terms=tuple(norm))


def _diff_terms(terms, var):
    out = []
    for powers, coeff in terms:
        p = powers[var]
        if p:
            q = list(powers)
            q[var] = p - 1
            out.append((tuple(q), coeff * p))
    return tuple(out)


def _power(x: float, p: int) -> float:
    try:
        return x ** p
    except OverflowError:  # too large for a float: the infinity of its sign
        return math.copysign(math.inf, x) ** p


class _FamilyCalculus:
    """The one evaluator of a family: its exact derivative tables, each
    compiled once, evaluated by at() for a batch of points.

    The tables are named: value is F; grad, hess and third are its first,
    second and third derivatives in the fiber variables; a one-parameter
    family also has grad_dt and hess_dt, the fiber gradient and Hessian of
    dF/dt.  A table holds the term lists of the independent entries of a
    symmetric tensor, keyed by sorted fiber indices, each term as
    (coeff, ((variable, power), ...)) with its zero powers left out, and
    at() fills in the whole tensor.
    """

    def __init__(self, F: PolyFamily):
        k, d = F.param_dim, F.fiber_dim
        self.k, self.d = k, d

        def fiber_derivatives(terms):
            grad = {(j,): _diff_terms(terms, k + j) for j in range(d)}
            hess = {(j, l): _diff_terms(grad[(j,)], k + l) for j in range(d) for l in range(j, d)}
            return grad, hess

        def compile_table(entries):
            lists = tuple(
                tuple((coeff, tuple((v, p) for v, p in enumerate(powers) if p)) for powers, coeff in terms)
                for terms in entries.values())
            exponents = [powers for terms in entries.values() for powers, _ in terms]
            used = [{powers[v] for powers in exponents} - {0, 1} for v in range(k + d)]
            # the list behind each entry of the dense tensor, in C order
            position = {key: c for c, key in enumerate(entries)}
            rank = len(next(iter(entries)))
            gather = np.array([position[tuple(sorted(idx))]
                               for idx in itertools.product(range(d), repeat=rank)])
            return lists, used, gather, (d,) * rank

        grad, hess = fiber_derivatives(F.terms)
        third = {(j, l, m): _diff_terms(h, k + m) for (j, l), h in hess.items() for m in range(l, d)}
        tables = {"value": {(): F.terms}, "grad": grad, "hess": hess, "third": third}
        if k == 1:
            tables["grad_dt"], tables["hess_dt"] = fiber_derivatives(_diff_terms(F.terms, 0))
        self.tables = {name: compile_table(entries) for name, entries in tables.items()}
        self.powers = {}  # each variable's powers above 1 in use, per tuple of names
        self.plans = {}  # per tuple of names: its powers, and each table's lists, gather and shape

    def at(self, pt, *names) -> list:
        """The named tables at pt, one array each.

        pt is one point (parameters..., fiber coordinates...) or an
        (m, k + d) array of points, one per row, which puts a leading axis
        of length m on every result.  The powers of each coordinate that the
        named tables use come from one table, shared by the names and made
        with Python's pow, the C pow that ** calls: repeated multiplication
        and numpy's power each differ from it in the last bit for some
        inputs, and Newton can then stop elsewhere.  A power or product too
        large for a float reads as infinite or NaN.
        """
        pt = np.asarray(pt, dtype=float)
        return [r.reshape(pt.shape[:-1] + r.shape[1:])
                for r in self._columns(pt.reshape(-1, pt.shape[-1]).T, names)]

    def _columns(self, cols, names) -> list:
        """at() on the points whose coordinates are the equal-length 1-d
        arrays cols, one per variable: each named table with a leading row
        axis.  The powers and the tables' lists come from a plan made once
        per names; a table whose gather is the identity (rank 0 or 1, or
        fiber dimension 1) is its rows of lists, ungathered.
        """
        plan = self.plans.get(names)
        if plan is None:
            tables = [self.tables[n] for n in names]
            powers = self.powers[names] = [sorted(set().union(*used))
                                           for used in zip(*(used for _, used, _, _ in tables))]
            plan = self.plans[names] = powers, [(lists, None if len(gather) == len(lists) else gather,
                                                 shape) for lists, _, gather, shape in tables]
        powers, tables = plan
        m = len(cols[0])
        pw = []
        for col, ps in zip(cols, powers):
            if not ps:
                pw.append({1: col})
                continue
            xs = col.tolist()
            try:  # float(p): the double that float.__pow__ makes of p on each call
                pw.append({1: col, **{p: np.fromiter(map(pow, xs, itertools.repeat(float(p))),
                                                     float, m) for p in ps}})
            except OverflowError:
                pw.append({1: col, **{p: np.array([_power(x, p) for x in xs]) for p in ps}})
        results = []
        with np.errstate(over="ignore", invalid="ignore"):
            for lists, gather, shape in tables:
                out = np.zeros((len(lists), m))
                for val, terms in zip(out, lists):
                    for coeff, factors in terms:
                        v = coeff
                        for var, p in factors:
                            v = v * pw[var][p]
                        val += v
                results.append((out.T if gather is None else out[gather].T).reshape((m,) + shape))
        return results

    def rootless_in_box(self, T, box) -> np.ndarray:
        """Which fibers f_t, one per row t of the (n, k) array T, provably
        hold no point of box = (lo, hi) where at() computes a gradient of
        norm within NEWTON_TOL: no _newton row of theirs can end on a point
        of the box.

        The box is bisected across its widest side, one level of sub-boxes
        of all the fibers at a time as one set of arrays; a sub-box goes
        when _gradient_excluded excludes it, and a fiber is proven when none
        of its sub-boxes is left.  Every float point of a box lies in one of
        its halves, so a proven fiber's computed gradient exceeds the margin
        everywhere in the box.  BISECT_HALVINGS and BISECT_BOXES cap the
        work: a fiber still unproven at either cap proves nothing.
        """
        n, d = T.shape[0], self.d
        owner = np.arange(n)  # the fiber of each sub-box
        blo, bhi = np.tile(box[0], (n, 1)), np.tile(box[1], (n, 1))
        capped = np.zeros(n, dtype=bool)
        for level in range(BISECT_HALVINGS * d + 1):
            keep = ~self._gradient_excluded(T[owner], blo, bhi)
            owner, blo, bhi = owner[keep], blo[keep], bhi[keep]
            if level == BISECT_HALVINGS * d:
                break
            if 2 * len(owner) > BISECT_BOXES:  # a fiber may be about to pass the cap
                capped |= 2 * np.bincount(owner, minlength=n) > BISECT_BOXES
                keep = ~capped[owner]
                owner, blo, bhi = owner[keep], blo[keep], bhi[keep]
            if not owner.size:
                break
            width = bhi - blo
            widest = np.arange(d) == np.argmax(width, axis=1)[:, None]
            mid = blo + 0.5 * width  # not (blo + bhi) / 2, which can overflow
            owner = np.concatenate((owner, owner))
            blo = np.concatenate((blo, np.where(widest, mid, blo)))
            bhi = np.concatenate((np.where(widest, mid, bhi), bhi))
        return (np.bincount(owner, minlength=n) == 0) & ~capped

    def _gradient_excluded(self, T, lo, hi) -> np.ndarray:
        """Which rows t of T have a fiber-gradient entry whose natural
        interval extension (Moore, Interval Analysis) over the row's box
        lo[i] <= x <= hi[i] lies beyond +-_margin.

        The parameter powers are taken at t, and each fiber monomial ranges
        over _box_range.  An interval whose ends or margin overflow proves
        nothing.
        """
        # a monomial recurs across the gradient entries: range it once
        monomial = functools.lru_cache(maxsize=None)(lambda factors: _box_range(factors, lo, hi))
        excluded = np.zeros(len(T), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for terms in self.tables["grad"][0]:
                lower, upper, size = np.zeros((3, len(T)))
                for coeff, factors in terms:
                    a = coeff
                    for v, p in factors:
                        if v < self.k:
                            a = a * T[:, v] ** p
                    lo_m, hi_m = monomial(tuple((v - self.k, p) for v, p in factors if v >= self.k))
                    ends = a * lo_m, a * hi_m
                    low, high = np.minimum(*ends), np.maximum(*ends)
                    lower += low
                    upper += high
                    size += np.maximum(-low, high)  # |a| max(|lo_m|, |hi_m|), the same float
                margin = _margin(size, len(terms) + 2 * max((len(f) for _, f in terms), default=0))
                excluded |= np.isfinite(margin) & ((lower > margin) | (upper < -margin))
        return excluded


def _box_range(factors, lo, hi) -> tuple:
    """[lo, hi] of the monomial prod x_j^p, factors holding its (j, p), over
    each box lo[i] <= x <= hi[i]: the interval product of the _power_range
    of its factors, each end a chain of products of powers."""
    if not factors:  # the constant 1
        return 1.0, 1.0
    (j, p), *rest = factors
    low, high = _power_range(lo[:, j], hi[:, j], p)
    for j, p in rest:
        a, b = _power_range(lo[:, j], hi[:, j], p)
        ends = low * a, low * b, high * a, high * b
        low = np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3]))
        high = np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3]))
    return low, high


def _power_range(a, b, p) -> tuple:
    """[lo, hi] of x^p over a <= x <= b, elementwise: monotone for odd p,
    and for even p 0 at the bottom when the interval holds 0."""
    if p % 2:
        return a ** p, b ** p
    return np.maximum(np.maximum(a, -b), 0.0) ** p, np.maximum(-a, b) ** p


def _margin(size, ops):
    """How far beyond +-NEWTON_TOL a gradient entry must lie for its residual
    to fail the test, given the summed magnitudes size of its terms over the
    box and ops, the entry's term count plus twice its largest factor
    count.

    at() forms a term as a chain of correctly rounded products of Python
    powers, each within eps of its exact value, so each term is within
    2 f eps of its own with f factors, and the sum of the terms adds less than
    n eps size.  The entry at() computes is hence within ops eps size of the
    exact one, and _gradient_excluded forms each end of an interval from the
    same kind of powers, products and sums, within the same bound.  An interval
    beyond +-(2 NEWTON_TOL + 2 ops eps size) thus puts the computed entry,
    and with it the residual norm of the row, beyond 2 NEWTON_TOL, up to a
    rounding of the norm, at every point of the box.
    """
    return 2.0 * NEWTON_TOL + 2.0 * ops * sys.float_info.epsilon * size


@functools.lru_cache(maxsize=32)
def _calculus(F: PolyFamily) -> _FamilyCalculus:
    return _FamilyCalculus(F)


def _parameter(F: PolyFamily, t) -> tuple:
    """t as a tuple of param_dim finite floats: () when param_dim is 0, a
    number or a 1-tuple when it is 1."""
    t = tuple(np.asarray(t, dtype=float).reshape(-1).tolist())
    if len(t) != F.param_dim:
        raise ValueError(f"parameter has {len(t)} entries, expected {F.param_dim}")
    if not all(map(math.isfinite, t)):
        raise ValueError(f"parameter {t} is not finite")
    return t


def fiber_jet3(F: PolyFamily, t, x) -> Jet3:
    """Degree-3 Taylor data of f_t at x, by exact polynomial differentiation.

    A coefficient too large for a float raises ValueError.
    """
    t = _parameter(F, t)
    x = np.asarray(x, dtype=float).reshape(F.fiber_dim)
    value, grad, hess, third = _calculus(F).at(t + tuple(x), "value", "grad", "hess", "third")
    return jet_from_parts(F.fiber_dim, value, grad, hess / 2.0, third / 6.0)


# ---------------------------------------------------------------------------
# critical points in a fiber

NEWTON_TOL = 1e-10      # residual norm that counts as converged
CLASSIFY_TOL = 1e-9     # classification of sampled critical points
EVENT_TOL = 1e-5        # classification of polished fold candidates
MAX_ITER = 50           # Newton steps per run
DEDUP_RADIUS = 10.0 * NEWTON_TOL
# the Newton step at which a seed run hands rootless_in_box its fibers with no
# in-box point yet: a row of a fiber with a simple in-box root passes
# NEWTON_TOL within a few quadratic steps from the seed grid, so such fibers
# do not reach it, and the rows of a proven fiber are spared the other
# MAX_ITER - PRUNE_STEP steps
PRUNE_STEP = 10
# rootless_in_box's caps.  Bisecting the widest side halves each side in
# turn, so BISECT_HALVINGS * fiber_dim levels cut every side to 1/512 of the
# box's: enough to prove the rotated cusp's fibers short of its fold at box
# half-widths up to 2 (18 levels), while a fiber with an in-box root, never
# proven, pays for every level.  A fiber whose next level would hold more
# than BISECT_BOXES sub-boxes stops unproven, so that no level's arrays grow
# without bound (the rotated cusp needs 44 at half-width 2).
BISECT_HALVINGS = 9
BISECT_BOXES = 512
# the most rows a seed batch may hold: a grid of _auto_grid(d)**d seeds per
# parameter value; and the most rows x d^2, the Hessian, Jacobian and LU
# cells each row carries.  Peak RSS grows by 0.26 KB a row at fiber
# dimension 4, 0.71 KB at 8, 0.92 KB at 10, 1.27 KB at 12 and 3.0 KB at 14,
# at most 16 bytes per cell, so a full batch stays near 200 MB at every d
MAX_SEED_ROWS = 250_000
MAX_SEED_CELLS = 12_000_000


@record
class CriticalPoint:
    t: float | None
    x: np.ndarray
    value: float
    cls: GmfClass
    grad_norm: float


def _newton(system, z0, box, prune=None, group=None):
    """Newton iteration for system(Z, live) = (residuals, Jacobians), run
    from every row of the (m, n) start array z0 at once.

    A row holds the fiber coordinates first, then any unknown parameters;
    box is the fiber box (lo, hi).  system maps a (p, n) array of rows to
    their (p, n) residuals and (p, n, n) Jacobians; live holds the indices
    of those rows in z0, so that a system can close over data known per
    run, such as each row's parameter value.  Row i of the returned (m, n)
    array is run i's final iterate if its residual norm is within
    NEWTON_TOL, else the last iterate of run i that was, else NaN.

    group, if given, holds one integer per row; system and prune must treat
    the rows of a group alike.  After the first step, the live rows of a
    group with bit-equal iterates run on as the lowest of them, whose later
    iterates the others take: each row still gets what it gets alone.

    Iteration continues after the residual criterion is met, as near a fold
    the residual can be quadratic in the distance to the point.  At a root
    of multiplicity m Newton converges only linearly, each step (m - 1)/m of
    the last (Rall 1966).  So in a run with no unknown parameter, where the
    ratio rho of a row's step norm to its last one lies in (0.3, 0.9),
    m = rint(1/(1 - rho)) >= 2 and rho is within 2% of the row's ratio
    before, the row steps m times Newton's step (Schroeder 1870).  A row's
    ratios start after the first step, so rows merged there share them.
    The fold system's rows take Newton's step only: the longer step moves
    the off-grid swallowtail's polish off its degenerate point.

    A run ends on a singular step, on a residual, step or parameters too
    large to square (non-finite ones included), when its fiber coordinates
    leave 10 (diam + 1), when its Newton step stalls, or after MAX_ITER
    steps; the other runs go on without it, and no run's result depends on
    the other rows.  The live rows' iterates and step histories are kept
    compact, in the order of live, and a row's iterate is written back only
    when its run ends: its new iterate if its step stalled or it reached
    MAX_ITER, the iterate it stepped from if a guard failed, and its current
    one if prune stopped it.

    prune, if given, is called once, before step PRUNE_STEP, with the
    indices of the live rows and the array of last iterates within
    NEWTON_TOL (NaN where none yet); the rows it leaves out of the indices
    it returns end there, as if their runs had ended on a guard.
    """
    Z = np.array(z0, dtype=float)
    lo, hi = box
    d = len(lo)
    reach = _reach(lo, hi)
    best = np.full_like(Z, np.nan)
    live, src, z = np.arange(len(Z)), np.arange(len(Z)), Z.copy()  # src: the row each row follows
    own = None  # after the merge: best as the first step left it; best holds later ones
    schroeder = Z.shape[1] == d  # no unknown parameter
    last, ratio = np.full(len(Z), np.nan), np.full(len(Z), np.nan)  # each live row's; NaN: none yet

    def reached(best):  # each row's last iterate within NEWTON_TOL
        return best if own is None else np.where(np.isnan(best[src, :1]), own, best[src])

    # norms that overflow end the run below, a NaN row compares false, and so
    # does a ratio to a zero or missing step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(MAX_ITER):
            if k == PRUNE_STEP and prune is not None:
                Z[live] = z
                kept = np.searchsorted(live, prune(live, reached(best)))  # live ascends
                live, z, last, ratio = live[kept], z[kept], last[kept], ratio[kept]
            if not live.size:
                break
            if k == 1 and group is not None:
                lead = live[_leaders(np.column_stack((group[live], z.view(np.int64))))]
                src[live] = lead  # live ascends: the lowest row wins
                kept = lead == live
                live, z, last, ratio = live[kept], z[kept], last[kept], ratio[kept]
                own, best = best, np.full_like(best, np.nan)
            r, J = system(z, live)
            res_norm = _row_norms(r)
            small = res_norm <= NEWTON_TOL
            if np.count_nonzero(small):
                best[live[small]] = z[small]
            step, go = _solve_rows(J, r)
            step_norm = _row_norms(step)
            if schroeder and k:  # the history starts after the first step, where rows merge
                rho = step_norm / last
                m = np.rint(1.0 / (1.0 - rho))
                take = (rho > 0.3) & (rho < 0.9) & (m >= 2.0) & (np.abs(rho - ratio) <= 0.02 * ratio)
                if np.count_nonzero(take):
                    step[take] *= m[take, None]
                last, ratio = step_norm, rho
            zn = z - step
            go &= np.isfinite(res_norm) & np.isfinite(step_norm)
            go &= np.abs(zn[:, :d]).max(axis=1) <= reach
            size = 1.0 + _row_norms(zn[:, :d])  # the stall test's scale, parameters included
            if Z.shape[1] > d:  # unknown parameters: a run ends where their norm does not square
                param_norm = _row_norms(zn[:, d:])
                go &= np.isfinite(param_norm)
                size += param_norm
            moves = go & (step_norm > 1e-14 * size)
            if np.count_nonzero(moves) < len(live):  # a stalled run ends on zn, a failed one on z
                Z[live[~moves]] = np.where(go[:, None], zn, z)[~moves]
                live, zn, last, ratio = live[moves], zn[moves], last[moves], ratio[moves]
            z = zn
        Z[live] = z
        Z, best = Z[src], reached(best)
        lead = np.flatnonzero(src == np.arange(len(Z)))  # a merged row's verdict is its leader's
        done = (_row_norms(system(Z[lead], lead)[0]) <= NEWTON_TOL)[np.searchsorted(lead, src)]
    return np.where(done[:, None], Z, best)


def _reach(lo, hi) -> float:
    """10 (diam + 1) for the box (lo, hi): a _newton run ends when a fiber
    coordinate of its iterate leaves it."""
    return 10.0 * (float(np.max(hi - lo)) + 1.0)


def _solve_rows(J, r):
    """Steps J_i^-1 r_i, each as np.linalg.solve gives it alone, and which
    rows have one (the others step NaN).

    The gufunc np.linalg.solve wraps factors each J_i once and gives NaN
    where one is singular, where np.linalg.solve raises for the whole stack.
    A non-finite J_i or an overflow gives a non-finite step too, so on those
    rows slogdet, whose LU factorization is solve's, reads a zero
    determinant on exactly the ones whose one-row solve would raise.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        step = np.linalg._umath_linalg.solve1(J, r, signature="dd->d")
        solved = np.isfinite(step).all(axis=1)
        if not solved.all():
            solved[~solved] = np.linalg.slogdet(J[~solved])[0] != 0.0
    return step, solved


def _row_norms(V) -> np.ndarray:
    # Euclidean norm of each row, summed column by column so that a row's
    # norm does not depend on the other rows; a square is never -0.0, so
    # starting from the first is starting from 0.0 plus it
    c = V[:, 0]
    s = c * c
    for j in range(1, V.shape[1]):
        c = V[:, j]
        s += c * c
    return np.sqrt(s)


def _leaders(key) -> np.ndarray:
    """For each row of the 2-d integer array key, the lowest row equal to it.

    A stable lexsort keeps the rows of each run of equal keys ascending, so
    a run's first row is its lowest; a run starts where a row differs from
    the row before it.
    """
    order = np.lexsort(key.T)
    ranked = key[order]
    start = np.ones(len(key), dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    lead = np.empty_like(order)
    lead[order] = order[start][np.cumsum(start) - 1]
    return lead


def _box_arrays(box, d):
    lo = np.asarray([b[0] for b in box], dtype=float)
    hi = np.asarray([b[1] for b in box], dtype=float)
    with np.errstate(over="ignore"):  # hi - lo is NaN or infinite when a bound is, or
        width = hi - lo                # when the box is too wide for a float
    if lo.shape != (d,) or not (np.isfinite(width).all() and (hi > lo).all()):
        raise ValueError("box must be a list of finite (lo, hi) pairs with lo < hi, "
                         "one per fiber variable")
    return lo, hi


def _distance(x, y) -> float:
    """Euclidean distance, inf when it is too large for a float: sqrt(v.dot(v))
    for v = x - y, what np.linalg.norm computes for a 1-d float array."""
    with np.errstate(over="ignore"):
        v = x - y
        return math.sqrt(v.dot(v))


def _dedup(fiber, X, radius) -> np.ndarray:
    """The indices of the rows of X to keep, ascending: in each fiber (rows
    with the same integer in fiber), its rows in order, less each within
    radius of one kept before it in that fiber.

    Within means _distance <= radius.  Newton sends many seeds to the same
    floats: a row equal to an earlier one of its fiber (bit for bit after
    + 0.0, so -0.0 equals 0.0) goes unmeasured, all in one _leaders pass, as
    its distance to every row is its first copy's.  The rule then runs on the
    first copies, and measures only the pairs whose largest coordinate gap is
    within radius (1 + 1e-9): a computed distance is at least the largest gap
    of the same difference, less a relative rounding under (d + 3) eps, far
    below 1e-9 at any fiber dimension, so a pair with a larger gap is not
    within radius.  Those pairs are found among the first copies sorted by
    fiber and first coordinate, k places apart for k = 1, 2, ... until no
    pair k apart is that close in its first coordinate.
    """
    first = np.flatnonzero(_leaders(np.column_stack((fiber, (X + 0.0).view(np.int64))))
                           == np.arange(len(X)))
    F, Y = fiber[first], X[first]
    reach = radius * (1.0 + 1e-9)
    order = np.lexsort((Y[:, 0], F))
    f, y0 = F[order], Y[order, 0]
    near = []  # (j, i): first copies j > i of one fiber within reach in every coordinate
    with np.errstate(over="ignore"):  # a gap too large for a float is inf
        for k in itertools.count(1):
            close = np.flatnonzero((f[k:] == f[:-k]) & (y0[k:] - y0[:-k] <= reach))
            if not close.size:
                break
            a, b = order[close], order[close + k]
            keep = np.abs(Y[a] - Y[b]).max(axis=1) <= reach
            near += zip(np.maximum(a, b)[keep].tolist(), np.minimum(a, b)[keep].tolist())
    dropped = [False] * len(first)
    for j, i in sorted(near):  # every i < j is settled before j
        if not (dropped[j] or dropped[i]) and _distance(Y[j], Y[i]) <= radius:
            dropped[j] = True
    return first[~np.array(dropped, dtype=bool)]


def _auto_grid(d: int) -> int:
    # cap the seed count so high-dimensional fibers stay tractable
    if d == 1:
        return 8
    return max(2, int(round(64.0 ** (1.0 / d))))


def _seed_batch_admitted(values, d) -> bool:
    """Whether a batch of values seed grids in fiber dimension d stays within MAX_SEED_ROWS
    rows and MAX_SEED_CELLS rows x d^2; _auto_grid(d) >= 2, so a large d is refused unpowered."""
    if d >= MAX_SEED_ROWS.bit_length():
        return False
    rows = values * _auto_grid(d) ** d
    return rows <= MAX_SEED_ROWS and rows * d * d <= MAX_SEED_CELLS


def _check_seed_batch(values, d):
    """Refuse a batch that _seed_batch_admitted refuses, before anything of its size is made."""
    if not _seed_batch_admitted(values, d):
        raise ValueError(f"fiber dimension {d} at {values} parameter value(s) needs more than "
                         f"MAX_SEED_ROWS = {MAX_SEED_ROWS} seed rows or MAX_SEED_CELLS = "
                         f"{MAX_SEED_CELLS} rows x d^2")


def fiber_critical_points(F: PolyFamily, t, box):
    """Newton from a seed grid; converged in-box points, deduplicated.

    Non-converged seeds are dropped (a count is logged); a fiber whose
    gradient an interval bound keeps away from zero on the box
    (_FamilyCalculus._gradient_excluded) has no in-box point that passes the
    residual test, runs no Newton and counts all its seeds so.  Each point
    is classified from its fiber 3-jet, whose linear part is the gradient at
    the point and hence ~0 by construction.  A point whose jet is too large
    for a float is dropped, as there is nothing to classify.  This is the
    one-fiber case of _critical_points, which trace_birth_death runs on all
    its grid values at once.
    """
    _check_seed_batch(1, F.fiber_dim)
    return _critical_points(F, [_parameter(F, t)], box)[0]


def _critical_points(F: PolyFamily, ts, box) -> list:
    """fiber_critical_points for every parameter tuple of ts, one list each.

    The seed grids of all the fibers are one batch of rows for _newton, each
    row with its own parameter value and its own guards.  Its converged
    in-box rows then pass through whole-batch steps: one _dedup call drops
    every fiber's repeated and near rows, one evaluation gives the jets of
    the points kept, classify_parts classifies them all (None for a jet too
    large for a float), and one lexsort orders each fiber's points by x.  A
    row's result does not depend on the other rows, so each list is what its
    fiber would give alone.  Its group is its fiber: where the family is
    quadratic in some coordinates (the suspended cusps and the cubic pair,
    not the cusp, swallowtail or rotated cusp), the seeds that differ only
    there run once after the first step.

    The fibers that _gradient_excluded proves on the box of the in-box test
    below, inner, leave their seed grids out of the batch and read NaN
    without running; this is level 0 of the subdivision that rootless_in_box
    runs at step PRUNE_STEP on the fibers with a live row and no row yet
    within NEWTON_TOL inside inner, whose rows stop if it proves them.  A
    fiber proven either way holds no in-box point whose residual passes, so
    no row of it, run on, would have ended on a kept point: every list is
    bit for bit the same, and only a row's count in the log of unconverged
    seeds can change.
    """
    calc = _calculus(F)
    d = F.fiber_dim
    lo, hi = _box_arrays(box, d)
    axes = [np.linspace(lo[j], hi[j], _auto_grid(d)) for j in range(d)]
    seeds = np.array(list(itertools.product(*axes)))
    m = len(seeds)
    T = np.array(ts, dtype=float).reshape(len(ts), F.param_dim)
    inner = (lo - 1e-12, hi + 1e-12)  # a kept point lies in this box
    # the fibers whose seeds go to _newton
    run = ~calc._gradient_excluded(T, *(np.tile(b, (len(T), 1)) for b in inner))
    pruned = len(ts) - int(run.sum())
    if pruned:
        _log_info("fiber_critical_points: %d of %d fibers have no in-box critical point by an "
                  "interval bound; %d seed rows skipped", pruned, len(ts), pruned * m)
    T_run = T[run]
    params = list(np.repeat(T_run, m, axis=0).T)  # the parameter columns of the seed rows

    def inside(Z):  # a NaN row does not
        return (Z >= inner[0]).all(axis=-1) & (Z <= inner[1]).all(axis=-1)

    def system(X, live):
        return calc._columns([c[live] for c in params] + [*X.T], ("grad", "hess"))

    def prune(live, best):
        candidates = np.zeros(len(T_run), dtype=bool)
        candidates[live // m] = True
        candidates &= ~inside(best).reshape(-1, m).any(axis=1)
        if not candidates.any():
            return live
        proven = np.zeros_like(candidates)
        proven[candidates] = calc.rootless_in_box(T_run[candidates], inner)
        _log_info("fiber_critical_points: %d of %d fibers with no in-box point at Newton step %d "
                  "have none by box subdivision; their rows stop", int(proven.sum()),
                  int(candidates.sum()), PRUNE_STEP)
        return live[~proven[live // m]]

    Z = np.full((len(ts) * m, d), np.nan)
    Z.reshape(-1, m, d)[run] = _newton(system, np.tile(seeds, (len(ts) - pruned, 1)), (lo, hi),
                                       prune=prune, group=np.arange(len(T_run) * m) // m
                                       ).reshape(-1, m, d)
    converged = np.isfinite(Z).all(axis=1)
    for dropped in (m - converged.reshape(-1, m).sum(axis=1)).tolist():
        if dropped:
            _log_info("fiber_critical_points: %d of %d seeds did not converge", dropped, m)
    rows = np.flatnonzero(converged & inside(Z))  # by fiber, then seed
    rows = rows[_dedup(rows // m, Z[rows], DEDUP_RADIUS)]
    fiber, X = rows // m, Z[rows]
    value, grad, hess, third = calc.at(np.hstack((T[fiber], X)), "value", "grad", "hess", "third")
    # in row order, so that a spectrum that does not split raises as the first such point would
    classes = classify_parts(d, value, grad, hess / 2.0, third / 6.0, CLASSIFY_TOL)
    norms, value = _norms(grad).tolist(), value.tolist()
    t = [p[0] if F.param_dim == 1 else None for p in ts]
    out = [[] for _ in ts]
    for r in np.lexsort((*X.T[::-1], fiber)).tolist():  # each fiber's points, by x as a tuple
        if classes[r] is not None:  # None: a jet too large for a float, nothing to classify
            out[fiber[r]].append(CriticalPoint(t=t[fiber[r]], x=X[r], value=value[r],
                                               cls=classes[r], grad_norm=norms[r]))
    return out


# ---------------------------------------------------------------------------
# birth-death tracing along a one-parameter family


@record
class BirthDeathEvent:
    t_star: float
    x_star: np.ndarray
    index: int
    det_hessian: float


@record
class DegenerateFlag:
    t: float
    x: np.ndarray
    reason: str


@record
class TraceResult:
    events: tuple
    degenerate: tuple
    warnings: tuple
    samples: tuple  # (t, list of CriticalPoint) per grid value


def _refine_fold(calc, candidates, box, grid_dt) -> np.ndarray:
    """The (t, x) to classify for each (t, x, ...) of candidates, one row each:
    the point Newton on the augmented system (grad f_t(x), mu_min(H_t(x))) = 0
    in (x, t) polishes it to, if that lies within 2 grid_dt of its t and
    1e-9 of the fiber box, else the candidate's own point.

    The polish locates the degenerate point itself rather than a nearby
    critical point, which one-dimensional refinements cannot do when the
    smallest eigenvalue touches zero without crossing (the kernel-cubic test
    there then reads the true local model, not grid-scale noise).  Every
    candidate starts one row of a single _newton run: at() evaluates the live
    rows in one call per step, and one stacked eigh and batched kernel
    products serve the rows whose Hessian is finite, so a row gives, bit for
    bit, what it gives alone.
    """
    d = calc.d
    lo, hi = box

    def system(Z, live):  # a row of Z is (x, t)
        grad, H, T, grad_dt, H_dt = calc._columns([Z[:, d], *Z[:, :d].T],
                                                  ("grad", "hess", "third", "grad_dt", "hess_dt"))
        r, J = np.full((len(Z), d + 1), np.nan), np.full((len(Z), d + 1, d + 1), np.nan)
        ok = np.isfinite(H).all(axis=(1, 2))  # a Hessian too far out for a float ends the run
        w, V = np.linalg.eigh(H[ok])
        i0 = np.argmin(np.abs(w), axis=1)
        v = V[np.arange(len(V)), :, i0]  # the kernel direction of each row
        J[ok, :d, :d] = H[ok]
        J[ok, :d, d] = grad_dt[ok]
        J[ok, d, :d] = (v[:, None, None, :] @ T[ok] @ v[:, None, :, None])[:, :, 0, 0]  # T[i, c] = dH/dx_c
        J[ok, d, d] = (v[:, None, :] @ H_dt[ok] @ v[:, :, None])[:, 0, 0]
        r[ok, :d], r[ok, d] = grad[ok], w[np.arange(len(w)), i0]
        return r, J

    C = np.array([(t,) + tuple(x) for t, x, *_ in candidates], dtype=float).reshape(-1, d + 1)
    P = np.roll(_newton(system, np.roll(C, -1, axis=1), box), 1, axis=1)
    with np.errstate(over="ignore"):  # a row that did not converge is NaN and is not kept
        kept = ((np.abs(P[:, 0] - C[:, 0]) <= 2.0 * grid_dt)
                & (P[:, 1:] >= lo - 1e-9).all(axis=1) & (P[:, 1:] <= hi + 1e-9).all(axis=1))
    return np.where(kept[:, None], P, C)


def _match_tracks(prev_pts, next_pts) -> dict:
    """Greedy nearest-neighbor matching: {prev index: next index}, pairs
    taken in order of _distance, then prev index, then next index."""
    with np.errstate(over="ignore"):  # _distance's arithmetic, one context for all the pairs
        dists = sorted((math.sqrt((v := p.x - q.x).dot(v)), i, j)
                       for i, p in enumerate(prev_pts) for j, q in enumerate(next_pts))
    matched, used = {}, set()
    for _, i, j in dists:
        if i not in matched and j not in used:
            matched[i] = j
            used.add(j)
    return matched


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
    of points that track matching leaves unmatched; a BirthDeath sample
    among several such points, a fold on the grid, stands at its own t and
    x) and from sign changes or interior local minima of the
    smallest-magnitude Hessian eigenvalue along matched tracks.  Each
    candidate is polished by Newton on the augmented fold system
    (grad f_t(x), mu_min(H_t(x))) = 0 and then verified through
    classification of the fiber jet at (t*, x*); a degenerate verdict is
    reported as a flag, not an event.  A count change or a sign change of
    det H whose bracket yields no event or flag is reported as a warning,
    unless one of its two sample points classifies Degenerate (gmf_failures
    names that point).
    """
    if F.param_dim != 1:
        raise ValueError("tracing requires a one-parameter family")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(t1 - t0)):
        raise ValueError("t0, t1 and the window width t1 - t0 must be finite")
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    d = F.fiber_dim
    _check_seed_batch(steps, d)
    if box is None:
        box = [(-2.0, 2.0)] * d
    lo, hi = _box_arrays(box, d)
    calc = _calculus(F)
    span = t1 - t0
    warnings: list = []

    ts = np.linspace(t0, t1, steps)
    samples = _critical_points(F, [_parameter(F, t) for t in ts], box)

    # (t, x, must) at grid scale; must = (t_lo, t_hi, why, p, q) when the
    # bracket [t_lo, t_hi] is sure to hold a degenerate point that the sampled
    # critical points p and q lead into
    candidates = []

    # tracks by nearest-neighbor matching; at a count change the points of
    # the richer sample left unmatched are the ones born or dying in the
    # bracket, and each closest disjoint pair of them is one merging pair
    tracks = []  # list of lists of (sample_index, CriticalPoint)
    open_tracks = [[(0, p)] for p in samples[0]]
    for a in range(1, steps):
        by_prev = _match_tracks([tr[-1][1] for tr in open_tracks], samples[a])
        still_open = []
        loose = []
        for i, tr in enumerate(open_tracks):
            if i in by_prev:
                tr.append((a, samples[a][by_prev[i]]))
                still_open.append(tr)
            else:
                tracks.append(tr)
                loose.append(tr[-1][1])
        matched_next = set(by_prev.values())
        for j, p in enumerate(samples[a]):
            if j not in matched_next:
                still_open.append([(a, p)])
                loose.append(p)
        open_tracks = still_open
        t_mid = 0.5 * float(ts[a - 1] + ts[a])
        if len(loose) >= 2:  # a fold sampled on the grid is its own candidate, not half of a pair
            candidates += [(p.t, p.x, None) for p in loose if p.cls.kind == BIRTH_DEATH]
            loose = [p for p in loose if p.cls.kind != BIRTH_DEATH]
        if len(loose) == 1:
            candidates.append((t_mid, loose[0].x, None))
        why = f"the critical-point count changes by {len(samples[a]) - len(samples[a - 1]):+d}"
        while len(loose) >= 2:
            p, q = min(itertools.combinations(loose, 2),
                       key=lambda pq: _distance(pq[0].x, pq[1].x))
            candidates.append((t_mid, (p.x + q.x) / 2.0,
                               (float(ts[a - 1]), float(ts[a]), why, p, q)))
            loose = [r for r in loose if r is not p and r is not q]
    tracks.extend(open_tracks)

    # along tracks: sign changes and interior minima of mu; mu also flips
    # sign where two eigenvalues swap as the smallest in magnitude, so only a
    # sign change of det H is sure to hold a degenerate point
    (H,) = calc.at(np.array([(float(ts[a]),) + tuple(p.x) for tr in tracks for a, p in tr])
                   .reshape(-1, 1 + d), "hess")
    w = np.linalg.eigvalsh(H)
    scan = zip(w[np.arange(len(w)), np.argmin(np.abs(w), axis=1)].tolist(), np.linalg.det(H).tolist())
    for tr in tracks:
        mus, dets = zip(*itertools.islice(scan, len(tr)))  # this track's points, in order
        for u in range(len(tr) - 1):
            (a, pa), (b, pb) = tr[u], tr[u + 1]
            if mus[u] == 0.0 or mus[u] * mus[u + 1] < 0.0:
                must = ((float(ts[a]), float(ts[b]), "det H changes sign along a track",
                         pa, pb) if dets[u] * dets[u + 1] <= 0.0 else None)
                candidates.append((0.5 * float(ts[a] + ts[b]), (pa.x + pb.x) / 2.0, must))
        # interior local minima of |mu| without a sign change
        for u in range(1, len(tr) - 1):
            if abs(mus[u]) < abs(mus[u - 1]) and abs(mus[u]) <= abs(mus[u + 1]):
                if mus[u - 1] * mus[u] < 0.0 or mus[u] * mus[u + 1] < 0.0:
                    continue  # handled by the sign-change branch
                a, p = tr[u]
                candidates.append((float(ts[a]), p.x, None))

    # polish the candidates on the augmented fold system, all in one batch,
    # and classify the points _refine_fold returns from one evaluation; a
    # candidate left unpolished is rarely degenerate at grid scale, so it is
    # usually dropped
    slack = 1e-6 * span
    events: list = []
    degenerate: list = []
    unlocated = []
    P = _refine_fold(calc, candidates, (lo, hi), span / (steps - 1))
    value, grad, hess, third = calc.at(P, "value", "grad", "hess", "third")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite jet is skipped below
        dets = np.linalg.det(hess)
    classes = classify_parts(d, value, grad, hess / 2.0, third / 6.0, EVENT_TOL)
    for (_, _, must), row, cls, det in zip(candidates, P, classes, dets):
        t_star, x_star = float(row[0]), row[1:]
        if cls is None:  # a coefficient too large for a float: nothing to classify
            if must is not None:
                unlocated.append(must)
            continue
        if must is not None and not (
            cls.kind in (BIRTH_DEATH, DEGENERATE)
            and must[0] - slack <= t_star <= must[1] + slack
        ):
            unlocated.append(must)
        if cls.kind == BIRTH_DEATH:
            if _near_duplicate(((e.t_star, e.x_star) for e in events), t_star, x_star, span):
                continue
            events.append(BirthDeathEvent(t_star, x_star, cls.index, float(det)))
        elif cls.kind == DEGENERATE:
            if _near_duplicate(((f.t, f.x) for f in degenerate), t_star, x_star, span):
                continue
            degenerate.append(DegenerateFlag(t_star, x_star, cls.reason))
        # a nondegenerate verdict means the candidate was a benign minimum

    # a candidate that must hold a degenerate point but located none is
    # surfaced, unless p or q is a degenerate sample, or a point located in
    # its bracket lies closer to p or q than they lie to each other: then
    # one of them was already accounted for (a degenerate sample can hold
    # near-copies of one critical point)
    located = [(e.t_star, e.x_star) for e in events] + [(f.t, f.x) for f in degenerate]
    for t_lo, t_hi, why, p, q in unlocated:
        sep = _distance(p.x, q.x)
        if DEGENERATE not in (p.cls.kind, q.cls.kind) and not any(
            t_lo - slack <= t <= t_hi + slack
            and min(_distance(x, p.x), _distance(x, q.x)) <= sep
            for t, x in located
        ):
            warnings.append(f"fold not located on [{t_lo!r}, {t_hi!r}], where {why}")

    events.sort(key=lambda e: e.t_star)
    degenerate.sort(key=lambda f: f.t)
    return TraceResult(tuple(events), tuple(degenerate), tuple(warnings),
                       tuple((float(t), pts) for t, pts in zip(ts, samples)))


def _near_duplicate(located, t_star, x_star, span) -> bool:
    """Whether a (t, x) pair of located lies within 1e-6 span of t_star and
    1e-4 of x_star."""
    return any(abs(t - t_star) <= 1e-6 * span and _distance(x, x_star) <= 1e-4
               for t, x in located)


# ---------------------------------------------------------------------------
# axiom report


def gmf_failures(degenerate, samples) -> tuple:
    """The points that fail the gmf axiom (iv): the located degenerate flags,
    then every sampled critical point that classifies as Degenerate.

    samples holds (t, critical points) pairs, as TraceResult.samples does.
    """
    return tuple(degenerate) + tuple(
        DegenerateFlag(0.0 if p.t is None else p.t, p.x, p.cls.reason)
        for _, pts in samples for p in pts if p.cls.kind == DEGENERATE)


PASS = "Pass"
FAIL = "Fail"


@record
class AxiomVerdict:
    axiom: str
    verdict: str
    note: str


@record
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

    events = degenerate = warnings = ()
    if F.param_dim == 0:
        sampled = [(tuple(), fiber_critical_points(F, tuple(), box))]
    elif F.param_dim == 1:
        if t0 is None or t1 is None:
            raise ValueError("one-parameter family needs a t-window")
        trace = trace_birth_death(F, t0, t1, steps, box)
        events, degenerate, warnings = trace.events, trace.degenerate, trace.warnings
        sampled = [((t,), pts) for t, pts in trace.samples]
    else:
        raise ValueError("axiom checks support param_dim 0 or 1")

    prop_ok, prop_note = True, "boundary minimum above interior critical values at all samples"
    boundary = _boundary_points(lo, hi)
    for t, pts in sampled:
        if not pts:
            continue
        on_boundary = np.hstack((np.tile(t, (len(boundary), 1)), boundary))  # rows (t, x)
        bmin = float(_calculus(F).at(on_boundary, "value")[0].min())  # after the batch check
        vmax = max(p.value for p in pts)
        if bmin <= vmax:
            prop_ok = False
            prop_note = (
                f"boundary minimum {bmin:.6g} not above interior critical value "
                f"{vmax:.6g} at t={t}; possible escape through the box"
            )
            break

    degenerate = gmf_failures(degenerate, sampled)
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
    return FamilyAxiomReport(verdicts, events, degenerate, warnings)


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
    # i is written in ASCII digits with no leading zero: one name per family
    m = re.fullmatch(r"suspended-cusp-(0|[1-9][0-9]*)", name)
    if m:
        # the largest i whose fiber grid a batch admits; a longer digit string is
        # refused unread, before int() and before the O(d^2) terms
        top = max(i for i in range(MAX_SEED_ROWS.bit_length()) if _seed_batch_admitted(1, i + 2))
        if len(m[1]) > len(str(top)) or int(m[1]) > top:
            raise ValueError(f"suspended-cusp-i needs i <= {top}: a larger i's fiber grid needs "
                             f"more than MAX_SEED_ROWS seed rows or MAX_SEED_CELLS rows x d^2")
        i = int(m[1])
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
        k, d = data["param_dim"], data["fiber_dim"]
        coeffs = _json_numbers([item["coeff"] for item in data["terms"]], "term")
        terms = tuple(zip((tuple(item["powers"]) for item in data["terms"]), coeffs))
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # Overflow: an int too big for a float
        raise ValueError(f"malformed family JSON: {e}") from e
    return PolyFamily(k, d, terms)
