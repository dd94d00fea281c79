"""Series-level shadows of the singular-stratum spaces and their spectra.

The singular stratum of generalized-Morse jets is, stably, the homotopy
colimit of the zigzag

    Y(0) <- Y1(0) -> Y(1) <- Y1(1) -> ... -> Y(d),

with Y(i) = BO(i) x BO(d-i) and Y1(i) = BO(i) x BO(1) x BO(d-i-1).  Its
mod-2 homology comes from the Mayer-Vietoris map

    Phi_n : (+)_i H_n(Y1(i)) -> (+)_j H_n(Y(j)),

the plain F2 sum of the two induced maps out of each Y1(i):
dim H_n(hocolim) = dim coker(Phi_n) + dim ker(Phi_{n-1}).  In the
monomial-symmetric basis each induced map sends every basis element to one
basis element, so Phi_n is the incidence matrix of a graph on the basis of
the Y(j) whose components are the partitions of n into at most d parts
(sigma_mf_cofibration_check): rank Phi_n = T_n - [t^n] BO(d), with
T = sum_j BO(j) x BO(d-j) and S = sum_i BO(i) x BO(1) x BO(d-i-1) the
bottom- and top-row series.  So the series functions read the closed form

    Sigma_gmf(d) = BO(d) + t * (S - T + BO(d)),

and the cofiber of collapsing the disjoint union of the Y(j) to a point is
t * S: H(Y(j)) maps onto coker(Phi_n), so the pair's long exact sequence
leaves C_n = S_{n-1} whatever the ranks are.

The verify checks read the zigzag, the closed form's geometric partner,
straight from the single-block tables (char_class_maps): the insertion
entries are checked, the components of the graph are found by copying
labels a whole row of a Y(j) at a time over every degree at once, and
sigma_mf_cofibration_check compares both the ranks and the Mayer-Vietoris
series with the closed form.  build_zigzag holds every degree of every map,
for hocolim_series and its union-find (_phi_rank), a second rank algorithm.

Thom-spectrum series are Thom-isomorphism shifts: MT(d) = t^{-d} * BO(d).
The series of the generalized-Morse variant is only pinned by its defining
cofibration up to the rank of a connecting map, so it is reported as a
split-assumption value together with interval bounds; in negative degrees
the bounds are tight.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, itemgetter

from ._record import record
from .char_class_maps import RingMap, _gc_paused, _product_dims, _tables, line_maps
from .graded_f2 import (DEFAULT_TRUNCATION, PoincareSeries, _check_truncation,
                        series_add, series_BO, series_BSO, series_equal, series_from_coeffs,
                        series_mul, series_one, series_shift)

EXACT = "exact"
SPLIT_ASSUMPTION = "split-assumption"
INTERVAL = "interval"

COMPONENTS_READING = (
    "index-product read as a disjoint union of components (series sum)"
)
SPLIT_NOTE = "cofibration long exact sequence assumed to split (connecting map zero)"


@record
class SpectrumSeries:
    series: PoincareSeries
    provenance: str
    derivation: tuple = ()


# ---------------------------------------------------------------------------
# the zigzag and its homotopy colimit


@record
class ZigzagDiagram:
    d: int
    N: int
    f_maps: tuple  # f_maps[i]: H(Y1(i)) -> H(Y(i)), homology GradedMap
    g_maps: tuple  # g_maps[i]: H(Y1(i)) -> H(Y(i+1))

    def __post_init__(self):
        d = self.d
        if len(self.f_maps) != d or len(self.g_maps) != d:
            raise ValueError("inconsistent diagram: need d maps of each kind")
        for n in range(self.N + 1):
            for i in range(d):
                if self.f_maps[i].shapes[n][1] != self.g_maps[i].shapes[n][1]:
                    raise ValueError(f"inconsistent diagram: Y1({i}) source dims differ at degree {n}")
            for i in range(d - 1):
                if self.g_maps[i].shapes[n][0] != self.f_maps[i + 1].shapes[n][0]:
                    raise ValueError(f"inconsistent diagram: Y({i+1}) target dims differ at degree {n}")

    def bottom_dims(self, n: int):
        return [f.shapes[n][0] for f in self.f_maps] + [self.g_maps[-1].shapes[n][0]]

    def top_dims(self, n: int):
        return [self.f_maps[i].shapes[n][1] for i in range(self.d)]


def build_zigzag(d: int, N: int = DEFAULT_TRUNCATION) -> ZigzagDiagram:
    if d < 1:
        raise ValueError("need d >= 1")
    # every map reads the one cached set of BO(0..d) tables for (d, N)
    fs, gs = zip(*(line_maps(i, d, N) for i in range(d)))
    return ZigzagDiagram(d, N, tuple(map(RingMap.homology_map, fs)), tuple(map(RingMap.homology_map, gs)))


@record
class HocolimResult:
    d: int
    N: int
    series: PoincareSeries
    rank: tuple
    coker: tuple
    kernel: tuple
    T_dims: tuple
    S_dims: tuple


def _phi_rank(pairs, dims) -> int:
    """F2 rank of Phi_n by union-find (Tarjan, J. ACM 22, 1975), from the
    degree-n image lists (f_i, g_i), i = 0..d-1, and the dims of H_n(Y(j)):
    hocolim_series' rank, the one the verify path's row labels are tested against.

    Source element s of H_n(Y1(i)) is the edge from f_i(s) in the block of
    Y(i) to g_i(s) in the block of Y(i+1).  Phi_n is the incidence matrix of
    that graph, so its rank is the number of edges that join two components.
    A join hangs the g side's root under the f side's, so each component's
    root stays in its oldest block and later finds walk shorter paths.
    """
    off = list(accumulate(dims, initial=0))
    parent = list(range(off[-1]))

    rank = 0
    for i, (fs, gs) in enumerate(pairs):
        fo, go = off[i], off[i + 1]
        for s, t in zip(fs, gs):
            # find both roots, halving the paths, inline: a call per vertex
            # costs more than the search
            u, v = fo + s, go + t
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                rank += 1
    return rank


def _hocolim_result(d: int, N: int, rank: tuple, T_dims: tuple, S_dims: tuple) -> HocolimResult:
    """Degree-n coefficient = dim coker(Phi_n) + dim ker(Phi_{n-1})."""
    coker = tuple(T - rk for T, rk in zip(T_dims, rank))
    kernel = tuple(S - rk for S, rk in zip(S_dims, rank))
    coeffs = [coker[0]] + [coker[n] + kernel[n - 1] for n in range(1, N + 1)]
    return HocolimResult(d, N, series_from_coeffs(coeffs), rank, coker, kernel, T_dims, S_dims)


def hocolim_series(z: ZigzagDiagram) -> HocolimResult:
    """Mayer-Vietoris homology of the zigzag's homotopy colimit.

    The rank sequence of Phi (_phi_rank) is the only input that partition
    counts do not fix: the induced map (+)H_n(Y(j)) -> H_n(hocolim) is onto
    the cokernel part, so the collapse cofiber has C_n = S_{n-1} whatever
    the ranks are.
    """
    N, maps = z.N, list(zip(z.f_maps, z.g_maps))
    rank = tuple(_phi_rank([(f.images[n], g.images[n]) for f, g in maps], z.bottom_dims(n))
                 for n in range(N + 1))
    return _hocolim_result(z.d, N, rank, tuple(sum(z.bottom_dims(n)) for n in range(N + 1)),
                           tuple(sum(z.top_dims(n)) for n in range(N + 1)))


def _check_insertions(table, lower, upper, N: int) -> None:
    """table[p][k], k = 0..N - |p|, must be an element of upper of degree
    |p| + k: the target of a zigzag edge of that degree, checked as
    GradedMap checks an index map."""
    deg, size = upper.degrees, len(upper.degrees)
    want = [*map(range, lower.degrees, repeat(N + 1))]
    flat = [*chain.from_iterable(table)]
    if ([*map(len, table)] == [*map(len, want)] and 0 <= min(flat) and max(flat) < size
            and [*map(deg.__getitem__, flat)] == [*chain.from_iterable(want)]):
        return
    for row, degrees in zip(table, want):
        for n, e in zip(degrees, row):
            if not 0 <= e < size or deg[e] != n:
                raise ValueError(f"degree {n}: target index outside 0..{upper.dims[n] - 1}")
        if len(row) != len(degrees):
            raise ValueError(f"degree {degrees[0]}: {len(row)} images for {len(degrees)} source elements")


# the one per-(d, N) cache of the zigzag, which only the verify checks read:
# hocolim_series(build_zigzag(d, N)), its components found by copying labels
# a whole row at a time, every degree at once, off the single-block tables.
# A vertex of Y(j) is (lambda, nu), lambda in BO(j), nu in BO(d-j), and
# rows[lambda] holds the labels over nu in degree-then-lex order, so
# "degree <= D" is a prefix.  Layer i's edges under (mu, k) take row mu at
# R[k] = [pos(nu + k)] to row mu + k at 0..w-1.  The first pair to reach a row
# copies its labels: w successful unions.  A later pair unions labels only
# where its copy differs, which it never does on the true tables, where each
# label is the Y(0) vertex of its partition.  So rank Phi_n is the reached
# rows' vertices of degree n plus those unions.  Each result is a few tuples.
@lru_cache(maxsize=64)
@_gc_paused
def _hocolim_std(d: int, N: int) -> HocolimResult:
    if d < 1:
        raise ValueError("need d >= 1")
    blocks, insertions = _tables(d, N)
    for m, table in enumerate(insertions):
        _check_insertions(table, blocks[m], blocks[m + 1], N)
    # upto[m][c]: elements of BO(m) of degree <= c; pos[m][p]: p's place in
    # degree-then-lex order
    upto = [list(accumulate(b.dims)) for b in blocks]
    pos = [[u[c] - b.dims[c] + loc for c, loc in zip(b.degrees, b.local)]
           for b, u in zip(blocks, upto)]
    rank, S = [0] * (N + 1), [0] * (N + 1)
    parent, fresh = {}, upto[d][N]  # label union-find; the next unused label

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    rows = [list(range(fresh))]  # Y(0): one row, each vertex its own label
    for i in range(d):
        q, upper = d - i - 1, blocks[i + 1]
        inner, cum = blocks[q], upto[q]
        shifted = [[*map(pos[q + 1].__getitem__, insertions[q][p])]
                   for level in inner.members for p in level]
        R = [[*map(itemgetter(k), islice(shifted, cum[N - k]))] for k in range(N + 1)]
        # gets[a][k]: the labels of a row of degree a that (mu, k) copies, in
        # one C call; a slice keeps a single label a sequence
        gets = [[itemgetter(*Rk[:w]) if w > 1 else itemgetter(slice(Rk[0], Rk[0] + 1))
                 for Rk, w in zip(R, cum[N - a::-1])] if dim else None
                for a, dim in enumerate(blocks[i].dims)]
        new = [None] * len(upper.degrees)
        for ins, a, row in zip(insertions[i], blocks[i].degrees, rows):
            for lam, get in zip(ins, gets[a]):
                copy = get(row)
                old = new[lam]
                if old is None:
                    new[lam] = copy
                elif old != copy:
                    for t, (x, y) in enumerate(zip(copy, old)):
                        x, y = find(x), find(y)
                        if x != y:
                            parent[y] = x
                            rank[upper.degrees[lam] + bisect_right(cum, t)] += 1
        visited = [0] * (N + 1)
        for lam, c in enumerate(upper.degrees):
            if new[lam] is None:  # no edge reaches this row: fresh labels
                w = cum[N - c]
                new[lam], fresh = [*range(fresh, fresh + w)], fresh + w
            else:
                visited[c] += 1
        # every row of insertions[i] has N - |mu| + 1 pairs (mu, k)
        edges = series_mul(series_from_coeffs(upto[i]), series_from_coeffs(inner.dims)).coeffs
        for n, (got, want) in enumerate(zip(edges, _product_dims((i, 1, q), N))):
            if got != want:
                raise ValueError(f"degree {n}: {got} images for {want} source elements")
        reached = series_mul(series_from_coeffs(visited), series_from_coeffs(inner.dims))
        rank = [*map(add, rank, reached.coeffs)]
        S = [*map(add, S, edges)]
        rows = new
    T = tuple(map(sum, zip(*(_product_dims((j, d - j), N) for j in range(d + 1)))))
    return _hocolim_result(d, N, tuple(rank), T, tuple(S))


# a verify run reads it in three checks; each entry is three tuples
@lru_cache(maxsize=64)
def _closed_form(d: int, N: int):
    """Coefficients 0..N of S, T and BO(d), the closed form's three inputs."""
    S = _block_sum(d, N, (1,))  # first: it rejects d < 1
    return S.coeffs, _block_sum(d, N).coeffs, series_BO(d, N).coeffs


def sigma_gmf_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """Series of the stable singular stratum (unreduced homology of the hocolim).

    Closed form BO(d) + t * (S - T + BO(d)): coker(Phi_n) has one dimension
    per component, [t^n] BO(d), and ker(Phi_{n-1}) has S_{n-1} - rank
    Phi_{n-1} = S_{n-1} - T_{n-1} + [t^(n-1)] BO(d).  No zigzag is built;
    sigma_mf_cofibration_check compares this with the zigzag's series.
    """
    S, T, B = _closed_form(d, N)
    return series_from_coeffs(
        [B[0]] + [B[n] + S[n - 1] - T[n - 1] + B[n - 1] for n in range(1, N + 1)])


# ---------------------------------------------------------------------------
# cofiber of collapsing the nondegenerate strata, and its wedge model


@record
class CofiberResult:
    d: int
    N: int
    series: PoincareSeries  # reduced homology of the cofiber
    k: tuple                # k[n] = dim ker(iota_n) = rank Phi_n, unreduced


def cofiber_series(d: int, N: int = DEFAULT_TRUNCATION) -> CofiberResult:
    """Reduced homology of hocolim / (disjoint union of all Y(j)).

    The quotient collapses a cofibration, so reduced homology of the
    cofiber is relative homology of the pair, and the pair's long exact
    sequence gives dim H~_n(C) = dim coker(iota_n) + dim ker(iota_{n-1})
    for iota_n: (+)H_n(Y(j)) -> H_n(hocolim).  iota_n is onto the coker(Phi_n)
    part with kernel im(Phi_n), so coker(iota_n) = ker(Phi_{n-1}) and
    ker(iota_n) = rank Phi_n: C_0 = 0 and C_n = S_{n-1}.  Read from the
    closed form, with k_n = rank Phi_n = T_n - [t^n] BO(d); no zigzag is
    built.
    """
    S, T, B = _closed_form(d, N)
    return CofiberResult(d, N, series_from_coeffs((0,) + S[:N]),
                         tuple(t - b for t, b in zip(T, B)))


def _mv_cofiber(h: HocolimResult) -> PoincareSeries:
    """The collapse cofiber C_n = S_{n-1}, from the zigzag's enumerated top rows."""
    return series_from_coeffs((0,) + h.S_dims[:h.N])


def _block_sum(d: int, N: int, inner: tuple = ()) -> PoincareSeries:
    """sum_{i=0}^{r} BO(i) * BO(inner...) * BO(r-i), with r = d - sum(inner):
    the products of BO blocks whose ranks add up to d, the inner ones fixed."""
    r = d - sum(inner)
    if r < 0:
        raise ValueError(f"need d >= {sum(inner)}")
    _check_truncation(N)
    # series_BO(m, N) is series_BO(N, N) for every m >= N, so rank N stands
    # for every rank above it, and each i with N <= i <= r - N gives the same
    # product: it is made once and scaled by their number
    bo = [series_BO(m, N) for m in range(min(r, N) + 1)]
    fixed = [series_BO(m, N) for m in inner]
    ends = {*range(min(N, r + 1)), *range(max(0, r - N + 1), r + 1)}
    terms = [reduce(series_mul, [bo[min(i, N)], *fixed, bo[min(r - i, N)]]) for i in ends]
    if r + 1 > len(ends):
        middle = reduce(series_mul, [bo[N], *fixed, bo[N]]).coeffs
        terms.append(series_from_coeffs([(r + 1 - len(ends)) * c for c in middle]))
    return reduce(series_add, terms)


def wedge_target_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """sum_{i=0}^{d-1} t * BO(i) * BO(1) * BO(d-i-1): the cofiber's wedge model."""
    return series_shift(_block_sum(d, N, (1,)), 1)


def sigma_mf_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """sum_{i=0}^{d} BO(i) * BO(d-i), the nondegenerate strata as a disjoint union.

    The index-product description is read as a union of components, so
    series add; the degree-0 coefficient is d + 1.
    """
    return _block_sum(d, N)


# ---------------------------------------------------------------------------
# Thom-spectrum series and identity checks


# structure -> series of the base space BO(d) or BSO(d)
_BASE_SERIES = {"o": series_BO, "so": series_BSO}


def _base_series(structure: str):
    if structure not in _BASE_SERIES:
        raise ValueError(f"unknown structure {structure!r}")
    return _BASE_SERIES[structure]


def mt_series(d: int, N: int = DEFAULT_TRUNCATION, structure: str = "o") -> SpectrumSeries:
    """Homology series of the Thom spectrum of the inverse tautological bundle.

    Thom isomorphism: the series is the base series shifted down by d.
    structure 'o' uses BO(d), 'so' uses BSO(d).
    """
    if d < 0:
        raise ValueError("need d >= 0")
    _check_truncation(N)
    structure = structure.lower()
    base = _base_series(structure)(d, N + d)
    return SpectrumSeries(series_shift(base, -d), EXACT, (
        f"Thom isomorphism: shift the series of B{structure.upper()}({d}) by -{d}",))


@record
class CheckReport:
    check: str
    d: int
    N: int
    structure: str | None
    ok: bool
    first_mismatch_degree: int | None
    assumptions: tuple
    notes: tuple = ()

    def verdict(self) -> str:
        if not self.ok:
            return "Fail"
        return "Interval" if self.assumptions else "Pass"


def gysin_check(d: int, N: int = DEFAULT_TRUNCATION, structure: str = "o") -> CheckReport:
    """Degreewise identity P_B(d) = t^d P_B(d) + P_B(d-1).

    This is the series form of the sphere-bundle exact sequence of the
    tautological bundle; it splits exactly when multiplication by the top
    class is injective on the base ring.  That holds for BO(d) (any d) and
    BSO(d) for d >= 2; for BSO(1) the top class vanishes and the identity
    genuinely fails at degree 1.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    structure = structure.lower()
    fam = _base_series(structure)
    P = fam(d, N)
    rhs = series_add(series_shift(P, d), fam(d - 1, N))
    ok, mismatch = series_equal(P, rhs, up_to=N)
    holds = structure == "o" or d >= 2
    notes = ("exactness input: multiplication by the top class is injective on the base ring"
             + ("" if holds else " -- FALSE for an oriented line (top class vanishes)"),)
    return CheckReport("gysin", d, N, structure, ok, mismatch, (), notes)


def hocolim_cofiber_check(d: int, N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """The zigzag's collapse cofiber against the closed-form wedge series.

    Bookkeeping only: the cofiber is C_n = S_{n-1} whatever the ranks of
    Phi are, so this compares the dimensions of the enumerated Y1(i) rings
    with the closed form's S, a sum of BO block products, shifted by one.
    No rank enters; the ranks are checked by sigma_mf_cofibration_check and
    d1_oracle_check.
    """
    cof = _mv_cofiber(_hocolim_std(d, N))
    wedge = series_shift(series_from_coeffs(_closed_form(d, N)[0]), 1)
    ok, mismatch = series_equal(cof, wedge, up_to=N)
    return CheckReport("hocolim-cofiber", d, N, None, ok, mismatch, (),
                       ("bookkeeping: the zigzag's enumerated top-row dimensions, shifted by one, "
                        "against the closed-form wedge; no rank of Phi enters",))


def d1_oracle_check(N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """d=1 closed forms against the zigzag: hocolim = BO(1) and cofiber = t * BO(1)."""
    h = _hocolim_std(1, N)
    ok1, m1 = series_equal(h.series, series_BO(1, N), up_to=N)
    ok2, m2 = series_equal(_mv_cofiber(h), series_shift(series_BO(1, N), 1), up_to=N)
    ok = ok1 and ok2
    mismatch = m1 if not ok1 else (m2 if not ok2 else None)
    return CheckReport("d1-oracle", 1, N, None, ok, mismatch, (),
                       ("hocolim(1) vs BO(1); cofiber(1) vs t*BO(1)",))


@record
class MtgmfResult:
    d: int
    N: int
    split: SpectrumSeries
    lower: PoincareSeries
    upper: PoincareSeries
    assumptions: tuple


def mtgmf_series(d: int, N: int = DEFAULT_TRUNCATION) -> MtgmfResult:
    """Series of the generalized-Morse Thom spectrum, with provenance.

    Defining cofibration: (desuspended MT(d-1)) -> MT^gmf(d) -> suspension
    spectrum of the singular stratum with a disjoint basepoint.  The
    split-assumption value adds the two outer series, with the basepoint
    contributing +1 at degree 0; the true coefficient at each degree lies
    in [|a_n - b_n|, a_n + b_n].  In negative degrees the bounds pin the
    value exactly.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    a = series_shift(series_BO(d - 1, N + d), -d)
    b = series_add(series_one(N), sigma_gmf_series(d, N))
    split = series_add(a, b)
    lower = series_from_coeffs([abs(a.coeff(n) - b.coeff(n)) for n in range(-d, N + 1)], -d)
    return MtgmfResult(d, N, SpectrumSeries(split, SPLIT_ASSUMPTION, (
        f"t^-{d} * BO({d-1}) plus suspension spectrum of the singular stratum", SPLIT_NOTE)),
        lower, split, (SPLIT_NOTE,))


def connectivity_and_pi0_checks(d: int, N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """Connectedness and negative-degree agreement checks.

    (a) the suspension-spectrum series of the singular stratum and of BO(d)
        start at degree 0; (b) both have degree-0 coefficient 1 (connected
        spaces); (c) MT(d) agrees with MT^gmf(d) in all negative degrees --
        verified through the interval bounds, which are tight there, so no
        splitting assumption enters.
    """
    sig = sigma_gmf_series(d, N)
    bo = series_BO(d, N)
    ok = True
    mismatch = None
    if sig.min_degree != 0 or bo.min_degree != 0:
        ok = False
    if ok and (sig.coeff(0) != 1 or bo.coeff(0) != 1):
        ok, mismatch = False, 0
    if ok:
        mt = mt_series(d, N, "o").series
        mtg = mtgmf_series(d, N)
        for n in range(-d, 0):
            lo, hi = mtg.lower.coeff(n), mtg.upper.coeff(n)
            if lo != hi or lo != mt.coeff(n):
                ok, mismatch = False, n
                break
    return CheckReport("connectivity", d, N, None, ok, mismatch, (),
                       ("degree-0 coefficients and negative-degree agreement via tight interval bounds",))


def sigma_mf_cofibration_check(d: int, N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """Rank bookkeeping of the collapse cofibration at series level.

    With A = disjoint union of the Y(j), X = hocolim, C = X/A and
    k_n = dim ker(H_n(A) -> H_n(X)), the long exact sequence of the pair
    forces

        A_0 + C_0 = X_0 + k_0             (k_0 = d when X is connected)
        A_n + C_n = X_n + k_n + k_{n-1}   for n >= 1,

    every kernel dimension being consumed twice, once by the cokernel above
    and once by the boundary below.  With k_n = rank Phi_n both sides equal
    T_n + S_{n-1} whatever the ranks are, so the identity checks the
    bottom-row dimensions against the disjoint-union series; the degree-0
    headline A_0 - X_0 = d (extra components become wedge circles) is
    checked too.

    The ranks are checked against a count of components.  In the
    monomial-symmetric basis each basis element of H_n(Y1(i)) goes to one
    of H_n(Y(i)) and one of H_n(Y(i+1)), so Phi_n is the incidence matrix of
    a graph on the basis of the Y(j), of F2 rank T_n minus the number of
    components.  A vertex is a pair of partitions (at most j and at most
    d-j parts, zeros padding both) and an edge moves one part across, so the
    components are the partitions of n into at most d parts:
    rank Phi_n = T_n - [t^n] BO(d).

    That count is what sigma_gmf_series reads, so the zigzag's
    Mayer-Vietoris series is compared with the closed form as well: this is
    the check that ties the series commands to the geometry.
    """
    h = _hocolim_std(d, N)
    cof = _mv_cofiber(h)
    _, T, B = _closed_form(d, N)  # T: the disjoint-union series sigma_mf_series
    notes = (COMPONENTS_READING,
             "identity: A_n + C_n = X_n + k_n + k_{n-1} (n >= 1), A_0 + C_0 = X_0 + k_0")

    def report(ok, n, *why):
        return CheckReport("sigma-mf-cofibration", d, N, None, ok, n, (), notes + why)

    # the disjoint-union series must match the assembled bottom-row dims
    for n in range(N + 1):
        if T[n] != h.T_dims[n]:
            return report(False, n, "bottom-row dimensions disagree with series")
        if h.rank[n] != h.T_dims[n] - B[n]:
            return report(False, n, "rank Phi_n != T_n - partitions of n into <= d parts")
    if T[0] - h.series.coeff(0) != d:
        return report(False, 0, "degree-0 component count off")
    ok, mismatch = series_equal(h.series, sigma_gmf_series(d, N), up_to=N)
    if not ok:
        return report(False, mismatch, "Mayer-Vietoris series disagrees with the closed form")
    k = h.rank
    for n in range(N + 1):
        if T[n] + cof.coeff(n) != h.series.coeff(n) + k[n] + (k[n - 1] if n >= 1 else 0):
            return report(False, n)
    return report(True, None)
