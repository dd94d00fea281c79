"""Series-level shadows of the singular-stratum spaces and their spectra.

The singular stratum of generalized-Morse jets is, stably, the homotopy
colimit of the zigzag

    Y(0) <- Y1(0) -> Y(1) <- Y1(1) -> ... -> Y(d),

with Y(i) = BO(i) x BO(d-i) and Y1(i) = BO(i) x BO(1) x BO(d-i-1).  Its
mod-2 homology is computed from the Mayer-Vietoris map

    Phi_n : (+)_i H_n(Y1(i)) -> (+)_j H_n(Y(j)),

the plain F2 sum of the two induced maps out of each Y1(i):
dim H_n(hocolim) = dim coker(Phi_n) + dim ker(Phi_{n-1}).  Collapsing the
disjoint union of the Y(j) to a point gives a cofiber whose reduced
homology comes from the long exact sequence of the pair; it must agree
degreewise with the closed-form wedge sum_{i} t * BO(i) x BO(1) x BO(d-i-1).
Since H(Y(j)) maps onto coker(Phi_n), that sequence leaves the cofiber
series C_n = dim (+)_i H_{n-1}(Y1(i)) whatever the ranks of Phi are, so the
wedge comparison checks the ring enumeration against partition counts; the
ranks of Phi_n are checked against a count of components.

Thom-spectrum series are Thom-isomorphism shifts: MT(d) = t^{-d} * BO(d).
The series of the generalized-Morse variant is only pinned by its defining
cofibration up to the rank of a connecting map, so it is reported as a
split-assumption value together with interval bounds; in negative degrees
the bounds are tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .char_class_maps import map_f, map_g
from .graded_f2 import (
    DEFAULT_TRUNCATION,
    PoincareSeries,
    rank_f2,
    series_add,
    series_BO,
    series_BSO,
    series_equal,
    series_from_coeffs,
    series_mul,
    series_one,
    series_shift,
)

EXACT = "exact"
SPLIT_ASSUMPTION = "split-assumption"
INTERVAL = "interval"

COMPONENTS_READING = (
    "index-product read as a disjoint union of components (series sum)"
)
SPLIT_NOTE = "cofibration long exact sequence assumed to split (connecting map zero)"


@dataclass(frozen=True)
class SpectrumSeries:
    series: PoincareSeries
    provenance: str
    derivation: tuple = ()

    def to_json_dict(self) -> dict:
        out = self.series.to_json_dict()
        out["provenance"] = self.provenance
        out["derivation"] = list(self.derivation)
        return out


# ---------------------------------------------------------------------------
# the zigzag and its homotopy colimit


@dataclass(frozen=True)
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
                    raise ValueError(
                        f"inconsistent diagram: Y1({i}) source dims differ at degree {n}"
                    )
            for i in range(d - 1):
                if self.g_maps[i].shapes[n][0] != self.f_maps[i + 1].shapes[n][0]:
                    raise ValueError(
                        f"inconsistent diagram: Y({i+1}) target dims differ at degree {n}"
                    )

    def bottom_dims(self, n: int):
        dims = [self.f_maps[j].shapes[n][0] for j in range(self.d)]
        dims.append(self.g_maps[self.d - 1].shapes[n][0])
        return dims

    def top_dims(self, n: int):
        return [self.f_maps[i].shapes[n][1] for i in range(self.d)]


def build_zigzag(d: int, N: int = DEFAULT_TRUNCATION) -> ZigzagDiagram:
    if d < 1:
        raise ValueError("need d >= 1")
    # f_i then g_i, in i order: build_Y/build_Y1 keep only the last ring
    pairs = [(map_f(i, d, N).homology_map(), map_g(i, d, N).homology_map())
             for i in range(d)]
    f_maps, g_maps = zip(*pairs)
    return ZigzagDiagram(d, N, f_maps, g_maps)


@dataclass(frozen=True)
class HocolimResult:
    d: int
    N: int
    series: PoincareSeries
    rank: tuple
    coker: tuple
    kernel: tuple
    T_dims: tuple
    S_dims: tuple


def _phi_rows(z: ZigzagDiagram, n: int):
    t_dims = z.bottom_dims(n)
    s_dims = z.top_dims(n)
    col_off = [0]
    for sd in s_dims:
        col_off.append(col_off[-1] + sd)
    rows = []
    for j in range(z.d + 1):
        for r in range(t_dims[j]):
            mask = 0
            if j <= z.d - 1:
                mask |= z.f_maps[j].rows[n][r] << col_off[j]
            if j >= 1:
                mask |= z.g_maps[j - 1].rows[n][r] << col_off[j - 1]
            rows.append(mask)
    return rows, sum(t_dims), sum(s_dims)


def hocolim_series(z: ZigzagDiagram) -> HocolimResult:
    """Mayer-Vietoris homology of the zigzag's homotopy colimit.

    Degree-n coefficient = dim coker(Phi_n) + dim ker(Phi_{n-1}).  The
    rank sequence of Phi is the only input that partition counts do not
    fix: the induced map (+)H_n(Y(j)) -> H_n(hocolim) is onto the cokernel
    part, so the collapse cofiber has C_n = S_{n-1} whatever the ranks are.
    """
    N = z.N
    rank, T_dims, S_dims = [], [], []
    for n in range(N + 1):
        rows, T, S = _phi_rows(z, n)
        rank.append(rank_f2(rows, S))
        T_dims.append(T)
        S_dims.append(S)
    coker = tuple(T - rk for T, rk in zip(T_dims, rank))
    kernel = tuple(S - rk for S, rk in zip(S_dims, rank))
    coeffs = [coker[0]] + [coker[n] + kernel[n - 1] for n in range(1, N + 1)]
    return HocolimResult(
        d=z.d, N=N,
        series=series_from_coeffs(coeffs),
        rank=tuple(rank), coker=coker, kernel=kernel,
        T_dims=tuple(T_dims), S_dims=tuple(S_dims),
    )


# the one per-(d, N) cache on the series side; each result is a few tuples
@lru_cache(maxsize=64)
def _hocolim_std(d: int, N: int) -> HocolimResult:
    return hocolim_series(build_zigzag(d, N))


def sigma_gmf_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """Series of the stable singular stratum (unreduced homology of the hocolim)."""
    return _hocolim_std(d, N).series


# ---------------------------------------------------------------------------
# cofiber of collapsing the nondegenerate strata, and its wedge model


@dataclass(frozen=True)
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
    ker(iota_n) = rank Phi_n: C_0 = 0 and C_n = S_{n-1}.
    """
    h = _hocolim_std(d, N)
    coeffs = [0] + list(h.S_dims[:N])
    return CofiberResult(d, N, series_from_coeffs(coeffs), h.rank)


def wedge_target_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """sum_{i=0}^{d-1} t * BO(i) * BO(1) * BO(d-i-1): the cofiber's wedge model."""
    if d < 1:
        raise ValueError("need d >= 1")
    total = None
    for i in range(d):
        piece = series_mul(
            series_mul(series_BO(i, N), series_BO(1, N)), series_BO(d - i - 1, N)
        )
        piece = series_shift(piece, 1)
        total = piece if total is None else series_add(total, piece)
    return total


def sigma_mf_series(d: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """sum_{i=0}^{d} BO(i) * BO(d-i), the nondegenerate strata as a disjoint union.

    The index-product description is read as a union of components, so
    series add; the degree-0 coefficient is d + 1.
    """
    total = None
    for i in range(d + 1):
        piece = series_mul(series_BO(i, N), series_BO(d - i, N))
        total = piece if total is None else series_add(total, piece)
    return total


# ---------------------------------------------------------------------------
# Thom-spectrum series and identity checks


def mt_series(d: int, N: int = DEFAULT_TRUNCATION, structure: str = "o") -> SpectrumSeries:
    """Homology series of the Thom spectrum of the inverse tautological bundle.

    Thom isomorphism: the series is the base series shifted down by d.
    structure 'o' uses BO(d), 'so' uses BSO(d).
    """
    if d < 0:
        raise ValueError("need d >= 0")
    if N < 0:
        raise ValueError(f"truncation must be nonnegative, got {N}")
    structure = structure.lower()
    if structure == "o":
        base = series_BO(d, N + d)
        name = f"BO({d})"
    elif structure == "so":
        base = series_BSO(d, N + d)
        name = f"BSO({d})"
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return SpectrumSeries(
        series_shift(base, -d),
        EXACT,
        (f"Thom isomorphism: shift the series of {name} by -{d}",),
    )


@dataclass(frozen=True)
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
    fam = series_BO if structure == "o" else series_BSO
    if structure not in ("o", "so"):
        raise ValueError(f"unknown structure {structure!r}")
    P = fam(d, N)
    Pm1 = fam(d - 1, N)
    rhs = series_add(series_shift(fam(d, N), d), Pm1)
    ok, mismatch = series_equal(P, rhs, up_to=N)
    holds = structure == "o" or d >= 2
    notes = (
        "exactness input: multiplication by the top class is injective on the base ring"
        + ("" if holds else " -- FALSE for an oriented line (top class vanishes)"),
    )
    return CheckReport("gysin", d, N, structure, ok, mismatch, (), notes)


def hocolim_cofiber_check(d: int, N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """Mayer-Vietoris cofiber series against the closed-form wedge series."""
    cof = cofiber_series(d, N)
    wedge = wedge_target_series(d, N)
    ok, mismatch = series_equal(cof.series, wedge, up_to=N)
    return CheckReport("hocolim-cofiber", d, N, None, ok, mismatch, (),
                       ("cofiber computed from pair LES ranks; wedge from closed form",))


def d1_oracle_check(N: int = DEFAULT_TRUNCATION) -> CheckReport:
    """d=1 closed forms: hocolim = BO(1) and cofiber = t * BO(1)."""
    h = _hocolim_std(1, N)
    ok1, m1 = series_equal(h.series, series_BO(1, N), up_to=N)
    cof = cofiber_series(1, N)
    ok2, m2 = series_equal(cof.series, series_shift(series_BO(1, N), 1), up_to=N)
    ok = ok1 and ok2
    mismatch = m1 if not ok1 else (m2 if not ok2 else None)
    return CheckReport("d1-oracle", 1, N, None, ok, mismatch, (),
                       ("hocolim(1) vs BO(1); cofiber(1) vs t*BO(1)",))


@dataclass(frozen=True)
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
    lower = series_from_coeffs(
        [abs(a.coeff(n) - b.coeff(n)) for n in range(-d, N + 1)], -d
    )
    return MtgmfResult(
        d, N,
        SpectrumSeries(split, SPLIT_ASSUMPTION,
                       (f"t^-{d} * BO({d-1}) plus suspension spectrum of the singular stratum",
                        SPLIT_NOTE)),
        lower, split,
        (SPLIT_NOTE,),
    )


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
    return CheckReport(
        "connectivity", d, N, None, ok, mismatch, (),
        ("degree-0 coefficients and negative-degree agreement via tight interval bounds",),
    )


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
    """
    h = _hocolim_std(d, N)
    cof = cofiber_series(d, N)
    smf = sigma_mf_series(d, N)
    bo = series_BO(d, N)
    notes = [COMPONENTS_READING,
             "identity: A_n + C_n = X_n + k_n + k_{n-1} (n >= 1), A_0 + C_0 = X_0 + k_0"]
    # the disjoint-union series must match the assembled bottom-row dims
    for n in range(N + 1):
        if smf.coeff(n) != h.T_dims[n]:
            return CheckReport("sigma-mf-cofibration", d, N, None, False, n, (),
                               tuple(notes + ["bottom-row dimensions disagree with series"]))
        if h.rank[n] != h.T_dims[n] - bo.coeff(n):
            return CheckReport("sigma-mf-cofibration", d, N, None, False, n, (),
                               tuple(notes + ["rank Phi_n != T_n - partitions of n into <= d parts"]))
    if smf.coeff(0) - h.series.coeff(0) != d:
        return CheckReport("sigma-mf-cofibration", d, N, None, False, 0, (),
                           tuple(notes + ["degree-0 component count off"]))
    ok = True
    mismatch = None
    k = h.rank
    for n in range(N + 1):
        lhs = smf.coeff(n) + cof.series.coeff(n)
        rhs = h.series.coeff(n) + k[n] + (k[n - 1] if n >= 1 else 0)
        if lhs != rhs:
            ok, mismatch = False, n
            break
    return CheckReport("sigma-mf-cofibration", d, N, None, ok, mismatch, (), tuple(notes))
