"""Zigzag homotopy-colimit homology, the collapse cofiber, and Thom-spectrum
series.  The d=1 closed forms and a hand-built all-points diagram serve as
oracles for the Mayer-Vietoris pipeline; the wedge closed form is the
independent route for every d."""

from __future__ import annotations

import pytest

from gmfkit import cli, moduli_calc
from gmfkit.char_class_maps import build_Y, build_Y1
from gmfkit.graded_f2 import (
    GradedMap,
    MonomialBasis,
    rank_f2,
    rref_f2,
    series_BO,
    series_BSO,
    series_equal,
    series_grassmannian,
    series_one,
    series_zero,
    transpose_bits,
)
from gmfkit.moduli_calc import (
    EXACT,
    SPLIT_ASSUMPTION,
    SPLIT_NOTE,
    CheckReport,
    ZigzagDiagram,
    build_zigzag,
    cofiber_series,
    connectivity_and_pi0_checks,
    d1_oracle_check,
    gysin_check,
    hocolim_cofiber_check,
    hocolim_series,
    mt_series,
    mtgmf_series,
    sigma_gmf_series,
    sigma_mf_cofibration_check,
    sigma_mf_series,
    wedge_target_series,
)

# ---------------------------------------------------------------------------
# hand-built diagrams


def _point_map(N):
    """The homology map of a point to a point, as a graded matrix."""
    rows = [[1]] + [[] for _ in range(N)]
    shapes = [(1, 1)] + [(0, 0)] * N
    return GradedMap(N, rows, shapes)


def _point_zigzag(d, N):
    """d+1 points under d points: the colimit is a contractible tree."""
    return ZigzagDiagram(d, N,
                         tuple(_point_map(N) for _ in range(d)),
                         tuple(_point_map(N) for _ in range(d)))


# ---------------------------------------------------------------------------
# the homotopy colimit


def test_point_zigzag_is_contractible():
    h = hocolim_series(_point_zigzag(2, 4))
    assert [h.series.coeff(n) for n in range(5)] == [1, 0, 0, 0, 0]
    assert h.T_dims[0] == 3 and h.S_dims[0] == 2
    assert h.rank[0] == 2 and h.coker[0] == 1 and h.kernel[0] == 0


def test_point_zigzag_cofiber_is_wedge_of_circles():
    """Collapsing the three points of a contractible tree leaves two circles.

    The pair's long exact sequence, by hand on the raw result: iota_n maps
    onto coker(Phi_n), so C_0 = X_0 - coker_0 and C_1 = (X_1 - coker_1) + k_0
    with k_0 = T_0 - coker_0.
    """
    h = hocolim_series(_point_zigzag(2, 4))
    assert h.coker[0] == 1
    k0 = h.T_dims[0] - h.coker[0]
    assert k0 == 2 == h.rank[0]
    c0 = h.series.coeff(0) - h.coker[0]
    c1 = (h.series.coeff(1) - h.coker[1]) + k0
    assert (c0, c1) == (0, 2)


def test_zigzag_validation_errors():
    with pytest.raises(ValueError, match="inconsistent diagram"):
        ZigzagDiagram(2, 4, (_point_map(4),), (_point_map(4),))
    wide = GradedMap(4, [[0b11]] + [[] for _ in range(4)], [(1, 2)] + [(0, 0)] * 4)
    with pytest.raises(ValueError, match="inconsistent diagram"):
        ZigzagDiagram(1, 4, (_point_map(4),), (wide,))
    with pytest.raises(ValueError):
        build_zigzag(0)


def test_build_zigzag_enumerates_each_ring_once(monkeypatch):
    """f_i, g_i are built in turn, so one cached Y and one cached Y1 suffice."""
    built = []
    init = MonomialBasis.__init__

    def counting_init(self, generators, N):
        built.append(generators)
        init(self, generators, N)

    monkeypatch.setattr(MonomialBasis, "__init__", counting_init)
    for d in (3, 5):
        for cache in (build_Y, build_Y1):
            cache.cache_clear()
        built.clear()
        build_zigzag(d, 8)
        # Y(0..d) and Y1(0..d-1), nothing else
        assert len(built) == 2 * d + 1, d


def test_hocolim_d1_equals_line_classifier():
    h = hocolim_series(build_zigzag(1, 16))
    assert [h.series.coeff(n) for n in range(17)] == [1] * 17
    ok, mismatch = series_equal(h.series, series_BO(1, 16), up_to=16)
    assert ok and mismatch is None


def test_hocolim_d2_frozen_values():
    h = hocolim_series(build_zigzag(2, 10))
    assert [h.series.coeff(n) for n in range(11)] == [1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11]
    assert h.rank[:5] == (2, 3, 5, 6, 8)
    assert h.coker[:5] == (1, 1, 2, 2, 3)
    assert h.kernel[:5] == (0, 1, 1, 2, 2)
    assert h.T_dims[:4] == (3, 4, 7, 8)
    assert h.S_dims[:4] == (2, 4, 6, 8)


def test_hocolim_d3_frozen_values():
    s = sigma_gmf_series(3, 6)
    assert [s.coeff(n) for n in range(7)] == [1, 1, 4, 7, 11, 16, 23]


def test_hocolim_euler_bookkeeping():
    # rank-nullity on both sides: coker_n - ker_n = T_n - S_n
    for d in (1, 2, 3):
        h = hocolim_series(build_zigzag(d, 10))
        for n in range(11):
            assert h.coker[n] - h.kernel[n] == h.T_dims[n] - h.S_dims[n]
            assert 0 <= h.rank[n] <= min(h.T_dims[n], h.S_dims[n])


def _iota_rank_by_echelon(z, n):
    """Rank of (+)H_n(Y(j)) -> coker(Phi_n), built explicitly.

    Phi_n is assembled here from the f and g matrices; each target basis
    vector is reduced against a reduced echelon basis of im(Phi_n) and read
    off on the non-pivot coordinates.
    """
    t_dims, s_dims = z.bottom_dims(n), z.top_dims(n)
    T, S = sum(t_dims), sum(s_dims)
    rows = []
    for j in range(z.d + 1):
        for r in range(t_dims[j]):
            mask = 0
            if j < z.d:
                mask |= z.f_maps[j].rows[n][r] << sum(s_dims[:j])
            if j > 0:
                mask |= z.g_maps[j - 1].rows[n][r] << sum(s_dims[: j - 1])
            rows.append(mask)
    rk, pivots, ech = rref_f2(transpose_bits(rows, S), T)
    nonpivots = [c for c in range(T) if c not in pivots]
    images = []
    for k in range(T):
        v = ech[pivots.index(k)] if k in pivots else 1 << k
        images.append(sum(1 << i for i, c in enumerate(nonpivots) if (v >> c) & 1))
    return rank_f2(images, T - rk)


def test_iota_rank_matches_echelon_construction():
    # iota is onto coker(Phi_n), which is why the cofiber needs no iota ranks
    for d in (1, 2, 3, 4):
        for N in (4, 10):
            z = build_zigzag(d, N)
            h = hocolim_series(z)
            assert h.coker == tuple(_iota_rank_by_echelon(z, n) for n in range(N + 1))


def test_truncation_below_d_agrees_with_higher_truncation():
    # N < d leaves generators above the truncation; they must not break the maps
    for d in (2, 3, 4, 5):
        full = sigma_gmf_series(d, d)
        for N in range(1, d):
            s = sigma_gmf_series(d, N)
            assert s.coeffs == full.coeffs[: N + 1], (d, N)
            assert hocolim_cofiber_check(d, N).ok


def test_hocolim_is_connected():
    for d in (1, 2, 3, 4):
        s = sigma_gmf_series(d, 6)
        assert s.min_degree == 0
        assert s.coeff(0) == 1


# ---------------------------------------------------------------------------
# cofiber vs wedge


def test_cofiber_d1_closed_form():
    c = cofiber_series(1, 16)
    assert [c.series.coeff(n) for n in range(17)] == [0] + [1] * 16
    assert c.k == (1,) * 17


def test_cofiber_d2_frozen_values():
    c = cofiber_series(2, 10)
    assert [c.series.coeff(n) for n in range(11)] == [2 * n for n in range(11)]
    assert c.k[:5] == (2, 3, 5, 6, 8)


def test_wedge_closed_form_d2():
    # two suspended BO(1) x BO(1) pieces: coefficient 2n in degree n
    w = wedge_target_series(2, 10)
    assert [w.coeff(n) for n in range(11)] == [2 * n for n in range(11)]
    with pytest.raises(ValueError):
        wedge_target_series(0)


def test_cofiber_equals_wedge_small_d():
    for d in (1, 2, 3, 4):
        for N in (10, 16):
            rep = hocolim_cofiber_check(d, N)
            assert rep.ok and rep.first_mismatch_degree is None
            assert rep.verdict() == "Pass"


def test_sigma_mf_series_values():
    assert [sigma_mf_series(2, 6).coeff(n) for n in range(7)] == [3, 4, 7, 8, 11, 12, 15]
    for d in (1, 2, 3, 4):
        assert sigma_mf_series(d, 4).coeff(0) == d + 1


def test_sigma_mf_cofibration_identity():
    for d in (1, 2, 3):
        rep = sigma_mf_cofibration_check(d, 12)
        assert rep.ok, rep
        assert rep.verdict() == "Pass"


def test_sigma_mf_cofibration_checks_the_ranks(monkeypatch, capsys):
    """Ranks of Phi_n lowered above 6 leave the cofibration identity intact;
    the components count catches them."""
    exact = moduli_calc.rank_f2

    def lowered(rows, ncols):
        rk = exact(rows, ncols)
        return rk - 1 if rk > 6 else rk

    argv = ["verify", "--check", "sigma-mf-cofibration", "--d", "3", "--max-degree", "10"]
    moduli_calc._hocolim_std.cache_clear()
    try:
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(moduli_calc, "rank_f2", lowered)
        moduli_calc._hocolim_std.cache_clear()
        assert cli.main(argv) == 1
        assert "Fail" in capsys.readouterr().out
    finally:
        moduli_calc._hocolim_std.cache_clear()


# ---------------------------------------------------------------------------
# Thom-spectrum series


def test_mt_series_is_shifted_base():
    mt = mt_series(3, 8, "o")
    assert mt.provenance == EXACT
    assert mt.series.min_degree == -3
    bo = series_BO(3, 11)
    for n in range(-3, 9):
        assert mt.series.coeff(n) == bo.coeff(n + 3)


def test_mtso_d1_is_a_bare_desuspension():
    mt = mt_series(1, 6, "so")
    assert [mt.series.coeff(n) for n in range(-1, 7)] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_mt_series_validation():
    with pytest.raises(ValueError):
        mt_series(-1, 8)
    with pytest.raises(ValueError):
        mt_series(2, 8, structure="spin")


def test_mtgmf_d1_frozen_and_tight():
    m = mtgmf_series(1, 8)
    assert m.split.provenance == SPLIT_ASSUMPTION
    assert m.assumptions == (SPLIT_NOTE,)
    assert m.split.series.min_degree == -1
    assert [m.split.series.coeff(n) for n in range(-1, 9)] == [1, 2] + [1] * 8
    # the desuspended part and the stratum part have disjoint support at d=1,
    # so the interval collapses everywhere
    for n in range(-1, 9):
        assert m.lower.coeff(n) == m.upper.coeff(n) == m.split.series.coeff(n)


def test_mtgmf_bounds_ordering():
    for d in (1, 2, 3, 4):
        m = mtgmf_series(d, 8)
        assert m.lower.min_degree == -d
        for n in range(-d, 9):
            assert 0 <= m.lower.coeff(n) <= m.upper.coeff(n)
        mt = mt_series(d, 8, "o").series
        for n in range(-d, 0):
            assert m.lower.coeff(n) == m.upper.coeff(n) == mt.coeff(n)
    with pytest.raises(ValueError):
        mtgmf_series(0)


def test_spectrum_series_json():
    out = mt_series(2, 6, "o").to_json_dict()
    assert out["provenance"] == EXACT
    assert out["min_degree"] == -2
    assert isinstance(out["derivation"], list) and out["derivation"]


# ---------------------------------------------------------------------------
# identity checks and reports


def test_gysin_holds_for_all_unoriented_and_high_oriented():
    for d in range(1, 7):
        rep = gysin_check(d, 16, "o")
        assert rep.ok and rep.verdict() == "Pass"
    for d in range(2, 7):
        rep = gysin_check(d, 16, "so")
        assert rep.ok and rep.verdict() == "Pass"


def test_gysin_fails_for_oriented_line():
    """BSO(1) is a point: the top class vanishes, the sphere-bundle sequence
    does not split, and the series identity breaks at degree 1."""
    rep = gysin_check(1, 16, "so")
    assert not rep.ok
    assert rep.first_mismatch_degree == 1
    assert rep.verdict() == "Fail"
    assert any("FALSE" in note for note in rep.notes)


def test_gysin_validation():
    with pytest.raises(ValueError):
        gysin_check(0, 8)
    with pytest.raises(ValueError):
        gysin_check(2, 8, structure="pin")


def test_d1_oracle_check_passes():
    rep = d1_oracle_check(24)
    assert rep.ok and rep.verdict() == "Pass"


def test_connectivity_checks_pass():
    for d in (1, 2, 3):
        rep = connectivity_and_pi0_checks(d, 10)
        assert rep.ok and rep.verdict() == "Pass"


def test_check_report_verdict_logic():
    base = dict(check="x", d=1, N=4, structure=None,
                first_mismatch_degree=None, notes=())
    assert CheckReport(ok=True, assumptions=(), **base).verdict() == "Pass"
    assert CheckReport(ok=True, assumptions=("unverified",), **base).verdict() == "Interval"
    assert CheckReport(ok=False, assumptions=(), **base).verdict() == "Fail"


def test_bso_series_agrees_with_partition_rule():
    # sanity anchor for the oriented family used by the Gysin check
    assert [series_BSO(3, 6).coeff(n) for n in range(7)] == [1, 0, 1, 1, 1, 1, 2]


def test_negative_truncation_is_rejected():
    # every series function refuses N < 0 rather than return an empty or
    # truncation-0 series, or fail later with an IndexError
    calls = [
        lambda: series_zero(-1),
        lambda: series_one(-1),
        lambda: series_BO(2, -1),
        lambda: series_BSO(2, -1),
        lambda: series_grassmannian(2, 1, -1),
        lambda: MonomialBasis([("w1", 1)], -1),
        lambda: build_zigzag(2, -1),
        lambda: sigma_gmf_series(2, -1),
        lambda: cofiber_series(2, -1),
        lambda: wedge_target_series(2, -1),
        lambda: sigma_mf_series(2, -1),
        lambda: mt_series(2, -1),
        lambda: mtgmf_series(2, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="truncation must be nonnegative"):
            call()
