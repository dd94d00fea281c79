"""Zigzag homotopy-colimit homology, the collapse cofiber, and Thom-spectrum
series.  The d=1 closed forms and a hand-built all-points diagram serve as
oracles for the Mayer-Vietoris pipeline; the wedge closed form is the
independent route for every d."""

from __future__ import annotations

import json
import random
from functools import reduce

import pytest

from gmfkit import char_class_maps, cli, moduli_calc
from gmfkit.char_class_maps import _Block, _tables, build_Y, build_Y1
from gmfkit.graded_f2 import (
    GradedMap,
    MonomialBasis,
    rank_f2,
    rref_f2,
    series_BO,
    series_add,
    series_BSO,
    series_equal,
    series_from_coeffs,
    series_grassmannian,
    series_mul,
    series_one,
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
    """The homology map of a point to a point: degree 0 sends 0 to 0."""
    images = [[0]] + [[] for _ in range(N)]
    shapes = [(1, 1)] + [(0, 0)] * N
    return GradedMap(N, images, shapes)


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
    wide = GradedMap(4, [[0, 0]] + [[] for _ in range(4)], [(1, 2)] + [(0, 0)] * 4)
    with pytest.raises(ValueError, match="inconsistent diagram"):
        ZigzagDiagram(1, 4, (_point_map(4),), (wide,))
    with pytest.raises(ValueError):
        build_zigzag(0)


def test_build_zigzag_enumerates_each_ring_once(monkeypatch):
    """The maps are read off single-block tables: build_zigzag lists each of
    BO(0..d) once, builds no MonomialBasis at all, and a second build of the
    same shape lists nothing."""
    built, bases = [], []

    def counting(cls, log):
        init = cls.__init__

        def counting_init(self, *args):
            log.append(args)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)

    counting(_Block, built)
    counting(MonomialBasis, bases)
    for d in (3, 5):
        for cache in (_tables, build_Y, build_Y1):
            cache.cache_clear()
        built.clear()
        build_zigzag(d, 8)
        assert [(len(degrees), N) for degrees, N in built] == [
            (sum(series_BO(m, 8).coeffs), 8) for m in range(d + 1)], d
        built.clear()
        build_zigzag(d, 8)
        assert built == [], d
    assert bases == []


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


def _phi_rows(z, n):
    """Phi_n assembled from the bit rows of the f and g maps: one row per
    basis element of a Y(j), one column per basis element of a Y1(i)."""
    t_dims, s_dims = z.bottom_dims(n), z.top_dims(n)
    rows = []
    for j in range(z.d + 1):
        for r in range(t_dims[j]):
            mask = 0
            if j < z.d:
                mask |= z.f_maps[j].rows[n][r] << sum(s_dims[:j])
            if j > 0:
                mask |= z.g_maps[j - 1].rows[n][r] << sum(s_dims[: j - 1])
            rows.append(mask)
    return rows


def _iota_rank_by_echelon(z, n):
    """Rank of (+)H_n(Y(j)) -> coker(Phi_n), built explicitly.

    Each target basis vector is reduced against a reduced echelon basis of
    im(Phi_n) and read off on the non-pivot coordinates.
    """
    T, S = sum(z.bottom_dims(n)), sum(z.top_dims(n))
    rk, pivots, ech = rref_f2(transpose_bits(_phi_rows(z, n), S), T)
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


def _random_zigzag(rng, d, N):
    """Random index maps on random dimensions: zero-dimensional degrees,
    targets that no source hits, and sources sharing a target all occur."""
    t = [[rng.choice([0, 1, 2, 3, 5]) for _ in range(N + 1)] for _ in range(d + 1)]
    s = [[rng.randint(0, 6) if t[i][n] and t[i + 1][n] else 0 for n in range(N + 1)]
         for i in range(d)]

    def index_map(i, j):
        images = [[rng.randrange(t[j][n]) for _ in range(s[i][n])] for n in range(N + 1)]
        return GradedMap(N, images, [(t[j][n], s[i][n]) for n in range(N + 1)])

    return ZigzagDiagram(d, N, tuple(index_map(i, i) for i in range(d)),
                         tuple(index_map(i, i + 1) for i in range(d)))


def test_union_find_rank_matches_xor_basis_rank():
    """The graph rank of Phi_n against a general xor-basis rank of Phi_n
    assembled from the bit rows, on random index-map zigzags."""
    import random

    rng = random.Random(11)
    for _ in range(300):
        d, N = rng.randint(1, 4), rng.randint(0, 3)
        z = _random_zigzag(rng, d, N)
        want = tuple(rank_f2(_phi_rows(z, n)) for n in range(N + 1))
        assert hocolim_series(z).rank == want


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


def test_block_sum_builds_bo_only_up_to_rank_N(monkeypatch):
    """series_BO(m, N) is series_BO(N, N) for m >= N, so _block_sum builds one
    BO series per rank up to N and one per inner block, whatever d is; its
    values at d > N are checked by test_closed_form_equals_the_zigzag."""
    calls = []

    def counting(m, N):
        calls.append(m)
        return series_BO(m, N)

    monkeypatch.setattr(moduli_calc, "series_BO", counting)
    for inner in ((), (1,)):
        calls.clear()
        moduli_calc._block_sum(10_000, 6, inner)
        assert len(calls) <= 6 + 1 + len(inner), (inner, len(calls))


def test_block_sum_equals_the_per_i_sum():
    """The i with N <= i <= r - N, added as one product times their number,
    give the sum of BO(i) * inner * BO(r - i) over every i, in exact integers."""
    for d in range(41):
        for N in range(11):
            for inner in ((), (1,)):
                r = d - sum(inner)
                if r < 0:
                    continue
                fixed = [series_BO(m, N) for m in inner]
                want = reduce(series_add, (reduce(series_mul, [series_BO(i, N), *fixed,
                                                               series_BO(r - i, N)])
                                           for i in range(r + 1)))
                assert moduli_calc._block_sum(d, N, inner) == want, (d, N, inner)


def test_sigma_mf_cofibration_identity():
    for d in (1, 2, 3):
        rep = sigma_mf_cofibration_check(d, 12)
        assert rep.ok, rep
        assert rep.verdict() == "Pass"


def test_sigma_mf_cofibration_checks_the_ranks(monkeypatch, capsys):
    """Ranks of Phi_n lowered above 6 leave the cofibration identity intact;
    the components count catches them."""
    exact = moduli_calc._hocolim_result

    def lowered(d, N, rank, T_dims, S_dims):
        return exact(d, N, tuple(rk - 1 if rk > 6 else rk for rk in rank), T_dims, S_dims)

    argv = ["verify", "--check", "sigma-mf-cofibration", "--d", "3", "--max-degree", "10"]
    moduli_calc._hocolim_std.cache_clear()
    try:
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(moduli_calc, "_hocolim_result", lowered)
        moduli_calc._hocolim_std.cache_clear()
        assert cli.main(argv) == 1
        assert "Fail" in capsys.readouterr().out
    finally:
        moduli_calc._hocolim_std.cache_clear()


@pytest.mark.parametrize("d, N", [(1, 12), (2, 20), (3, 20), (4, 24), (5, 32), (6, 24), (7, 20),
                                  (4, 3), (6, 2)])
def test_closed_form_equals_the_zigzag(d, N):
    """BO(d) + t * (S - T + BO(d)) and C = t * S against the union-find over
    the enumerated zigzag, ranks included; the verify checks' degree-by-degree
    path gives the same result as the built zigzag."""
    h = hocolim_series(build_zigzag(d, N))
    assert moduli_calc._hocolim_std(d, N) == h
    assert sigma_gmf_series(d, N) == h.series
    cof = cofiber_series(d, N)
    assert cof.k == h.rank
    assert list(cof.series.coeffs) == [0] + list(h.S_dims[:N])


def test_series_commands_build_no_zigzag(monkeypatch, capsys):
    """sigma-gmf, cofiber, mtgmf and the connectivity check read the closed
    form alone."""
    def refuse(*args):
        raise AssertionError("build_zigzag called")

    monkeypatch.setattr(moduli_calc, "build_zigzag", refuse)
    moduli_calc._hocolim_std.cache_clear()
    try:
        for obj in ("sigma-gmf", "cofiber", "mtgmf"):
            assert cli.main(["series", "--object", obj, "--d", "5", "--max-degree", "12"]) == 0
        assert cli.main(["verify", "--check", "connectivity", "--d", "5",
                         "--max-degree", "12"]) == 0
        assert '"verdict": "Fail"' not in capsys.readouterr().out
    finally:
        moduli_calc._hocolim_std.cache_clear()


def test_verify_builds_no_zigzag(monkeypatch, capsys):
    """The zigzag checks rank Phi_n degree by degree from the single-block
    tables: no map and no zigzag is built whole."""
    def refuse(*args):
        raise AssertionError("a whole map or zigzag built")

    for module, name in ((moduli_calc, "build_zigzag"), (moduli_calc, "line_maps"),
                         (char_class_maps, "line_maps"), (char_class_maps, "map_f"),
                         (char_class_maps, "map_g")):
        monkeypatch.setattr(module, name, refuse)
    moduli_calc._hocolim_std.cache_clear()
    try:
        assert cli.main(["verify", "--check", "all", "--d", "4", "--max-degree", "10"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == 5 and all(r["verdict"] == "Pass" for r in records)
    finally:
        moduli_calc._hocolim_std.cache_clear()


def test_verify_rejects_an_index_outside_the_target(capsys):
    """Each insertion-table entry is checked as GradedMap checks an index map:
    g_1's entry for a part 4 inserted into BO(1)'s empty partition, pointing
    one past the end of BO(2), is an error at degree 4, exit 2."""
    d, N = 3, 6
    blocks, insertions = _tables(d, N)
    moduli_calc._hocolim_std.cache_clear()
    try:
        insertions[1][0][4] = len(blocks[2].degrees)
        argv = ["verify", "--check", "hocolim-cofiber", "--d", str(d), "--max-degree", str(N)]
        assert cli.main(argv) == 2
        assert "degree 4: target index outside" in capsys.readouterr().err
    finally:
        _tables.cache_clear()
        moduli_calc._hocolim_std.cache_clear()


@pytest.mark.parametrize("fault, message", [
    ("wrong degree", "degree 3: target index outside"),
    ("short row", "degree 2: 4 images for 5 source elements"),
    ("block count", "degree 5: 12 images for 11 source elements"),
])
def test_verify_rejects_a_faulty_table(monkeypatch, capsys, fault, message):
    """An insertion entry of the wrong degree, an insertion row of the wrong
    length, and layer edge counts that differ from Y1(i)'s partition counts
    are each an error, exit 2, never an IndexError (exit 3)."""
    d, N = 3, 6
    blocks, insertions = _tables(d, N)
    moduli_calc._hocolim_std.cache_clear()
    try:
        if fault == "wrong degree":  # BO(2) -> BO(3): a part 3 into the empty partition
            insertions[2][0][3] = blocks[3].members[2][0]
        elif fault == "short row":  # BO(1) -> BO(2): no part 6 - 2 into the partition (2)
            del insertions[1][2][-1]
        else:  # one Y1(i) element of degree 5 fewer than the blocks enumerate
            counts = moduli_calc._product_dims
            monkeypatch.setattr(moduli_calc, "_product_dims", lambda ranks, N: tuple(
                c - (n == 5 and len(ranks) == 3) for n, c in enumerate(counts(ranks, N))))
        argv = ["verify", "--check", "hocolim-cofiber", "--d", str(d), "--max-degree", str(N)]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
    finally:
        _tables.cache_clear()
        moduli_calc._hocolim_std.cache_clear()


def test_row_ranks_match_union_find_on_faulty_tables():
    """verify's row-copying ranks are the graph's ranks, not the closed form's:
    with one insertion entry moved to another partition of the same degree,
    they equal the union-find over the zigzag built from the same tables."""
    rng = random.Random(32)
    changed = 0
    for _ in range(100):
        d, N = rng.randint(1, 5), rng.randint(0, 10)
        blocks, insertions = _tables(d, N)
        m = rng.randrange(d)
        p = rng.randrange(len(insertions[m]))
        row = insertions[m][p]
        k = rng.randrange(len(row))
        exact = row[k]
        try:
            row[k] = rng.choice(blocks[m + 1].members[blocks[m].degrees[p] + k])
            moduli_calc._hocolim_std.cache_clear()
            got = moduli_calc._hocolim_std(d, N)
            assert got == hocolim_series(build_zigzag(d, N)), (d, N, m, p, k)
        finally:
            row[k] = exact
            moduli_calc._hocolim_std.cache_clear()
        changed += got.rank != moduli_calc._hocolim_std(d, N).rank
    assert changed


@pytest.mark.parametrize("check, d", [("sigma-mf-cofibration", 2), ("sigma-mf-cofibration", 4),
                                      ("d1-oracle", 1)])
def test_zigzag_checks_fail_under_a_lowered_rank(monkeypatch, capsys, check, d):
    """Every rank of Phi_n lowered by one: the checks that read the zigzag's
    ranks turn Fail."""
    exact = moduli_calc._hocolim_result
    monkeypatch.setattr(moduli_calc, "_hocolim_result", lambda d, N, rank, T_dims, S_dims: exact(
        d, N, tuple(rk - 1 for rk in rank), T_dims, S_dims))
    moduli_calc._hocolim_std.cache_clear()
    try:
        assert cli.main(["verify", "--check", check, "--d", str(d), "--max-degree", "10"]) == 1
        assert '"verdict": "Fail"' in capsys.readouterr().out
    finally:
        moduli_calc._hocolim_std.cache_clear()


def _cofiber_off_in_its_top_degree(monkeypatch):
    exact = moduli_calc._mv_cofiber

    def off(h):
        c = list(exact(h).coeffs)
        c[-1] += 1
        return series_from_coeffs(c)

    monkeypatch.setattr(moduli_calc, "_mv_cofiber", off)


def _bo_with_two_components(monkeypatch):
    exact = moduli_calc.series_BO
    monkeypatch.setattr(moduli_calc, "series_BO",
                        lambda m, N: series_from_coeffs((2,) + exact(m, N).coeffs[1:]))


def _base_bumped_in_degree_1(monkeypatch):
    exact = moduli_calc._BASE_SERIES["o"]

    def bumped(m, N):
        c = list(exact(m, N).coeffs)
        c[1] += 1
        return series_from_coeffs(c)

    monkeypatch.setitem(moduli_calc._BASE_SERIES, "o", bumped)


@pytest.mark.parametrize("check, fault", [
    ("hocolim-cofiber", _cofiber_off_in_its_top_degree),
    ("connectivity", _bo_with_two_components),
    ("gysin", _base_bumped_in_degree_1),
])
def test_checks_fail_under_a_fault_of_their_own(monkeypatch, capsys, check, fault):
    """Each check that no other test makes fail turns Fail, with exit 1, at
    d = 3, N = 10 under a named fault: hocolim-cofiber under _mv_cofiber off
    by one in its top degree, connectivity under a series_BO whose degree-0
    coefficient is 2, and gysin with structure o under _BASE_SERIES["o"]
    bumped in degree 1 (the table holds series_BO itself, so patching the
    module's series_BO does not reach it).  The faults of sigma-mf-cofibration
    and d1-oracle are the lowered ranks above.  Part (c) of connectivity,
    negative-degree agreement read from the mtgmf bounds, has no fault of its
    own: it reads lower == upper, which the reported bounds give by
    construction (ROADMAP item 1)."""
    argv = ["verify", "--check", check, "--d", "3", "--max-degree", "10", "--structure", "o"]

    def run():
        moduli_calc._hocolim_std.cache_clear()
        moduli_calc._closed_form.cache_clear()
        code = cli.main(argv)
        return code, json.loads(capsys.readouterr().out)["verdict"]

    try:
        assert run() == (0, "Pass")
        fault(monkeypatch)
        assert run() == (1, "Fail")
    finally:
        moduli_calc._hocolim_std.cache_clear()
        moduli_calc._closed_form.cache_clear()


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="mtgmf_series reports lower = |a_n - c_n|, above what the long exact "
    "sequence gives; (n, reported, sound) at N=12: d=1 (-1,1,0), (0,2,1); "
    "d=2 (-1,1,0); d=3 (-1,2,0), (1,2,0); d=4 (-1,3,1), (1,4,0), (2,2,0); "
    "d=5 (-1,5,3), (1,8,3), (2,5,0); d=6 (-1,7,5), (1,12,6), (2,11,2), (3,7,0)",
)
def test_mtgmf_lower_bound_is_sound():
    """The exact sequence of Sigma^-1 MT(d-1) -> MT^gmf(d) -> Sigma^infty
    Sigma_gmf+ bounds the middle term below by max(0, a_n - c_{n+1}) +
    max(0, c_n - a_{n-1}), with a_n = [t^(n+d)] BO(d-1) and c = 1 + Sigma_gmf(d):
    the reported lower bound may not exceed that."""
    N = 12
    for d in range(1, 7):
        lower = mtgmf_series(d, N).lower
        bo = series_BO(d - 1, N + d)
        c = series_add(series_one(N), sigma_gmf_series(d, N))
        for n in range(-d, N):
            sound = (max(0, bo.coeff(n + d) - c.coeff(n + 1))
                     + max(0, c.coeff(n) - bo.coeff(n + d - 1)))
            assert lower.coeff(n) <= sound, (d, n, lower.coeff(n), sound)


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
