"""Cohomology rings of BO-products and the line-summing maps between them.
The Whitney expansion and the map matrices are checked against hand
expansions and a test-side polynomial multiplier built on parity counting."""

from __future__ import annotations

from collections import Counter
from itertools import product as iproduct

import pytest

from gmfkit.char_class_maps import _whitney, build_Y, build_Y1, map_f, map_g
from gmfkit.graded_f2 import series_BO, series_mul, series_one, transpose_bits

# ---------------------------------------------------------------------------
# oracles


def _pmul(P, Q) -> frozenset:
    """F2 polynomial product via coefficient counting (not set xor)."""
    counts = Counter()
    for p in P:
        for q in Q:
            counts[tuple(a + b for a, b in zip(p, q))] += 1
    return frozenset(m for m, c in counts.items() if c % 2 == 1)


def _ppow(P, e, nslots) -> frozenset:
    acc = frozenset({tuple([0] * nslots)})
    for _ in range(e):
        acc = _pmul(acc, P)
    return acc


def _count_monomials(degrees, n) -> int:
    """Brute-force count of exponent vectors with sum e_j * deg_j = n."""
    if not degrees:
        return 1 if n == 0 else 0
    ranges = [range(n // d + 1) for d in degrees]
    return sum(
        1 for e in iproduct(*ranges)
        if sum(a * d for a, d in zip(e, degrees)) == n
    )




def _e(k, *slots) -> tuple:
    """Exponent tuple of length k with one factor at each listed slot."""
    out = [0] * k
    for s in slots:
        out[s] += 1
    return tuple(out)


def _summed_block(k, line, slot, m) -> list:
    """w_j -> w'_j + a * w'_{j-1} (j = 1..m), a at slot line, w'_j at slot(j)."""
    gens = []
    for j in range(1, m + 1):
        terms = {_e(k, line, slot(j - 1)) if j > 1 else _e(k, line)}
        if j < m:
            terms.add(_e(k, slot(j)))
        gens.append(frozenset(terms))
    return gens


def _expected_gen_images(name, i, d) -> list:
    """Generator images of map_f(i, d) or map_g(i, d) in the Y1(i) slots
    (w''_1..w''_i, a, w'_1..w'_{d-i-1}), written out from the Whitney formula."""
    if name == "f":
        ident = [frozenset({_e(d, j)}) for j in range(i)]
        return ident + _summed_block(d, i, lambda j: i + j, d - i)
    ident = [frozenset({_e(d, i + j)}) for j in range(1, d - i)]
    return _summed_block(d, i, lambda j: j - 1, i + 1) + ident


def _image(rm, mono) -> frozenset:
    """The codomain monomials in the column of domain monomial mono."""
    n = sum(e * deg for e, deg in zip(mono, rm.domain.degrees))
    col = rm.columns[n][rm.domain.index(n, mono)]
    return frozenset(t for r, t in enumerate(rm.codomain.basis(n)) if col >> r & 1)


def _gen_images(rm) -> list:
    k = len(rm.domain.generators)
    return [_image(rm, _e(k, g)) for g in range(k)]


def _product_image(gen_images, mono, nslots) -> frozenset:
    want = frozenset({tuple([0] * nslots)})
    for j, e in enumerate(mono):
        if e:
            want = _pmul(want, _ppow(gen_images[j], e, nslots))
    return want


# ---------------------------------------------------------------------------
# rings


def test_ring_dims_match_series_and_brute_force():
    for ring, ranks in ((build_Y(1, 3, 12), (1, 2)), (build_Y1(0, 3, 12), (0, 1, 2)),
                        (build_Y(0, 2, 12), (0, 2))):
        degrees = [d for _, d in ring.generators]
        series = series_one(12)
        for m in ranks:
            series = series_mul(series, series_BO(m, 12))
        for n in range(13):
            want = _count_monomials(degrees, n)
            assert ring.dim(n) == want
            assert series.coeff(n) == want


def test_ring_frozen_dims():
    # BO(1) x BO(2): generators in degrees 1, 1, 2
    y13 = build_Y(1, 3, 8)
    assert [y13.dim(n) for n in range(5)] == [1, 2, 4, 6, 9]
    # BO(0) x BO(0) is a point: one basis element in degree 0 only
    y00 = build_Y(0, 0, 6)
    assert [y00.dim(n) for n in range(7)] == [1, 0, 0, 0, 0, 0, 0]


def test_ring_validation():
    with pytest.raises(ValueError):
        build_Y(3, 2, 8)
    with pytest.raises(ValueError):
        build_Y1(2, 2, 8)


# ---------------------------------------------------------------------------
# the Whitney expansion and the two line-summing maps


def test_map_f_generator_images_rank_two_block():
    # line into BO(2): w1 -> w1' + a, w2 -> a w1'  (codomain slots: a, w1')
    want = [frozenset({(1, 0), (0, 1)}), frozenset({(1, 1)})]
    W = _whitney(2, 8)
    assert [W[(1, 0)], W[(0, 1)]] == want
    assert _gen_images(map_f(0, 2, 8)) == want


def test_map_f_generator_images_rank_three_block():
    # line into BO(3): w3 -> a w2'  (codomain slots: a, w1', w2')
    want = [
        frozenset({(1, 0, 0), (0, 1, 0)}),
        frozenset({(0, 0, 1), (1, 1, 0)}),
        frozenset({(1, 0, 1)}),
    ]
    W = _whitney(3, 8)
    assert [W[(1, 0, 0)], W[(0, 1, 0)], W[(0, 0, 1)]] == want
    assert _gen_images(map_f(0, 3, 8)) == want


def test_map_g_generator_images():
    # line into the first block BO(1): w1 -> a; identity on the second
    assert _whitney(1, 8)[(1,)] == {(1,)}
    assert _gen_images(map_g(0, 2, 8)) == [
        frozenset({(1, 0)}),
        frozenset({(0, 1)}),
    ]


def test_map_images_are_multiplicative():
    """image(prod of generators) = product of generator images."""
    for m in range(1, 5):
        W = _whitney(m, 8)
        gens = [W[_e(m, j)] for j in range(m)]
        for mono, img in W.items():
            assert img == _product_image(gens, mono, m)
    for rm in (map_f(1, 3, 10), map_g(1, 3, 10), map_f(0, 4, 8)):
        gens = _gen_images(rm)
        nslots = len(rm.codomain.generators)
        for n in range(1, 9):
            for mono in rm.domain.basis(n):
                assert _image(rm, mono) == _product_image(gens, mono, nslots)


def test_map_images_preserve_degree():
    for m in range(1, 5):
        deg_cod = [1] + list(range(1, m))  # a, w'_1..w'_{m-1}
        for mono, img in _whitney(m, 10).items():
            n = sum(e * (j + 1) for j, e in enumerate(mono))
            for t in img:
                assert sum(a * d for a, d in zip(t, deg_cod)) == n


def test_map_columns_match_whitney_formula():
    """Every f/g column, d <= 4 and N <= 8, against a test-side expansion."""
    for d in range(1, 5):
        for N in range(9):
            for i in range(d):
                for name, rm in (("f", map_f(i, d, N)), ("g", map_g(i, d, N))):
                    gens = _expected_gen_images(name, i, d)
                    for n in range(N + 1):
                        cod = rm.codomain.basis(n)
                        want = [sum(1 << cod.index(t) for t in _product_image(gens, mono, d))
                                for mono in rm.domain.basis(n)]
                        assert rm.columns[n] == want, (name, i, d, N, n)


def test_homology_matrix_is_transpose_of_cohomology():
    fm = map_f(0, 2, 10)
    hm = fm.homology_map()
    for n in range(11):
        cols = fm.columns[n]
        # reading the column masks as rows gives the homology matrix
        assert hm.rows[n] == cols
        assert hm.shapes[n] == (fm.domain.dim(n), fm.codomain.dim(n))
        # and the cohomology matrix (rows = codomain basis) transposes back
        rows = transpose_bits(cols, fm.codomain.dim(n))
        assert transpose_bits(rows, fm.domain.dim(n)) == cols


def test_degree_one_example():
    # w1 of BO(2) hits both degree-1 classes downstairs: matrix [1 1]
    fm = map_f(0, 2, 8)
    assert fm.columns[1] == [0b11]
    hm = fm.homology_map()
    assert hm.rows[1] == [0b11]
    assert hm.shapes[1] == (1, 2)


def test_cohomology_injective_small_cases():
    for d in range(1, 5):
        for i in range(0, d):
            fm, gm = map_f(i, d, 12), map_g(i, d, 12)
            for n in range(13):
                assert fm.cohomology_rank(n) == fm.domain.dim(n)
                assert gm.cohomology_rank(n) == gm.domain.dim(n)


def test_homology_and_cohomology_ranks_agree():
    for rm in (map_f(1, 3, 10), map_g(0, 3, 10)):
        hm = rm.homology_map()
        for n in range(11):
            assert hm.rank(n) == rm.cohomology_rank(n)
