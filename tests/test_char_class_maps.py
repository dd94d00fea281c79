"""Cohomology rings of BO-products and the line-summing maps between them.
The map matrices, written in the monomial-symmetric basis, are checked
against hand values, against a test-side expansion of each m_lambda as an
explicit polynomial (parity counted, not set xor), and, through the ranks
of the Mayer-Vietoris map, against the Whitney expansion in the w basis."""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from itertools import product as iproduct

import pytest

from gmfkit.char_class_maps import build_Y, build_Y1, map_f, map_g
from gmfkit.graded_f2 import GradedMap, series_BO, series_mul, series_one, transpose_bits
from gmfkit.moduli_calc import ZigzagDiagram, build_zigzag, hocolim_series

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


def _whitney_zigzag(d, N) -> ZigzagDiagram:
    """The zigzag with every map written in the w basis, from _expected_gen_images."""
    maps = {"f": [], "g": []}
    for i in range(d):
        for name, rm in (("f", map_f(i, d, N)), ("g", map_g(i, d, N))):
            gens = _expected_gen_images(name, i, d)
            dom, cod = rm.domain, rm.codomain
            cols = [[sum(1 << cod.index(n, t) for t in _product_image(gens, mono, d))
                     for mono in dom.basis(n)] for n in range(N + 1)]
            shapes = [(dom.dim(n), cod.dim(n)) for n in range(N + 1)]
            maps[name].append(GradedMap(N, cols, shapes))
    return ZigzagDiagram(d, N, tuple(maps["f"]), tuple(maps["g"]))


def _partition(e) -> tuple:
    """The partition lambda_j = e_j + ... + e_m that exponent tuple e stands for."""
    return tuple(sum(e[j:]) for j in range(len(e)))


def _blocks(mono, ranks):
    """The partitions of a product basis element, one per block."""
    pos = 0
    for m in ranks:
        yield _partition(mono[pos:pos + m])
        pos += m


def _expand(mono, ranks) -> frozenset:
    """A product basis element as an explicit polynomial: the product of one
    m_lambda per block, each the sum of the distinct permutations of lambda in
    that block's variables (coefficients are 1, so the blocks just concatenate)."""
    blocks = [set(permutations(lam)) for lam in _blocks(mono, ranks)]
    return frozenset(sum(vs, ()) for vs in iproduct(*blocks))


def _read(P, ranks, basis) -> int:
    """Column mask of polynomial P in a basis of product elements m_lambda."""
    col, rebuilt = 0, Counter()
    for r, mono in enumerate(basis):
        if sum(_blocks(mono, ranks), ()) in P:
            col |= 1 << r
            rebuilt.update(_expand(mono, ranks))
    # P must be exactly the F2 sum of what was read off
    assert frozenset(t for t, c in rebuilt.items() if c % 2) == P
    return col


def _poly(col, ranks, basis) -> frozenset:
    """The F2 sum of the basis elements whose bits are set in col."""
    counts = Counter()
    for r, mono in enumerate(basis):
        if col >> r & 1:
            counts.update(_expand(mono, ranks))
    return frozenset(t for t, c in counts.items() if c % 2)


def _maps(d_max, N):
    """Every f/g map with d <= d_max, with the block ranks of domain and codomain.

    The line is the first variable of f's second block and the last variable
    of g's first block, so restriction leaves exponent vectors unchanged.
    """
    for d in range(1, d_max + 1):
        for i in range(d):
            cod = (i, 1, d - i - 1)
            yield ("f", i, d), map_f(i, d, N), (i, d - i), cod
            yield ("g", i, d), map_g(i, d, N), (i + 1, d - i - 1), cod


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
# the two line-summing maps


def test_map_f_generator_images_rank_two_block():
    # line into BO(2): w1 -> w1' + a, w2 -> a w1'  (codomain slots: a, w1')
    fm = map_f(0, 2, 8)
    assert _gen_images(fm) == [frozenset({(1, 0), (0, 1)}), frozenset({(1, 1)})]
    # degree 2: m_(1,1) -> a y and m_(2) -> a^2 + y^2 in the basis y^2, a y, a^2
    assert [fm.domain.basis(2), fm.codomain.basis(2)] == [[(0, 1), (2, 0)],
                                                          [(0, 2), (1, 1), (2, 0)]]
    assert fm.columns[2] == [0b010, 0b101]


def test_map_f_generator_images_rank_three_block():
    # line into BO(3): w3 -> a w2'  (codomain slots: a, then m_nu on w1', w2')
    fm = map_f(0, 3, 8)
    assert _gen_images(fm) == [
        frozenset({(1, 0, 0), (0, 1, 0)}),
        frozenset({(0, 0, 1), (1, 1, 0)}),
        frozenset({(1, 0, 1)}),
    ]
    # m_(2,1) -> a^2 m_(1) + a m_(2) + m_(2,1);  m_(3) -> a^3 + m_(3)
    assert _image(fm, (1, 1, 0)) == {(2, 1, 0), (1, 2, 0), (0, 1, 1)}
    assert _image(fm, (3, 0, 0)) == {(3, 0, 0), (0, 3, 0)}


def test_map_g_generator_images():
    # line into the first block BO(1): w1 -> a; identity on the second
    assert _gen_images(map_g(0, 2, 8)) == [
        frozenset({(1, 0)}),
        frozenset({(0, 1)}),
    ]
    # line into BO(2): m_(1,1) -> y a, m_(2) -> y^2 + a^2 (basis a^2, y a, y^2)
    assert map_g(1, 2, 8).columns[2] == [0b010, 0b101]
    # into BO(3), codomain slots (w1', w2', a): m_(2,1) -> m_(2,1) + a m_(2) + a^2 m_(1)
    assert _image(map_g(2, 3, 8), (1, 1, 0)) == {(1, 1, 0), (2, 0, 1), (1, 0, 2)}


def test_map_images_are_multiplicative():
    """image(x * w) = image(x) * image(w) for every basis element x and
    generator w of the domain, products taken as explicit polynomials."""
    N = 8
    for key, rm, dom_ranks, cod_ranks in _maps(4, N):
        dom, cod = rm.domain, rm.codomain
        k = len(dom.generators)
        for g, deg in enumerate(dom.degrees):
            w = _e(k, g)
            w_img = _poly(rm.columns[deg][dom.index(deg, w)], cod_ranks, cod.basis(deg))
            for n in range(N + 1 - deg):
                for c, x in enumerate(dom.basis(n)):
                    prod = _read(_pmul(_expand(x, dom_ranks), _expand(w, dom_ranks)),
                                 dom_ranks, dom.basis(n + deg))
                    lhs = 0
                    for b, col in enumerate(rm.columns[n + deg]):
                        if prod >> b & 1:
                            lhs ^= col
                    x_img = _poly(rm.columns[n][c], cod_ranks, cod.basis(n))
                    rhs = _read(_pmul(x_img, w_img), cod_ranks, cod.basis(n + deg))
                    assert lhs == rhs, (key, x, g)


def test_map_images_preserve_degree():
    """Every column is a nonzero sum of codomain elements of its own degree."""
    for N in range(9):
        for key, rm, _, cod_ranks in _maps(4, N):
            for n in range(N + 1):
                for col in rm.columns[n]:
                    assert col and not col >> rm.codomain.dim(n), (key, N, n)
                    for t in _poly(col, cod_ranks, rm.codomain.basis(n)):
                        assert sum(t) == n, (key, N, n)


def test_map_columns_match_whitney_formula():
    """Every f/g column, d <= 4 and N <= 8, against a test-side expansion:
    m_lambda as a polynomial in x_1..x_m with one x set to the line class a."""
    for N in range(9):
        for key, rm, dom_ranks, cod_ranks in _maps(4, N):
            for n in range(N + 1):
                cod = rm.codomain.basis(n)
                want = [_read(_expand(mono, dom_ranks), cod_ranks, cod)
                        for mono in rm.domain.basis(n)]
                assert rm.columns[n] == want, (key, N, n)


def test_phi_ranks_match_the_w_basis():
    """The Mayer-Vietoris ranks do not depend on the basis: built from the
    Whitney expansion w_j -> w'_j + a w'_{j-1}, they are the same."""
    for d in range(1, 5):
        for N in range(9):
            want = hocolim_series(_whitney_zigzag(d, N)).rank
            assert hocolim_series(build_zigzag(d, N)).rank == want, (d, N)


def test_each_source_element_lies_in_one_row():
    """Homology sends each basis element of Y1(i) to one basis element."""
    for key, rm, _, _ in _maps(5, 12):
        hm = rm.homology_map()
        for n in range(13):
            full = (1 << hm.shapes[n][1]) - 1
            union = 0
            for row in hm.rows[n]:
                assert not row & union, (key, n)
                union |= row
            assert union == full, (key, n)


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
