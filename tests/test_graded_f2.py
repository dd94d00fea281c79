"""Series arithmetic and GF(2) linear algebra on row ints, checked against
brute-force oracles written independently of the library's algorithms."""

from __future__ import annotations

import random

import pytest

from gmfkit.graded_f2 import (
    GradedMap,
    MonomialBasis,
    PoincareSeries,
    rank_f2,
    rref_f2,
    series_add,
    series_BO,
    series_BSO,
    series_equal,
    series_from_coeffs,
    series_grassmannian,
    series_mul,
    series_one,
    series_shift,
    transpose_bits,
)

# ---------------------------------------------------------------------------
# oracles


def _partitions(n: int, max_part: int):
    """Explicit enumeration of partitions of n with parts <= max_part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _count_partitions(n: int, max_part: int) -> int:
    return sum(1 for _ in _partitions(n, max_part))


def _count_partitions_min2(n: int, max_part: int) -> int:
    return sum(1 for p in _partitions(n, max_part) if all(x >= 2 for x in p))


def _young_diagrams_in_box(d: int, n: int, size: int) -> int:
    """Partitions of `size` with at most d parts, each part <= n."""

    def rec(remaining, rows_left, cap):
        if remaining == 0:
            return 1
        if rows_left == 0:
            return 0
        total = 0
        for part in range(min(remaining, cap), 0, -1):
            total += rec(remaining - part, rows_left - 1, part)
        return total

    return rec(size, d, n)


def _naive_rank(rows, ncols):
    """Row-list Gaussian elimination over F2, no packing, no numpy."""
    mat = [list((r >> j) & 1 for j in range(ncols)) for r in rows]
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def _naive_mul_coeffs(a, b, upto):
    out = [0] * (upto + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= upto:
                out[i + j] += ca * cb
    return out


# ---------------------------------------------------------------------------
# Poincare series


def test_series_basics_and_coeff_window():
    s = series_from_coeffs([1, 2, 3], min_degree=-1)
    assert s.min_degree == -1
    assert s.truncation == 1
    assert s.coeff(-5) == 0
    assert s.coeff(-1) == 1 and s.coeff(0) == 2 and s.coeff(1) == 3
    with pytest.raises(ValueError):
        s.coeff(2)


def test_series_add_and_mul_against_naive_convolution():
    rng = random.Random(411)
    for _ in range(50):
        na, nb = rng.randint(0, 8), rng.randint(0, 8)
        a = [rng.randint(0, 5) for _ in range(na + 1)]
        b = [rng.randint(0, 5) for _ in range(nb + 1)]
        sa, sb = series_from_coeffs(a), series_from_coeffs(b)
        prod = series_mul(sa, sb)
        # sound window: min(trunc_a + min_b, trunc_b + min_a)
        assert prod.truncation == min(na, nb)
        naive = _naive_mul_coeffs(a, b, prod.truncation)
        assert [prod.coeff(n) for n in range(prod.truncation + 1)] == naive
        ss = series_add(sa, sb)
        assert ss.truncation == min(na, nb)
        for n in range(ss.truncation + 1):
            assert ss.coeff(n) == sa.coeff(n) + sb.coeff(n)


def test_series_mul_truncation_with_negative_min_degree():
    a = series_from_coeffs([1, 1], min_degree=-2)  # degrees -2..-1, truncation -1
    b = series_from_coeffs([1, 1, 1])              # degrees 0..2
    p = series_mul(a, b)
    assert p.min_degree == -2
    # sound truncation: min(-1 + 0, 2 + (-2)) = -1
    assert p.truncation == -1
    assert [p.coeff(n) for n in (-2, -1)] == [1, 2]


def _degree_window_mul(a, b):
    """The Cauchy product summed over the degree pairs i + j = n with i and
    j in a's and b's known ranges, one term at a time."""
    lo = a.min_degree + b.min_degree
    hi = min(a.truncation + b.min_degree, b.truncation + a.min_degree)
    out = []
    for n in range(lo, hi + 1):
        i0, i1 = max(a.min_degree, n - b.truncation), min(a.truncation, n - b.min_degree)
        out.append(sum(a.coeff(i) * b.coeff(n - i) for i in range(i0, i1 + 1)))
    return lo, out, hi


def test_series_mul_matches_the_degree_window_sum():
    rng = random.Random(34)
    for _ in range(300):
        a, b = (series_from_coeffs([rng.randint(0, 9) ** rng.randint(1, 30)
                                    for _ in range(rng.randint(1, 12))], rng.randint(-8, 4))
                for _ in range(2))
        p = series_mul(a, b)
        assert (p.min_degree, list(p.coeffs), p.truncation) == _degree_window_mul(a, b), (a, b)


def test_series_shift_and_equal():
    s = series_from_coeffs([1, 0, 2])
    t = series_shift(s, -3)
    assert t.min_degree == -3 and t.truncation == -1
    assert t.coeff(-3) == 1 and t.coeff(-1) == 2
    ok, mismatch = series_equal(s, series_from_coeffs([1, 0, 2]), up_to=2)
    assert ok and mismatch is None
    ok, mismatch = series_equal(s, series_from_coeffs([1, 1, 2]), up_to=2)
    assert not ok and mismatch == 1
    with pytest.raises(ValueError):
        series_equal(s, series_from_coeffs([1]), up_to=2)


def test_series_one():
    o = series_one(4)
    assert [o.coeff(n) for n in range(5)] == [1, 0, 0, 0, 0]


def test_series_bo_matches_partition_enumeration():
    for m in range(0, 7):
        s = series_BO(m, 30)
        for n in range(31):
            assert s.coeff(n) == _count_partitions(n, m) if m else s.coeff(n) == (1 if n == 0 else 0)


def test_series_bso_matches_partition_enumeration_parts_ge_2():
    for m in range(0, 7):
        s = series_BSO(m, 24)
        for n in range(25):
            expected = _count_partitions_min2(n, m) if m >= 2 else (1 if n == 0 else 0)
            assert s.coeff(n) == expected, (m, n)


def test_series_bo_bso_parts_above_n_change_nothing():
    # a part above N adds nothing up to degree N, so rank 10^6 reads as rank N
    assert series_BO(10 ** 6, 8) == series_BO(8, 8)
    assert series_BSO(10 ** 6, 8) == series_BSO(8, 8)


def test_series_bso3_low_degrees():
    # F2[w2, w3]: degree 5 = w2w3 only, degree 6 = w2^3 and w3^2
    s = series_BSO(3, 6)
    assert tuple(s.coeffs) == (1, 0, 1, 1, 1, 1, 2)


def test_grassmannian_matches_young_diagram_count_and_symmetry():
    for d in range(0, 7):
        for n in range(0, 7):
            s = series_grassmannian(d, n, d * n + 3)
            for k in range(d * n + 4):
                assert s.coeff(k) == _young_diagrams_in_box(d, n, k), (d, n, k)
            t = series_grassmannian(n, d, d * n + 3)
            assert s.coeffs == t.coeffs
    # boxes far larger than the truncation: one long side, or both
    for d, n, N in ((500, 1, 8), (1, 600, 8), (1200, 1, 8), (200, 200, 12)):
        s = series_grassmannian(d, n, N)
        assert [s.coeff(k) for k in range(N + 1)] == [_young_diagrams_in_box(d, n, k) for k in range(N + 1)]
        assert s == series_grassmannian(n, d, N), (d, n, N)


def test_grassmannian_zero_padding():
    s = series_grassmannian(1, 2, 10)
    assert tuple(s.coeffs) == (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# F2 linear algebra on row ints


def test_rank_against_naive_elimination_random():
    rng = random.Random(90125)
    for _ in range(200):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(1, 70)  # straddles the 64-bit word boundary
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        assert rank_f2(rows, ncols) == _naive_rank(rows, ncols)


def test_rref_properties_random():
    rng = random.Random(777)
    for _ in range(100):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 66)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        rank, pivots, ech = rref_f2(rows, ncols)
        assert rank == len(pivots) == len(ech)
        assert pivots == sorted(pivots)
        # reduced echelon: each pivot column has exactly one 1, in its own row
        for i, p in enumerate(pivots):
            for j, r in enumerate(ech):
                assert ((r >> p) & 1) == (1 if i == j else 0)
        # every original row reduces to zero against the echelon basis
        for r in rows:
            acc = r
            for p, e in zip(pivots, ech):
                if (acc >> p) & 1:
                    acc ^= e
            assert acc == 0
        # the echelon rows are independent
        assert _naive_rank(ech, ncols) == rank


def test_rank_edge_cases():
    assert rank_f2([], 5) == 0
    assert rank_f2([0, 0], 3) == 0
    assert rank_f2([1], 1) == 1


def test_transpose_bits_round_trip_and_example():
    cols = transpose_bits([0b01, 0b11], 2)
    assert cols == [0b11, 0b10]
    rng = random.Random(5)
    for _ in range(50):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(1, 130)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        cols = transpose_bits(rows, ncols)
        assert len(cols) == ncols
        back = transpose_bits(cols, max(nrows, 1))
        for i in range(nrows):
            assert back[i] == rows[i]
        for j in range(ncols):
            for i in range(nrows):
                assert ((cols[j] >> i) & 1) == ((rows[i] >> j) & 1)


def _phi_shaped_rows(rng, block_rows, block_cols, density):
    """Sparse zigzag-shaped matrix: row block j meets column blocks j-1 and j."""
    col_off = [0]
    for w in block_cols:
        col_off.append(col_off[-1] + w)
    rows = []
    for j, height in enumerate(block_rows):
        for _ in range(height):
            mask = 0
            for b in (j - 1, j):
                if 0 <= b < len(block_cols):
                    for c in range(block_cols[b]):
                        if rng.random() < density:
                            mask |= 1 << (col_off[b] + c)
            rows.append(mask)
    if rows:  # a dependent row, so rank < row count
        rows.append(rows[0] ^ rows[-1])
    return rows, col_off[-1]


def test_rank_sparse_phi_shaped_against_naive_and_transpose():
    rng = random.Random(2024)
    for _ in range(40):
        nblocks = rng.randint(3, 5)
        block_cols = [rng.randint(25, 40) for _ in range(nblocks)]
        block_rows = [rng.randint(5, 30) for _ in range(nblocks + 1)]
        rows, ncols = _phi_shaped_rows(rng, block_rows, block_cols, rng.choice([0.03, 0.1]))
        assert ncols > 64
        rank = rank_f2(rows, ncols)
        assert rank == _naive_rank(rows, ncols)
        assert rank == rank_f2(transpose_bits(rows, ncols), len(rows))


def test_rref_fixed_example():
    # bit k is column k; the third row is the sum of the first two
    rows = [
        0b00110,  # columns 1, 2
        0b01011,  # columns 0, 1, 3
        0b01101,  # columns 0, 2, 3
        0b11000,  # columns 3, 4
    ]
    assert rref_f2(rows, 5) == (3, [0, 1, 3], [0b10101, 0b00110, 0b11000])
    # columns 3 and 4 lie outside a 3-column matrix
    assert rref_f2(rows, 3) == (2, [0, 1], [0b101, 0b110])


# ---------------------------------------------------------------------------
# monomial bases and graded maps


def _brute_monomials(degrees, N, n):
    """All exponent tuples with weighted degree exactly n, via plain ranges."""
    import itertools

    ranges = [range(N // d + 1) for d in degrees]
    out = []
    for exps in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exps, degrees)) == n:
            out.append(exps)
    return out


def test_monomial_basis_dims_and_membership():
    basis = MonomialBasis([("w1", 1), ("w2", 2)], 10)
    bo2 = series_BO(2, 10)
    for n in range(11):
        level = basis.basis(n)
        assert basis.dim(n) == len(level) == bo2.coeff(n)
        assert sorted(level) == sorted(_brute_monomials([1, 2], 10, n))
        for i, mono in enumerate(level):
            assert basis.index(n, mono) == i


def test_monomial_basis_three_generators():
    basis = MonomialBasis([("a", 1), ("b", 2), ("c", 3)], 9)
    for n in range(10):
        assert sorted(basis.basis(n)) == sorted(_brute_monomials([1, 2, 3], 9, n))


def test_monomial_basis_is_lexicographic():
    """basis(n) is the lexicographically sorted list of exponent tuples of
    degree n, including generators above the truncation and N = 0, and
    index(n, .) inverts it."""
    import itertools

    for degrees in ([1], [2, 1, 3], [1, 1, 2, 2], [3, 7], [1, 5, 1], [4, 4, 4], []):
        for N in (0, 1, 4, 9):
            basis = MonomialBasis([(f"x{j}", d) for j, d in enumerate(degrees)], N)
            every = sorted(itertools.product(*(range(N // d + 1) for d in degrees)))
            for n in range(N + 1):
                want = [e for e in every if sum(a * d for a, d in zip(e, degrees)) == n]
                assert basis.basis(n) == want, (degrees, N, n)
                assert [basis.index(n, mono) for mono in want] == list(range(len(want)))


def test_graded_map_shapes_ranks():
    # degree 0: 1x1 identity; degree 1: both sources to target 0, rank 1;
    # degree 2: three targets, no sources
    gm = GradedMap(2, images=[[0], [0, 0], []], shapes=[(1, 1), (2, 2), (3, 0)])
    assert gm.rows == [[1], [0b11, 0], [0, 0, 0]]
    assert [rank_f2(gm.rows[n]) for n in range(3)] == [1, 1, 0]


def test_graded_map_validation():
    with pytest.raises(ValueError, match="one map per degree"):
        GradedMap(1, images=[[0]], shapes=[(1, 1)])  # missing degree 1
    with pytest.raises(ValueError, match="one map per degree"):
        GradedMap(1, images=[[0], []], shapes=[(1, 1)])  # missing shape
    with pytest.raises(ValueError, match="target index"):
        GradedMap(0, images=[[1]], shapes=[(1, 1)])  # target index >= target dim
    with pytest.raises(ValueError, match="target index"):
        GradedMap(0, images=[[0, -1]], shapes=[(2, 2)])  # negative target index
    with pytest.raises(ValueError, match="target index"):
        GradedMap(0, images=[[0]], shapes=[(0, 1)])  # no target to send to
    with pytest.raises(ValueError, match="images for"):
        GradedMap(0, images=[[0, 0]], shapes=[(1, 1)])  # more images than sources
    with pytest.raises(ValueError, match="images for"):
        GradedMap(1, images=[[0], []], shapes=[(1, 1), (1, 1)])  # fewer


def test_poincare_series_is_hashable_value_object():
    a = series_from_coeffs([1, 2])
    b = series_from_coeffs([1, 2])
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, PoincareSeries)
