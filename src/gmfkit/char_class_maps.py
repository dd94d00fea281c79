"""Mod-2 cohomology rings of products of BO(m) and the two line-summing maps.

H*(BO(m); F2) is the symmetric polynomials in m classes of degree 1, with the
monomial symmetric functions m_lambda, lambda_1 >= ... >= lambda_m >= 0, as
basis (Macdonald, Symmetric Functions and Hall Polynomials, I.2), written
as exponent tuples on generators of degrees 1..m: tuple e is lambda_j =
e_j + ... + e_m, of the same degree.  A product of factors gets the union
of generators, factor by factor (build_Y, build_Y1, each a MonomialBasis
built only when read).  The zigzag spaces are

    Y(i)  = BO(i) x BO(d-i),
    Y1(i) = BO(i) x BO(1) x BO(d-i-1),

and the two maps out of Y1(i) classify splitting off a line from one block:
f: Y1(i) -> Y(i) is the identity on BO(i) and Whitney-sums the line into the
second block; g: Y1(i) -> Y(i+1) Whitney-sums the line into the first block.
Restriction along BO(1) x BO(m-1) -> BO(m) sets one variable to the line
class a: m_lambda -> sum_k a^k * m_{lambda - k} over the distinct parts k of
lambda (0 among them when lambda has fewer than m nonzero parts).  So
a^k * m_nu is in the image of m_{nu + k} alone, and homology, the degreewise
transpose, sends each basis element of Y1(i) to one of Y(i) or Y(i+1): the
line's part inserted into one block.

The index maps are built from single-block tables, not from the product
rings.  A product basis in degree n lists its outer block's elements in
lexicographic order and, under each element mu, the inner blocks' basis of
degree n - |mu|.  So, with q = d-i-1, an element (mu, k, nu) of Y1(i) goes

    by f to base(mu) + [index of nu + k in BO(q+1)], a run per mu that is
          the same list for every mu of the same degree, shifted;
    by g to off(mu + k) + [index of nu in BO(q)], a run of consecutive
          indices per (mu, k),

where base(mu) and off(lambda) count the Y(i) and Y(i+1) elements listed
before mu and lambda.  A g run is empty when n - |mu| - k is above the top
degree of BO(q), which is N unless q = 0, so g_levels skips those k.  The
tables are BO(0..d), each graded_f2's one lexicographic monomial list
(_Block reads _monomials, which MonomialBasis groups by degree; no
MonomialBasis is built), and, for each m, the position in BO(m+1) of each
element of BO(m) with one part k inserted.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate

from .graded_f2 import (DEFAULT_TRUNCATION, GradedMap, MonomialBasis, _check_truncation,
                        _monomials, _partition_counts)


def _bo_product(ranks, N: int) -> MonomialBasis:
    """H*(BO(m_0) x BO(m_1) x ...) up to degree N."""
    return MonomialBasis([(f"w{j}[{p}]", j) for p, m in enumerate(ranks) for j in range(1, m + 1)], N)


def _product_dims(ranks, N: int) -> tuple:
    """dim H_n(BO(m_0) x BO(m_1) x ...), n = 0..N: partitions into parts 1..m_p."""
    return _partition_counts([k for m in ranks for k in range(1, m + 1)], N).coeffs


class _Block:
    """H*(BO(m)) up to degree N, every degree at once in lexicographic order:
    _monomials' list, which a MonomialBasis groups by degree, so local[p] is
    p's index in its degree's basis."""

    def __init__(self, m: int, N: int):
        _check_truncation(N)
        # order[p]: an exponent tuple; degrees[p]: its degree; local[p]: its
        # index in that degree's basis
        self.order, self.degrees = (list(col) for col in zip(*_monomials(range(1, m + 1), N)))
        self.local = []
        self.members = [[] for _ in range(N + 1)]  # positions by degree, in basis order
        for p, n in enumerate(self.degrees):
            level = self.members[n]
            self.local.append(len(level))
            level.append(p)
        self.dims = [len(level) for level in self.members]


def _insertions(lower: _Block, upper: _Block, N: int) -> list:
    """table[p][k]: the position in upper of lower's element p with a part k
    inserted, for k = 0..N - |p|; upper is the block with one more part."""
    where = {e: p for p, e in enumerate(upper.order)}
    table = []
    for e, a in zip(lower.order, lower.degrees):
        lam = list(accumulate(reversed(e), initial=0))[::-1]  # lambda_1..lambda_m, 0
        j = len(e)  # the number of parts above k
        row = []
        for k in range(N - a + 1):
            while j and lam[j - 1] <= k:
                j -= 1
            # lambda_1..lambda_j > k >= lambda_{j+1}: e_j = lambda_j - lambda_{j+1}
            # splits at k, or k - lambda_1 becomes the first exponent when j = 0
            row.append(where[e[:j - 1] + (lam[j - 1] - k, k - lam[j]) + e[j:] if j
                             else (k - lam[0],) + e])
        table.append(row)
    return table


# build_zigzag(d, N) reads one entry; a few shapes cover a CLI run
@lru_cache(maxsize=4)
def _tables(d: int, N: int) -> tuple:
    """BO(0..d), and the insertion tables BO(m) -> BO(m+1) for m = 0..d-1."""
    blocks = [_Block(m, N) for m in range(d + 1)]
    return blocks, [_insertions(blocks[m], blocks[m + 1], N) for m in range(d)]


class RingMap:
    """A cohomology ring map H*(Y(j)) -> H*(Y1(i)), one block Whitney-summed.

    images[n][r] is the index of the one domain basis element of degree n
    whose image contains the r-th codomain element.  So the image of domain
    element c is the sum of the codomain elements r with images[n][r] == c:
    the columns have disjoint supports that cover the codomain.  Read the
    other way, images is the induced homology map (source = codomain side,
    target = domain side).  The rings themselves are built only when read.
    """

    def __init__(self, j: int, i: int, d: int, N: int, images: list):
        self.j, self.i, self.d, self.N = j, i, d, N
        self.images = images

    @cached_property
    def domain(self) -> MonomialBasis:
        return build_Y(self.j, self.d, self.N)

    @cached_property
    def codomain(self) -> MonomialBasis:
        return build_Y1(self.i, self.d, self.N)

    def cohomology_rank(self, n: int) -> int:
        # disjoint column supports: the rank is the number of nonempty columns
        return len(set(self.images[n]))

    def homology_map(self) -> GradedMap:
        j, i, d, N = self.j, self.i, self.d, self.N
        shapes = zip(_product_dims((j, d - j), N), _product_dims((i, 1, d - i - 1), N))
        return GradedMap(N, self.images, list(shapes))


# the tests and criterion 4 read the rings of f_0, g_0, f_1, ... in turn:
# g_i and f_{i+1} share Y(i+1), so one cached ring of each kind suffices
@lru_cache(maxsize=1)
def build_Y(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> MonomialBasis:
    """H*(BO(i) x BO(d-i))."""
    if not (0 <= i <= d):
        raise ValueError("need 0 <= i <= d")
    return _bo_product([i, d - i], N)


@lru_cache(maxsize=1)
def build_Y1(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> MonomialBasis:
    """H*(BO(i) x BO(1) x BO(d-i-1))."""
    if not (0 <= i <= d - 1):
        raise ValueError("need 0 <= i <= d-1")
    return _bo_product([i, 1, d - i - 1], N)


def _line_tables(i: int, d: int, N: int) -> tuple:
    """_tables(d, N) for a line split off Y1(i)."""
    if not (0 <= i <= d - 1):
        raise ValueError("need 0 <= i <= d-1")
    return _tables(d, N)


def f_levels(i: int, d: int, N: int = DEFAULT_TRUNCATION):
    """map_f(i, d, N).images, degree n's list made when the generator reaches it.

    m_mu * a^k * m_nu (codomain slots: BO(i), a, BO(d-i-1)) is in the image
    of m_mu * m_{nu + k} alone.
    """
    blocks, insertions = _line_tables(i, d, N)
    outer, inner, upper = blocks[i], blocks[d - i - 1], blocks[d - i]
    ins = insertions[d - i - 1]
    run = []  # run[c]: the BO(d-i) index of nu + k, for (k, nu) of degree c in Y1 order
    for n in range(N + 1):
        run.append([upper.local[ins[p][k]] for k in range(n + 1) for p in inner.members[n - k]])
        level, base = [], 0
        for a in outer.degrees:
            if a <= n:
                level += map(base.__add__, run[n - a])
                base += upper.dims[n - a]
        yield level


def g_levels(i: int, d: int, N: int = DEFAULT_TRUNCATION):
    """map_g(i, d, N).images, one degree at a time, as f_levels.

    m_mu * a^k * m_nu is in the image of m_{mu + k} * m_nu alone.
    """
    blocks, insertions = _line_tables(i, d, N)
    outer, inner, upper = blocks[i], blocks[d - i - 1], blocks[i + 1]
    ins = insertions[i]
    top = max(inner.degrees)  # 0 for BO(0), N otherwise
    low = []
    for n in range(N + 1):
        # off[p]: the index in Y(i+1)_n where the run under upper's element p starts
        width = inner.dims[n::-1] + [0] * (N - n)
        off = list(accumulate(map(width.__getitem__, upper.degrees), initial=0))
        # (p, insertion row, degree) of outer's elements of degree <= n, in order
        low = sorted(low + [(p, ins[p], n) for p in outer.members[n]])
        level = []
        for _, row, a in low:
            c = n - a
            # the runs of inner degree c - k above top are empty
            for k in range(c - top if c > top else 0, c + 1):
                o = off[row[k]]
                level += range(o, o + inner.dims[c - k])
        yield level


def map_f(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i)) -> H*(Y1(i)): identity on BO(i), line summed into BO(d-i)."""
    return RingMap(i, i, d, N, list(f_levels(i, d, N)))


def map_g(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i+1)) -> H*(Y1(i)): line summed into BO(i+1), identity on BO(d-i-1)."""
    return RingMap(i + 1, i, d, N, list(g_levels(i, d, N)))
