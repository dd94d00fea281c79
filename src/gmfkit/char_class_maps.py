"""Mod-2 cohomology rings of products of BO(m) and the two line-summing maps.

H*(BO(m); F2) is the symmetric polynomials in m classes of degree 1, with the
monomial symmetric functions m_lambda, lambda_1 >= ... >= lambda_m >= 0, as
basis (Macdonald, Symmetric Functions and Hall Polynomials, I.2), on
generators of degrees 1..m: exponent tuple e is lambda_j = e_j + ... + e_m,
of the same degree.  A product of factors gets the union
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
lexicographic order and, under each element, the inner blocks' basis of
degree n minus its degree.  So, with start[mu] the index where the run
under mu begins and local[nu] the index of nu in its degree's basis,
line_maps walks Y1(i) once, mu then k then nu, and sends m_mu * a^k * m_nu

    by f to start[mu] + local[nu + k]  in Y(i)   = BO(i) x BO(d-i),
    by g to start[mu + k] + local[nu]  in Y(i+1) = BO(i+1) x BO(d-i-1).

The tables are BO(0..d), each its elements' degrees by position in the
lexicographic order a MonomialBasis lists (no basis, and no exponent tuple,
is built), and, for each m, the position in BO(m+1) of each element lambda
of BO(m) with one part k inserted: lambda + k.  One pass, m ascending,
lists BO(m+1) from BO(m) and fills the table BO(m) -> BO(m+1).  In
lexicographic order BO(m+1) is the pairs (c, lambda), c = 0..N outside and
lambda in BO(m)'s order inside, that fit in degree N: lambda with a new
largest part lambda_1 + c, exponent tuple (c,) + e.  So for k >= lambda_1,
lambda + k is the pair (k - lambda_1, lambda), whose position is recorded as
it is listed.  For k < lambda_1, lambda + k is lambda_1 put on top of
x = lambda-hat + k, lambda-hat being lambda less its largest part: x is
entry k of lambda-hat's row one table down, and lambda + k is entry lambda_1
of x's row, one recorded in this pass.
"""

from __future__ import annotations

import gc
from functools import cached_property, lru_cache, wraps
from itertools import accumulate, count

from .graded_f2 import (DEFAULT_TRUNCATION, GradedMap, MonomialBasis, _check_truncation,
                        _partition_counts)


def _bo_product(ranks, N: int) -> MonomialBasis:
    """H*(BO(m_0) x BO(m_1) x ...) up to degree N."""
    return MonomialBasis([(f"w{j}[{p}]", j) for p, m in enumerate(ranks) for j in range(1, m + 1)], N)


def _product_dims(ranks, N: int) -> tuple:
    """dim H_n(BO(m_0) x BO(m_1) x ...), n = 0..N: partitions into parts 1..min(m_p, N)."""
    return _partition_counts([k for m in ranks for k in range(1, min(m, N) + 1)], N).coeffs


class _Block:
    """H*(BO(m)) up to degree N, every degree at once in lexicographic order,
    the order a MonomialBasis lists each degree in, so local[p] is p's index
    in its degree's basis."""

    def __init__(self, degrees: list, N: int):
        self.degrees = degrees  # degrees[p]: the degree of element p
        self.local = []
        self.members = [[] for _ in range(N + 1)]  # positions by degree, in basis order
        for p, n in enumerate(degrees):
            level = self.members[n]
            self.local.append(len(level))
            level.append(p)
        self.dims = [len(level) for level in self.members]


def _gc_paused(build):
    """build, run with the cycle collector paused.  For builders of many
    lists and tuples that form no reference cycle: a collector pass over
    them frees nothing, and how many full passes fall inside the build
    depends on what was allocated before it.  The first pass after the build
    examines what it kept, once."""

    @wraps(build)
    def paused(*args):
        if not gc.isenabled():
            return build(*args)
        gc.disable()
        try:
            return build(*args)
        finally:
            gc.enable()
    return paused


# build_zigzag(d, N) reads one entry; a few shapes cover a CLI run
@lru_cache(maxsize=4)
@_gc_paused
def _tables(d: int, N: int) -> tuple:
    """BO(0..d), and the insertion tables BO(m) -> BO(m+1) for m = 0..d-1:
    table[p][k] is the position in BO(m+1) of p with a part k inserted, for
    k = 0..N - |p|."""
    _check_truncation(N)
    # tops[p]: p's largest part lambda_1; hats[p]: lambda-hat's position one
    # block down; below: the table into this block (BO(0) reads none of it)
    degrees, tops, hats, below = [0], [0], [0], [[]]
    blocks, insertions = [_Block(degrees, N)], []
    for _ in range(d):
        up_degrees, up_tops, up_hats = [], [], []
        tails = [[] for _ in degrees]  # tails[p][c]: the position of (c, p), c = k - lambda_1
        room = [N - a - t for a, t in zip(degrees, tops)]  # the largest c that fits
        kept = range(len(degrees))
        for c in range(N + 1):
            kept = [p for p in kept if room[p] >= c]
            for p, q in zip(kept, count(len(up_degrees))):
                tails[p].append(q)
            up_degrees += [N - room[p] + c for p in kept]
            up_tops += [tops[p] + c for p in kept]
            up_hats += kept
        # k < lambda_1: x = below[hat][k], and lambda + k is (lambda_1 - x_1, x)
        table = [[tails[x][t - tops[x]] for x in below[h][:min(t, N - a + 1)]] + tail
                 for tail, t, h, a in zip(tails, tops, hats, degrees)]
        insertions.append(table)
        degrees, tops, hats, below = up_degrees, up_tops, up_hats, table
        blocks.append(_Block(degrees, N))
    return blocks, insertions


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


def _starts(outer: _Block, inner_dims: list, n: int) -> list:
    """starts[p]: where the run under outer's element p begins in the degree-n
    basis of outer x inner, inner_dims[c] being the inner basis size in degree c."""
    width = inner_dims[n::-1] + [0] * (len(inner_dims) - 1 - n)  # by outer degree
    return list(accumulate(map(width.__getitem__, outer.degrees), initial=0))


def line_maps(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> tuple:
    """(map_f(i, d, N), map_g(i, d, N)), from one pass over Y1(i)'s basis.

    m_mu * a^k * m_nu (codomain slots: BO(i), a, BO(d-i-1)) is in the image
    of m_mu * m_{nu + k} alone under f, and of m_{mu + k} * m_nu alone under g.
    """
    if not (0 <= i <= d - 1):
        raise ValueError("need 0 <= i <= d-1")
    blocks, insertions = _tables(d, N)
    outer, inner, f_inner, g_outer = blocks[i], blocks[d - i - 1], blocks[d - i], blocks[i + 1]
    into_f, into_g = insertions[d - i - 1], insertions[i]
    # runs[c]: a^k * m_nu of degree c as (k, the nu of degree c - k), k ascending;
    # BO(0) has degree 0 only, so its empty runs are left out rather than walked
    runs = [[(k, inner.members[c - k]) for k in range(c + 1) if inner.members[c - k]]
            for c in range(N + 1)]
    f_runs = [[f_inner.local[into_f[nu][k]] for k, nus in run for nu in nus] for run in runs]
    f, g = [], []
    for n in range(N + 1):
        start_f, start_g = _starts(outer, f_inner.dims, n), _starts(g_outer, inner.dims, n)
        f_n, g_n = [], []
        for mu, a in enumerate(outer.degrees):
            if a <= n:
                f_n += map(start_f[mu].__add__, f_runs[n - a])
                row = into_g[mu]
                for k, nus in runs[n - a]:
                    s = start_g[row[k]]
                    g_n += range(s, s + len(nus))  # local[nu] counts up within a degree
        f.append(f_n)
        g.append(g_n)
    return RingMap(i, i, d, N, f), RingMap(i + 1, i, d, N, g)


def map_f(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i)) -> H*(Y1(i)): identity on BO(i), line summed into BO(d-i)."""
    return line_maps(i, d, N)[0]


def map_g(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i+1)) -> H*(Y1(i)): line summed into BO(i+1), identity on BO(d-i-1)."""
    return line_maps(i, d, N)[1]
