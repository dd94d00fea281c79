"""Mod-2 cohomology rings of products of BO(m) and the two line-summing maps.

H*(BO(m); F2) is the symmetric polynomials in m classes of degree 1, with the
monomial symmetric functions m_lambda, lambda_1 >= ... >= lambda_m >= 0, as
basis (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  A
MonomialBasis on generators of degrees 1..m lists them: exponent tuple e is
lambda_j = e_j + ... + e_m, of the same degree.  A product of factors gets
the union of generators, factor by factor.  The zigzag spaces are

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
"""

from __future__ import annotations

from bisect import insort
from functools import cache, lru_cache
from itertools import accumulate

from .graded_f2 import DEFAULT_TRUNCATION, GradedMap, MonomialBasis


def _bo_product(ranks, N: int) -> MonomialBasis:
    """H*(BO(m_0) x BO(m_1) x ...) up to degree N."""
    return MonomialBasis(
        [(f"w{j}[{p}]", j) for p, m in enumerate(ranks) for j in range(1, m + 1)], N
    )


def _insert(e: tuple, k: int) -> tuple:
    """The exponent tuple of partition e with one more part, k."""
    parts = list(accumulate(reversed(e)))  # lambda_m' <= ... <= lambda_1
    insort(parts, k)
    return tuple(b - a for a, b in zip([0] + parts, parts))[::-1]


class RingMap:
    """A cohomology ring map between BO-product rings, one block Whitney-summed.

    send(mono) is the one domain basis element whose image contains codomain
    basis element mono, and images[n][r] is its index for the r-th codomain
    element of degree n.  So the image of domain element c is the sum of the
    codomain elements r with images[n][r] == c: the columns have disjoint
    supports that cover the codomain.  Read the other way, images is the
    induced homology map (source = codomain side, target = domain side).
    """

    def __init__(self, domain: MonomialBasis, codomain: MonomialBasis, send):
        self.domain = domain
        self.codomain = codomain
        self.images = [[index[send(mono)] for mono in codomain.basis(n)]
                       for n, index in enumerate(domain.positions)]

    def cohomology_rank(self, n: int) -> int:
        # disjoint column supports: the rank is the number of nonempty columns
        return len(set(self.images[n]))

    def homology_map(self) -> GradedMap:
        N = self.domain.N
        shapes = [(self.domain.dim(n), self.codomain.dim(n)) for n in range(N + 1)]
        return GradedMap(N, self.images, shapes)


# build_zigzag asks for f_0, g_0, f_1, g_1, ...: f_i and g_i share Y1(i), and
# g_i and f_{i+1} share Y(i+1), so one cached ring of each kind suffices.
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


def map_f(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i)) -> H*(Y1(i)): identity on BO(i), line summed into BO(d-i).

    m_mu * a^k * m_nu (codomain slots: BO(i), a, BO(d-i-1)) is in the image
    of m_mu * m_{nu + k} alone.
    """
    insert = cache(_insert)  # one memo per map build: block exponents recur
    return RingMap(build_Y(i, d, N), build_Y1(i, d, N),
                   lambda mono: mono[:i] + insert(mono[i + 1:], mono[i]))


def map_g(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i+1)) -> H*(Y1(i)): line summed into BO(i+1), identity on BO(d-i-1).

    m_mu * a^k * m_nu is in the image of m_{mu + k} * m_nu alone.
    """
    insert = cache(_insert)
    return RingMap(build_Y(i + 1, d, N), build_Y1(i, d, N),
                   lambda mono: insert(mono[:i], mono[i]) + mono[i + 1:])
