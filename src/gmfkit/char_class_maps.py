"""Mod-2 cohomology rings of products of BO(m) and the two line-summing maps.

H*(BO(m); F2) is polynomial on classes w_1..w_m (degree j for w_j); a
product of factors gets the union of generators, factor by factor.  The
zigzag spaces are

    Y(i)  = BO(i) x BO(d-i),
    Y1(i) = BO(i) x BO(1) x BO(d-i-1),

and the two maps out of Y1(i) classify splitting off a line from one block:
f: Y1(i) -> Y(i) is the identity on BO(i) and Whitney-sums the line into the
second block; g: Y1(i) -> Y(i+1) Whitney-sums the line into the first block.
Both are one operation on cohomology, the Whitney expansion
w_j -> w'_j + a * w'_{j-1} from H*(BO(m)) into H*(BO(1) x BO(m-1)), which
_whitney works out once per block rank m and truncation N.  Homology maps
are the degreewise transposes.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .graded_f2 import DEFAULT_TRUNCATION, GradedMap, MonomialBasis, rank_f2


def _bo_product(ranks, N: int) -> MonomialBasis:
    """H*(BO(m_0) x BO(m_1) x ...) up to degree N."""
    return MonomialBasis(
        [(f"w{j}[{p}]", j) for p, m in enumerate(ranks) for j in range(1, m + 1)], N
    )


@lru_cache(maxsize=64)
def _whitney(m: int, N: int) -> dict:
    """Images of the H*(BO(m)) monomials of degree <= N in H*(BO(1) x BO(m-1)).

    Keys are exponent tuples on w_1..w_m; each value is the frozenset of exponent
    tuples on (a, w'_1, ..., w'_{m-1}) whose F2 sum is the image, built from
    w_j -> w'_j + a * w'_{j-1} with w'_0 = 1 and w'_m = 0.
    """
    def slots(*ks):
        return tuple(int(k in ks) for k in range(m))

    # a * w'_{j-1} sits at slots 0 and j-1 (slot 0 alone for j = 1), w'_j at slot j
    gens = [[slots(0, j - 1)] + ([slots(j)] if j < m else []) for j in range(1, m + 1)]
    unit = slots()
    images = {unit: frozenset({unit})}
    source = _bo_product([m], N)
    for n in range(1, N + 1):
        for mono in source.basis(n):
            # peel one factor of the last generator present off a lower monomial
            g = max(j for j in range(m) if mono[j])
            prev = images[mono[:g] + (mono[g] - 1,) + mono[g + 1:]]
            acc = frozenset()
            for t in gens[g]:
                acc ^= {tuple(map(add, p, t)) for p in prev}
            images[mono] = acc
    return images


class RingMap:
    """A cohomology ring map between BO-product rings, one block Whitney-summed.

    image(mono) lists the codomain monomials whose F2 sum is the image of
    the domain monomial mono.  columns[n][c] has bit r set when the image of
    domain monomial c of degree n contains codomain monomial r.  The same
    data read as rows is the degreewise matrix of the induced homology map
    (target = domain side, source = codomain side).
    """

    def __init__(self, domain: MonomialBasis, codomain: MonomialBasis, image):
        self.domain = domain
        self.codomain = codomain
        index = codomain.index
        self.columns = [
            [sum(1 << index(n, img) for img in image(mono)) for mono in domain.basis(n)]
            for n in range(domain.N + 1)
        ]

    def cohomology_rank(self, n: int) -> int:
        return rank_f2(self.columns[n], self.codomain.dim(n))

    def homology_map(self) -> GradedMap:
        N = self.domain.N
        shapes = [(self.domain.dim(n), self.codomain.dim(n)) for n in range(N + 1)]
        return GradedMap(N, self.columns, shapes)


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

    On the second block w_j -> w'_j + a * w'_{j-1}; for j = d-i the image is
    a * w'_{d-i-1}.
    """
    dom, cod = build_Y(i, d, N), build_Y1(i, d, N)
    W = _whitney(d - i, N)
    # codomain slots: BO(i), then (a, w'_1..w'_{d-i-1}) as _whitney lists them
    return RingMap(dom, cod, lambda mono: [mono[:i] + b for b in W[mono[i:]]])


def map_g(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i+1)) -> H*(Y1(i)): line summed into BO(i+1), identity on BO(d-i-1).

    On the first block w_j -> w''_j + a * w''_{j-1}; for j = i+1 the image is
    a * w''_i.
    """
    dom, cod = build_Y(i + 1, d, N), build_Y1(i, d, N)
    m = i + 1
    W = _whitney(m, N)
    # codomain slots: w''_1..w''_i, a, BO(d-i-1): the line slot moves to the end
    return RingMap(dom, cod, lambda mono: [b[1:] + b[:1] + mono[m:] for b in W[mono[:m]]])
