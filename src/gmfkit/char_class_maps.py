"""Mod-2 cohomology rings of products of BO(m) and the block-inclusion maps.

H*(BO(m); F2) is polynomial on classes w_1..w_m (degree j for w_j); a
product of factors gets the union of generators.  The zigzag spaces are

    Y(i)  = BO(i) x BO(d-i),
    Y1(i) = BO(i) x BO(1) x BO(d-i-1),

and the two maps out of Y1(i) classify splitting off a line from one block:
f: Y1(i) -> Y(i) is the identity on BO(i) and Whitney-sums the line into the
second block; g: Y1(i) -> Y(i+1) Whitney-sums the line into the first block.
On cohomology the Whitney formula gives w_j -> w'_j + a * w'_{j-1} on the
summed block.  Homology maps are the degreewise transposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graded_f2 import (
    DEFAULT_TRUNCATION,
    GradedMap,
    MonomialBasis,
    PoincareSeries,
    rank_f2,
    series_BO,
    series_BSO,
    series_mul,
    series_one,
)


class ProductSWRing:
    """Polynomial F2-algebra on the Stiefel-Whitney generators of a product."""

    def __init__(self, factors, N: int = DEFAULT_TRUNCATION):
        self.factors = tuple((str(kind), int(m)) for kind, m in factors)
        for kind, m in self.factors:
            if kind not in ("BO", "BSO"):
                raise ValueError(f"unknown factor kind {kind!r}")
            if m < 0:
                raise ValueError("factor rank must be nonnegative")
        self.N = int(N)
        gens = []
        slices = []
        for p, (kind, m) in enumerate(self.factors):
            start = len(gens)
            first = 1 if kind == "BO" else 2
            for j in range(first, m + 1):
                gens.append((f"w{j}[{p}]", j))
            slices.append((start, len(gens)))
        self.generators = tuple(gens)
        self.factor_slices = tuple(slices)
        self._monomials = MonomialBasis(gens, self.N)

    def basis(self, n: int):
        return self._monomials.basis(n)

    def index(self, n: int, mono: tuple) -> int:
        return self._monomials.index(n, mono)

    def dim(self, n: int) -> int:
        return self._monomials.dim(n)

    def series(self) -> PoincareSeries:
        out = series_one(self.N)
        for kind, m in self.factors:
            fac = series_BO(m, self.N) if kind == "BO" else series_BSO(m, self.N)
            out = series_mul(out, fac)
        return out

    def __repr__(self):
        desc = " x ".join(f"{kind}({m})" for kind, m in self.factors)
        return f"ProductSWRing({desc}, N={self.N})"


def poly_mul(P, Q) -> frozenset:
    """Product of two F2 polynomials given as sets of exponent tuples."""
    acc = set()
    for p in P:
        for q in Q:
            r = tuple(a + b for a, b in zip(p, q))
            if r in acc:
                acc.remove(r)
            else:
                acc.add(r)
    return frozenset(acc)


def _whitney_line_images(m: int, line_slot: int, block_slots):
    """Images of w_1..w_m of BO(m) under summing with a line bundle.

    The target has a degree-1 generator at line_slot and the block's
    w'_1..w'_{m-1} at block_slots (in order).  w_j -> w'_j + a*w'_{j-1},
    with w'_0 = 1 and w'_j = 0 for j > m-1.
    """
    nslots = 1 + len(block_slots)
    images = []
    for j in range(1, m + 1):
        terms = []
        if j <= m - 1:
            e = [0] * nslots
            e[block_slots[j - 1]] = 1
            terms.append(tuple(e))
        if j - 1 == 0:
            e = [0] * nslots
            e[line_slot] = 1
            terms.append(tuple(e))
        elif j - 1 <= m - 1:
            e = [0] * nslots
            e[line_slot] = 1
            e[block_slots[j - 2]] = 1
            terms.append(tuple(e))
        images.append(frozenset(terms))
    return images


def _hom_images(src_degrees, gen_images, N):
    """Images of all source monomials up to degree N for a ring hom."""
    basis = MonomialBasis([(f"g{j}", d) for j, d in enumerate(src_degrees)], N)
    k = len(src_degrees)
    nslots = len(next(iter(gen_images[0]))) if gen_images else 0
    unit = tuple([0] * nslots)
    images = {tuple([0] * k): frozenset({unit})}
    for n in range(1, N + 1):
        for mono in basis.basis(n):
            g = max(j for j in range(k) if mono[j] > 0)
            prev = list(mono)
            prev[g] -= 1
            images[mono] = poly_mul(images[tuple(prev)], gen_images[g])
    return images


class RingMap:
    """A cohomology ring map between product rings, one block Whitney-summed.

    gen_images lists, for each generator of the domain ring, its image as a
    set of codomain exponent tuples.  Per-degree matrices are assembled in
    column form: cohomology_columns(n)[c] has bit r set when the image of
    domain monomial c contains codomain monomial r.  The same data read as
    rows is the degreewise matrix of the induced homology map (target =
    domain side, source = codomain side).
    """

    def __init__(self, domain: ProductSWRing, codomain: ProductSWRing,
                 mapped_first: bool, mapped_len_dom: int, psi: dict):
        self.domain = domain
        self.codomain = codomain
        self._mapped_first = mapped_first
        self._mapped_len = mapped_len_dom
        self._psi = psi
        self._col_cache: dict = {}
        self.gen_images = self._build_gen_images()

    def _embed(self, small: tuple, other: tuple) -> tuple:
        if self._mapped_first:
            return small + other
        return other + small

    def _split(self, mono: tuple):
        if self._mapped_first:
            return mono[: self._mapped_len], mono[self._mapped_len :]
        ident = len(mono) - self._mapped_len
        return mono[ident:], mono[:ident]

    def _build_gen_images(self):
        out = []
        ngen = len(self.domain.generators)
        for j in range(ngen):
            mono = tuple(1 if jj == j else 0 for jj in range(ngen))
            out.append(self.image_of_monomial(mono))
        return out

    def image_of_monomial(self, mono: tuple) -> frozenset:
        mapped, ident = self._split(mono)
        return frozenset(self._embed(b, ident) for b in self._psi[mapped])

    def image_of_poly(self, poly) -> frozenset:
        acc = set()
        for mono in poly:
            for img in self.image_of_monomial(mono):
                if img in acc:
                    acc.remove(img)
                else:
                    acc.add(img)
        return frozenset(acc)

    def cohomology_columns(self, n: int):
        if n not in self._col_cache:
            cod = self.codomain
            cols = []
            for mono in self.domain.basis(n):
                mask = 0
                for img in self.image_of_monomial(mono):
                    mask |= 1 << cod.index(n, img)
                cols.append(mask)
            self._col_cache[n] = cols
        return self._col_cache[n]

    def cohomology_matrix(self, n: int):
        """Row bitmasks (rows = codomain basis, columns = domain basis)."""
        from .graded_f2 import transpose_bits

        cols = self.cohomology_columns(n)
        return transpose_bits(cols, self.codomain.dim(n)), (
            self.codomain.dim(n),
            self.domain.dim(n),
        )

    def cohomology_rank(self, n: int) -> int:
        return rank_f2(self.cohomology_columns(n), self.codomain.dim(n))

    def homology_map(self) -> GradedMap:
        N = self.domain.N
        rows = [list(self.cohomology_columns(n)) for n in range(N + 1)]
        shapes = [(self.domain.dim(n), self.codomain.dim(n)) for n in range(N + 1)]
        return GradedMap(N, rows, shapes)


@lru_cache(maxsize=None)
def build_Y(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> ProductSWRing:
    """H*(BO(i) x BO(d-i))."""
    if not (0 <= i <= d):
        raise ValueError("need 0 <= i <= d")
    return ProductSWRing([("BO", i), ("BO", d - i)], N)


@lru_cache(maxsize=None)
def build_Y1(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> ProductSWRing:
    """H*(BO(i) x BO(1) x BO(d-i-1))."""
    if not (0 <= i <= d - 1):
        raise ValueError("need 0 <= i <= d-1")
    return ProductSWRing([("BO", i), ("BO", 1), ("BO", d - i - 1)], N)


@lru_cache(maxsize=None)
def map_f(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i)) -> H*(Y1(i)): identity on BO(i), line summed into BO(d-i).

    On the second block w_j -> w'_j + a * w'_{j-1}; for j = d-i the image is
    a * w'_{d-i-1}.
    """
    dom = build_Y(i, d, N)
    cod = build_Y1(i, d, N)
    m = d - i
    # small codomain slots for the mapped block: [a, w'_1..w'_{m-1}]
    gen_imgs = _whitney_line_images(m, 0, list(range(1, m)))
    # RingMap images every generator, so psi must reach degree m even when N < m
    psi = _hom_images(list(range(1, m + 1)), gen_imgs, max(N, m)) if m else {(): frozenset({()})}
    return RingMap(dom, cod, mapped_first=False, mapped_len_dom=m, psi=psi)


@lru_cache(maxsize=None)
def map_g(i: int, d: int, N: int = DEFAULT_TRUNCATION) -> RingMap:
    """H*(Y(i+1)) -> H*(Y1(i)): line summed into BO(i+1), identity on BO(d-i-1).

    On the first block w_j -> w''_j + a * w''_{j-1}; for j = i+1 the image is
    a * w''_i.
    """
    dom = build_Y(i + 1, d, N)
    cod = build_Y1(i, d, N)
    m = i + 1
    # small codomain slots for the mapped block: [w''_1..w''_i, a]
    gen_imgs = _whitney_line_images(m, m - 1, list(range(0, m - 1)))
    # RingMap images every generator, so psi must reach degree m even when N < m
    psi = _hom_images(list(range(1, m + 1)), gen_imgs, max(N, m))
    return RingMap(dom, cod, mapped_first=True, mapped_len_dom=m, psi=psi)
