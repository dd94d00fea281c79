"""Exact graded bookkeeping over F2: truncated Poincare series and mod-2 ranks.

Series coefficients are Python ints (arbitrary precision, never floats).
A series knows the lowest degree it stores (may be negative, e.g. for
spectrum homology) and the truncation degree up to which its coefficients
are valid.  All arithmetic tracks the valid range explicitly.

The classifying-space series are truncated partition products, all computed
to degree N only: BO(m) and BSO(m) count partitions into parts 1..m and
2..m, and the Grassmannian multiplies BO(d) by the factors (1 - t^p),
p = n+1..n+d.  Rank and reduced row echelon form share one xor elimination.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from operator import mul

from ._record import record

DEFAULT_TRUNCATION = 32


# ---------------------------------------------------------------------------
# truncated Laurent series with nonnegative integer coefficients


@record
class PoincareSeries:
    """Coefficients for degrees min_degree..truncation inclusive."""

    min_degree: int
    coeffs: tuple
    truncation: int

    def __post_init__(self):
        if len(self.coeffs) != self.truncation - self.min_degree + 1:
            raise ValueError("coefficient count does not match degree range")
        for c in self.coeffs:
            if type(c) is not int or c < 0:
                raise ValueError("coefficients must be nonnegative integers")

    def coeff(self, n: int) -> int:
        """Coefficient at degree n; zero below min_degree, error above truncation."""
        if n > self.truncation:
            raise ValueError(f"degree {n} beyond truncation {self.truncation}")
        if n < self.min_degree:
            return 0
        return self.coeffs[n - self.min_degree]


def series_from_coeffs(coeffs: Sequence[int], min_degree: int = 0) -> PoincareSeries:
    coeffs = tuple(coeffs)
    return PoincareSeries(min_degree, coeffs, min_degree + len(coeffs) - 1)


def _check_truncation(N: int) -> None:
    # a series or basis up to degree N < 0 would be empty, not a truncation
    if N < 0:
        raise ValueError(f"truncation must be nonnegative, got {N}")


def series_one(N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    _check_truncation(N)
    return series_from_coeffs([1] + [0] * N)


def series_add(a: PoincareSeries, b: PoincareSeries) -> PoincareSeries:
    """Disjoint-union rule: plain coefficient sum, degree 0 included."""
    lo = min(a.min_degree, b.min_degree)
    hi = min(a.truncation, b.truncation)
    if hi < lo:
        raise ValueError("empty overlap of valid ranges")
    return series_from_coeffs([a.coeff(n) + b.coeff(n) for n in range(lo, hi + 1)], lo)


def series_mul(a: PoincareSeries, b: PoincareSeries) -> PoincareSeries:
    """Cauchy product (Kunneth rule for a product of spaces).

    The product coefficient at degree n is only fully determined when every
    contributing pair lies in the known ranges, so the result truncates at
    min(Na + mb, Nb + ma): it has as many coefficients as the shorter factor,
    and coefficient j sums a_i * b_(j-i) over i = 0..j, counted from each
    factor's min_degree.
    """
    lo = a.min_degree + b.min_degree
    hi = min(a.truncation + b.min_degree, b.truncation + a.min_degree)
    if hi < lo:
        raise ValueError("empty overlap of valid ranges")
    ac, rb = a.coeffs, b.coeffs[::-1]
    top = len(rb) - 1
    out = [sum(map(mul, ac[:j + 1], rb[top - j:])) for j in range(hi - lo + 1)]
    return series_from_coeffs(out, lo)


def series_shift(a: PoincareSeries, k: int) -> PoincareSeries:
    """Multiply by t**k (suspension by k, possibly negative)."""
    return PoincareSeries(a.min_degree + k, a.coeffs, a.truncation + k)


def series_equal(a: PoincareSeries, b: PoincareSeries, up_to: int | None = None):
    """Exact comparison on the common valid range.

    Returns (equal, first_mismatch_degree_or_None).  Coefficients below a
    series' min_degree count as zero; an up_to beyond either truncation is
    refused rather than compared against fabricated zeros.
    """
    hi = min(a.truncation, b.truncation)
    if up_to is not None:
        if up_to > hi:
            raise ValueError(f"comparison to degree {up_to} exceeds a truncation ({hi})")
        hi = up_to
    lo = min(a.min_degree, b.min_degree)
    for n in range(lo, hi + 1):
        if a.coeff(n) != b.coeff(n):
            return False, n
    return True, None


# ---------------------------------------------------------------------------
# classifying-space series


def _partition_counts(parts, N: int) -> PoincareSeries:
    """prod over parts k of 1/(1-t^k): partitions into the given parts, a
    part listed twice counted as two kinds."""
    _check_truncation(N)
    coeffs = [1] + [0] * N
    for part in parts:
        for n in range(part, N + 1):
            coeffs[n] += coeffs[n - part]
    return series_from_coeffs(coeffs)


def _check_rank(m: int) -> None:
    if m < 0:
        raise ValueError("rank must be nonnegative")


def series_BO(m: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """prod_{i=1..m} 1/(1-t^i): partition counts with parts <= m.

    Degree-n coefficient = dim_F2 H_n(BO(m)) = number of monomials of
    weighted degree n in generators of degrees 1..m.  A part above N changes
    no coefficient up to N, so only the parts up to min(m, N) are counted.
    """
    _check_rank(m)
    return _partition_counts(range(1, min(m, N) + 1), N)


def series_BSO(m: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """prod_{i=2..m} 1/(1-t^i): generators of degrees 2..m (empty for m <= 1)."""
    _check_rank(m)
    return _partition_counts(range(2, min(m, N) + 1), N)


def series_grassmannian(d: int, n: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """Gaussian binomial [d+n, d]_t: cells of the Grassmannian of d-planes in R^{d+n}.

    [d+n, d]_t = prod_{i=1..d} (1 - t^{n+i}) / (1 - t^i): series_BO(d, N)
    multiplied by each factor (1 - t^p), p = n+1..n+d, all to degree N.  A
    factor with p > N changes nothing up to N.  The polynomial has degree
    d*n, so the coefficients beyond it come out exactly zero.
    """
    if d < 0 or n < 0:
        raise ValueError("d, n must be nonnegative")
    coeffs = list(series_BO(d, N).coeffs)
    for p in range(n + 1, min(n + d, N) + 1):
        # from the top down, so coeffs[k - p] is still the previous factor's
        for k in range(N, p - 1, -1):
            coeffs[k] -= coeffs[k - p]
    return series_from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# F2 linear algebra on row bitmasks
#
# A matrix is a list of rows; each row is a Python int whose bit k is the
# entry in column k.  Rank and RREF share one elimination, an xor basis of
# row ints keyed by each basis row's lowest set bit, so a sparse row costs
# only the xors that actually touch it.


def _coerce_rows(rows, ncols: int | None) -> list:
    """The row ints cut to their first ncols bits (all bits if ncols is None)."""
    if ncols is None:
        return list(rows)
    mask = (1 << ncols) - 1
    return [r & mask for r in rows]


def _xor_basis(matrix, ncols: int | None) -> dict:
    """An xor basis of the row space: {lowest set bit: basis row}."""
    basis = {}
    for r in _coerce_rows(matrix, ncols):
        while r:
            low = (r & -r).bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = r
                break
            r ^= b
    return basis


def rank_f2(matrix, ncols: int | None = None) -> int:
    """Rank over F2 of a list of row ints."""
    return len(_xor_basis(matrix, ncols))


def rref_f2(matrix, ncols: int | None = None):
    """Reduced row echelon form.  Returns (rank, pivots, rref rows as ints).

    Pivots are the lowest set bits of the echelon rows, in increasing order.
    """
    basis = _xor_basis(matrix, ncols)
    pivots = sorted(basis)
    # back-substitute from the right: rows with higher pivots are final
    for i in range(len(pivots) - 2, -1, -1):
        r = basis[pivots[i]]
        for q in pivots[i + 1 :]:
            if (r >> q) & 1:
                r ^= basis[q]
        basis[pivots[i]] = r
    return len(pivots), pivots, [basis[p] for p in pivots]


def transpose_bits(rows: Sequence[int], ncols: int) -> list:
    """Transpose a bit matrix given as row ints; returns column ints."""
    cols = [0] * ncols
    for i, r in enumerate(rows):
        bit = 1 << i
        bits = bin(r)[:1:-1]  # bits[j] is column j
        j = bits.find("1", 0, ncols)
        while j >= 0:
            cols[j] |= bit
            j = bits.find("1", j + 1, ncols)
    return cols


# ---------------------------------------------------------------------------
# monomial bases and graded maps


def _monomials(degrees, N: int) -> list:
    """(exponent tuple, degree) of every monomial of degree <= N in generators
    of the given positive degrees, in lexicographic order: from the empty
    tuple, each generator from the last to the first puts its exponent e, in
    increasing order, in front of the listed suffixes whose degree still fits."""
    listed = [((), 0)]
    for deg in reversed(degrees):
        listed = [((e,) + rest, a + e * deg) for e in range(N // deg + 1)
                  for rest, a in listed if a + e * deg <= N]
    return listed


class MonomialBasis:
    """Monomials in weighted generators, listed degree by degree up to N.

    Generators are (label, degree) pairs; a monomial is an exponent tuple
    aligned with the generator list.  Enumeration order is deterministic
    (lexicographic in the exponent tuple, last generator varying fastest).
    """

    def __init__(self, generators: Sequence, N: int):
        self.generators = list(generators)
        self.degrees = [int(d) for (_, d) in self.generators]
        if any(d <= 0 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        _check_truncation(N)
        self.N = int(N)
        self._basis = [[] for _ in range(self.N + 1)]
        for mono, n in _monomials(self.degrees, self.N):
            self._basis[n].append(mono)
        # positions[n][mono] is the index of mono in basis(n)
        self.positions = [{mono: i for i, mono in enumerate(level)} for level in self._basis]

    def basis(self, n: int):
        if n < 0:
            return []
        if n > self.N:
            raise ValueError(f"degree {n} beyond built truncation {self.N}")
        return self._basis[n]

    def index(self, n: int, mono: tuple) -> int:
        return self.positions[n][mono]

    def dim(self, n: int) -> int:
        return len(self.basis(n))


@record
class GradedMap:
    """A map of graded F2 vector spaces, degrees 0..N, that sends each source
    basis element to one target basis element.

    images[n][s] is the target index of source basis element s in degree n;
    shapes[n] = (target dim, source dim).  rows is the same map as degreewise
    matrices of row bitmasks (rows = target basis, bit s = source element s).
    """

    N: int
    images: list
    shapes: list

    def __post_init__(self):
        if len(self.images) != self.N + 1 or len(self.shapes) != self.N + 1:
            raise ValueError("need one map per degree 0..N")
        for n, (img, (nt, ns)) in enumerate(zip(self.images, self.shapes)):
            if len(img) != ns:
                raise ValueError(f"degree {n}: {len(img)} images for {ns} source elements")
            if img and not 0 <= min(img) <= max(img) < nt:
                raise ValueError(f"degree {n}: target index outside 0..{nt - 1}")

    @cached_property
    def rows(self) -> list:
        rows = [[0] * nt for nt, _ in self.shapes]
        for level, img in zip(rows, self.images):
            for s, r in enumerate(img):
                level[r] |= 1 << s
        return rows
