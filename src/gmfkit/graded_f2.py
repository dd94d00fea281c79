"""Exact graded bookkeeping over F2: truncated Poincare series and mod-2 ranks.

Series coefficients are Python ints (arbitrary precision, never floats).
A series knows the lowest degree it stores (may be negative, e.g. for
spectrum homology) and the truncation degree up to which its coefficients
are valid.  All arithmetic tracks the valid range explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

DEFAULT_TRUNCATION = 32


# ---------------------------------------------------------------------------
# truncated Laurent series with nonnegative integer coefficients


@dataclass(frozen=True)
class PoincareSeries:
    """Coefficients for degrees min_degree..truncation inclusive."""

    min_degree: int
    coeffs: tuple
    truncation: int

    def __post_init__(self):
        if len(self.coeffs) != self.truncation - self.min_degree + 1:
            raise ValueError("coefficient count does not match degree range")
        for c in self.coeffs:
            if not isinstance(c, int) or c < 0:
                raise ValueError("coefficients must be nonnegative integers")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def coeff(self, n: int) -> int:
        """Coefficient at degree n; zero below min_degree, error above truncation."""
        if n > self.truncation:
            raise ValueError(f"degree {n} beyond truncation {self.truncation}")
        if n < self.min_degree:
            return 0
        return self.coeffs[n - self.min_degree]

    def to_text(self) -> str:
        return " ".join(f"{n}:{self.coeff(n)}" for n in range(self.min_degree, self.truncation + 1))

    def to_json_dict(self) -> dict:
        return {
            "min_degree": self.min_degree,
            "coeffs": list(self.coeffs),
            "truncation": self.truncation,
        }


def series_from_coeffs(coeffs: Sequence[int], min_degree: int = 0) -> PoincareSeries:
    coeffs = [int(c) for c in coeffs]
    return PoincareSeries(min_degree, tuple(coeffs), min_degree + len(coeffs) - 1)


def _check_truncation(N: int) -> None:
    # a series or basis up to degree N < 0 would be empty, not a truncation
    if N < 0:
        raise ValueError(f"truncation must be nonnegative, got {N}")


def series_zero(N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    _check_truncation(N)
    return series_from_coeffs([0] * (N + 1))


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
    min(Na + mb, Nb + ma).
    """
    lo = a.min_degree + b.min_degree
    hi = min(a.truncation + b.min_degree, b.truncation + a.min_degree)
    if hi < lo:
        raise ValueError("empty overlap of valid ranges")
    out = []
    for n in range(lo, hi + 1):
        s = 0
        for i in range(a.min_degree, a.truncation + 1):
            j = n - i
            if j < b.min_degree:
                break
            if j > b.truncation:
                continue
            s += a.coeffs[i - a.min_degree] * b.coeff(j)
        out.append(s)
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
            raise ValueError(
                f"comparison to degree {up_to} exceeds a truncation ({hi})"
            )
        hi = up_to
    lo = min(a.min_degree, b.min_degree)
    for n in range(lo, hi + 1):
        if a.coeff(n) != b.coeff(n):
            return False, n
    return True, None


# ---------------------------------------------------------------------------
# classifying-space series


def _partition_counts(smallest: int, m: int, N: int) -> PoincareSeries:
    """prod_{i=smallest..m} 1/(1-t^i): partitions into parts in smallest..m."""
    if m < 0:
        raise ValueError("rank must be nonnegative")
    _check_truncation(N)
    coeffs = [1] + [0] * N
    for part in range(smallest, m + 1):
        for n in range(part, N + 1):
            coeffs[n] += coeffs[n - part]
    return series_from_coeffs(coeffs)


def series_BO(m: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """prod_{i=1..m} 1/(1-t^i): partition counts with parts <= m.

    Degree-n coefficient = dim_F2 H_n(BO(m)) = number of monomials of
    weighted degree n in generators of degrees 1..m.
    """
    return _partition_counts(1, m, N)


def series_BSO(m: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """prod_{i=2..m} 1/(1-t^i): generators of degrees 2..m (empty for m <= 1)."""
    return _partition_counts(2, m, N)


@lru_cache(maxsize=None)
def _gauss_poly(m: int, k: int) -> tuple:
    # q-Pascal recurrence [m,k] = [m-1,k-1] + t^k [m-1,k]
    if k < 0 or k > m:
        return (0,)
    if k == 0 or k == m:
        return (1,)
    a = _gauss_poly(m - 1, k - 1)
    b = _gauss_poly(m - 1, k)
    out = [0] * (k * (m - k) + 1)
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i + k] += c
    return tuple(out)


def series_grassmannian(d: int, n: int, N: int = DEFAULT_TRUNCATION) -> PoincareSeries:
    """Gaussian binomial [d+n, d]_t: cells of the Grassmannian of d-planes in R^{d+n}.

    The polynomial has degree d*n; coefficients beyond it are exactly zero,
    so the result is padded with zeros up to N.
    """
    if d < 0 or n < 0:
        raise ValueError("d, n must be nonnegative")
    _check_truncation(N)
    poly = list(_gauss_poly(d + n, d))
    coeffs = [poly[i] if i < len(poly) else 0 for i in range(N + 1)]
    return series_from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# F2 linear algebra on row bitmasks
#
# A matrix is a list of rows; each row is a Python int whose bit k is the
# entry in column k.  Eliminations keep an xor basis of row ints keyed by
# each basis row's leading bit, so a sparse row costs only the xors that
# actually touch it.


def _coerce_rows(rows, ncols: int | None) -> list:
    """The row ints cut to their first ncols bits (all bits if ncols is None)."""
    if ncols is None:
        return list(rows)
    mask = (1 << ncols) - 1
    return [r & mask for r in rows]


def rank_f2(matrix, ncols: int | None = None) -> int:
    """Rank over F2 of a list of row ints."""
    rows = _coerce_rows(matrix, ncols)
    basis = {}  # highest set bit -> basis row
    for r in rows:
        while r:
            top = r.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    return len(basis)


def rref_f2(matrix, ncols: int | None = None):
    """Reduced row echelon form.  Returns (rank, pivots, rref rows as ints).

    Pivots are the lowest set bits of the echelon rows, in increasing order.
    """
    rows = _coerce_rows(matrix, ncols)
    basis = {}  # lowest set bit -> basis row
    for r in rows:
        while r:
            low = (r & -r).bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = r
                break
            r ^= b
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
        self._enumerate()
        self._index = [
            {mono: i for i, mono in enumerate(level)} for level in self._basis
        ]

    def _enumerate(self):
        degs = self.degrees
        k = len(degs)
        exps = [0] * k
        basis = self._basis
        N = self.N

        def rec(pos: int, total: int):
            if pos == k:
                basis[total].append(tuple(exps))
                return
            d = degs[pos]
            emax = (N - total) // d
            for e in range(emax + 1):
                exps[pos] = e
                rec(pos + 1, total + e * d)
            exps[pos] = 0

        rec(0, 0)

    def basis(self, n: int):
        if n < 0:
            return []
        if n > self.N:
            raise ValueError(f"degree {n} beyond built truncation {self.N}")
        return self._basis[n]

    def index(self, n: int, mono: tuple) -> int:
        return self._index[n][mono]

    def dim(self, n: int) -> int:
        return len(self.basis(n))


@dataclass
class GradedMap:
    """Degreewise F2 matrices of a map of graded vector spaces, degrees 0..N.

    rows[n] is a list of row bitmasks (rows = target basis, bit j = source
    basis element j); shape[n] = (target dim, source dim).
    """

    N: int
    rows: list = field(default_factory=list)
    shapes: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.rows) != self.N + 1 or len(self.shapes) != self.N + 1:
            raise ValueError("need one matrix per degree 0..N")
        for n in range(self.N + 1):
            nr, nc = self.shapes[n]
            if len(self.rows[n]) != nr:
                raise ValueError(f"degree {n}: row count {len(self.rows[n])} != {nr}")
            for r in self.rows[n]:
                if r >> nc:
                    raise ValueError(f"degree {n}: row has bits beyond {nc} columns")

    def rank(self, n: int) -> int:
        return rank_f2(self.rows[n], self.shapes[n][1])
