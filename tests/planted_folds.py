"""Seeded one-parameter families with planted folds, whose birth-death
events are known by construction.

f_t(x) = kappa y_1^3 - s(t) y_1 + sum_{i > 1} eps_i y_i^2, with y = A (x - c)
and A a random orthogonal matrix.  Its fiber gradient in y is
(3 kappa y_1^2 - s(t), 2 eps_i y_i), so the critical points of f_t are
y_1 = +-sqrt(s(t) / (3 kappa)), y_i = 0, wherever s(t) / kappa > 0.  A pair is
born or dies at each simple root of s, at x = c, with index #(eps_i < 0):
s(t) = t - a plants one event, s(t) = (t - a)(b - t) two.  The family is
expanded exactly into PolyFamily terms, with no gmfkit code involved.

The roots lie 0.01-0.04 past a value of the 41-point grid on [-1, 1], in
[-0.8, 0.8], a pair's one below 0 and one above.  |s| <= 1.8 on that window
and |kappa| >= 0.5, so |y_1| <= 1.1, and |c_j| <= 0.4 keeps every critical
point inside the box [-2, 2]^d.
"""

from __future__ import annotations

import math

import numpy as np

from gmfkit.family_analysis import PolyFamily

GRID_DT = 0.05  # the spacing of the 41-point grid on [-1, 1]


def _random_orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def _mul(p, q):
    """The product of two polynomials held as {exponent tuple: coefficient}."""
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            g = tuple(i + j for i, j in zip(e, f))
            out[g] = out.get(g, 0.0) + a * b
    return out


def _add(*terms):
    """The sum of (coefficient, polynomial) pairs."""
    out = {}
    for coeff, p in terms:
        for e, a in p.items():
            out[e] = out.get(e, 0.0) + coeff * a
    return out


def _root(rng, lo, hi):
    """A point 0.01-0.04 past a grid value of [lo, hi)."""
    k = int(rng.integers(0, round((hi - lo) / GRID_DT)))
    return lo + GRID_DT * k + float(rng.uniform(0.01, 0.04))


def planted_family(seed: int, d: int, pair: bool):
    """(family, events, points) for a planted family in fiber dimension d:
    its events as (t, x, index) sorted by t, and points(t), the array of its
    critical points at t.  pair plants a birth and a death."""
    rng = np.random.default_rng(seed)
    A = _random_orthogonal(rng, d)
    c = rng.uniform(-0.4, 0.4, size=d)
    kappa = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
    eps = rng.choice((-1.0, 1.0), size=d - 1) * rng.uniform(0.5, 2.0, size=d - 1)
    roots = [_root(rng, -0.8, 0.0), _root(rng, 0.0, 0.8)] if pair else [_root(rng, -0.8, 0.8)]

    def monomial(i):  # variable i of (t, x_1, ..., x_d)
        return {tuple(int(j == i) for j in range(d + 1)): 1.0}

    one = {(0,) * (d + 1): 1.0}
    # y_i = sum_j A_ij x_j - (A c)_i
    y = [_add((-float(A[i] @ c), one), *((float(A[i, j]), monomial(j + 1)) for j in range(d)))
         for i in range(d)]
    t = monomial(0)
    s = _add((1.0, t), (-roots[0], one))
    if pair:
        s = _mul(s, _add((-1.0, t), (roots[1], one)))
    f = _add((kappa, _mul(y[0], _mul(y[0], y[0]))), (-1.0, _mul(s, y[0])),
             *((float(e), _mul(yi, yi)) for e, yi in zip(eps, y[1:])))
    family = PolyFamily(1, d, tuple(sorted(f.items())))
    index = int(np.count_nonzero(eps < 0.0))

    def points(t):  # x = c + A^T y at y = (+-y_1, 0, ..., 0)
        s_t = (t - roots[0]) * (roots[1] - t if pair else 1.0)
        if s_t / kappa <= 0.0:
            return np.empty((0, d))
        y1 = math.sqrt(s_t / (3.0 * kappa))
        return np.array([c - y1 * A[0], c + y1 * A[0]])

    return family, [(a, c, index) for a in roots], points
