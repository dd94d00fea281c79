"""Jet evaluation, spectral stratification, and the birth-death normal form,
checked against independently-routed oracles (general eigensolver + SVD kernel
+ dense-tensor contraction instead of the library's symmetric paths)."""

from __future__ import annotations

import importlib.util
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gmfkit import jet_core
from gmfkit.cli import main
from gmfkit.family_analysis import CLASSIFY_TOL, EVENT_TOL
from gmfkit.jet_core import (
    BIRTH_DEATH,
    DEGENERATE,
    KERNEL_CUBIC_VANISHES,
    KERNEL_DIM_AT_LEAST_2,
    NONDEGENERATE,
    REGULAR,
    Jet3,
    birth_death_linear_normal_form,
    classify,
    classify_parts,
    compose_linear,
    cubic_tensor,
    evaluate,
    jet_from_json_dict,
    jet_from_parts,
    jet_to_json_dict,
    restrict_cubic,
    scale,
    spectral_split,
)

# ---------------------------------------------------------------------------
# oracles


def _dense_cubic(jet: Jet3) -> np.ndarray:
    """Dense cubic tensor read straight off the sorted-triple dict."""
    d = jet.dim
    T = np.zeros((d, d, d))
    for a in range(1, d + 1):
        for b in range(1, d + 1):
            for c in range(1, d + 1):
                i, j, k = sorted((a, b, c))
                T[a - 1, b - 1, c - 1] = jet.cubic.get((i, j, k), 0.0)
    return T


def _naive_value(jet: Jet3, x) -> float:
    """Term-by-term summation with explicit loops, no multiplicity bookkeeping."""
    x = np.asarray(x, dtype=float)
    d = jet.dim
    val = jet.constant
    for a in range(d):
        val += jet.linear[a] * x[a]
    for a in range(d):
        for b in range(d):
            val += jet.quadratic[a, b] * x[a] * x[b]
    T = _dense_cubic(jet)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                val += T[a, b, c] * x[a] * x[b] * x[c]
    return val


def _oracle_scale(jet: Jet3) -> float:
    m = abs(jet.constant)
    for v in jet.linear:
        m = max(m, abs(v))
    for v in jet.quadratic.reshape(-1):
        m = max(m, abs(v))
    for v in jet.cubic.values():
        m = max(m, abs(v))
    return max(1.0, m)


def _oracle_sign_counts(q, tol):
    """Eigenvalue sign counts via the general (non-symmetric) solver."""
    w = np.linalg.eigvals(np.asarray(q, dtype=float)).real
    thresh = tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    neg = int(np.sum(w < -thresh))
    zero = int(np.sum(np.abs(w) <= thresh))
    pos = int(np.sum(w > thresh))
    return neg, zero, pos


def _oracle_classify(jet: Jet3, tol: float = 1e-9):
    """(kind, index, reason) by an independent route: general eigensolver for
    the split, SVD for the kernel direction, dense contraction for the cubic."""
    s = _oracle_scale(jet)
    if float(np.sqrt(np.sum(jet.linear ** 2))) > tol * s:
        return (REGULAR, None, None)
    neg, zero, _ = _oracle_sign_counts(jet.quadratic, tol)
    if zero == 0:
        return (NONDEGENERATE, neg, None)
    if zero == 1:
        _, _, vt = np.linalg.svd(jet.quadratic)
        v = vt[-1]  # right singular vector of the smallest singular value
        T = _dense_cubic(jet)
        val = float(np.einsum("abc,a,b,c->", T, v, v, v))
        if abs(val) > tol * s:
            return (BIRTH_DEATH, neg, None)
        return (DEGENERATE, None, KERNEL_CUBIC_VANISHES)
    return (DEGENERATE, None, KERNEL_DIM_AT_LEAST_2)


def _as_tuple(cls):
    return (cls.kind, cls.index, cls.reason)


def _random_orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def _random_jet(rng, d):
    quad = rng.normal(size=(d, d))
    quad = (quad + quad.T) / 2.0
    T = rng.normal(size=(d, d, d))
    T = sum(T.transpose(p) for p in
            [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6.0
    return jet_from_parts(d, rng.normal(), rng.normal(size=d), quad, T)


def _stratified_jet(rng, d, stratum):
    """Build a jet in a named stratum with eigenvalues far from the zero
    threshold, then hide the structure behind a random rotation."""
    eigs = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    cubic = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for k in range(j, d + 1):
                cubic[(i, j, k)] = rng.uniform(-1.0, 1.0)
    lin = np.zeros(d)
    if stratum == "regular":
        lin = rng.normal(size=d)
        lin *= (0.1 + abs(rng.normal())) / np.linalg.norm(lin)
    elif stratum == "birth-death":
        eigs[0] = 0.0
        cubic[(1, 1, 1)] = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    elif stratum == "kernel-cubic-vanishes":
        eigs[0] = 0.0
        cubic[(1, 1, 1)] = 0.0
    elif stratum == "kernel-dim-2":
        if d < 2:
            raise ValueError("needs d >= 2")
        eigs[0] = eigs[1] = 0.0
    base = Jet3(d, rng.normal(), lin, np.diag(eigs), cubic)
    return compose_linear(base, _random_orthogonal(rng, d))


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_hand_values():
    cube = Jet3(1, 0.0, [0.0], [[0.0]], {(1, 1, 1): 1.0})
    assert evaluate(cube, [2.0]) == 8.0

    nf = Jet3(3, 0.0, np.zeros(3), np.diag([0.0, -1.0, 1.0]), {(1, 1, 1): 1.0})
    assert evaluate(nf, [1.0, 1.0, 1.0]) == 1.0

    # ordered-pair quadratic convention: x q x, both off-diagonal slots count
    q = np.array([[1.0, 2.0], [2.0, 5.0]])
    jq = Jet3(2, 0.0, np.zeros(2), q, {})
    assert evaluate(jq, [1.0, 1.0]) == 10.0

    # a sorted triple with 3 distinct permutations contributes coeff*3*monomial
    jc = Jet3(2, 0.0, np.zeros(2), np.zeros((2, 2)), {(1, 1, 2): 2.0})
    assert evaluate(jc, [2.0, 3.0]) == 2.0 * 3 * 4.0 * 3.0


def test_evaluate_against_naive_summation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        jet = _random_jet(rng, d)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=d)
            a, b = evaluate(jet, x), _naive_value(jet, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_evaluate_linear_in_coefficients():
    """Superposition: the value is linear in every stored coefficient."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        ja, jb = _random_jet(rng, d), _random_jet(rng, d)
        merged = dict(ja.cubic)
        for k, v in jb.cubic.items():
            merged[k] = merged.get(k, 0.0) + v
        js = Jet3(d, ja.constant + jb.constant, ja.linear + jb.linear,
                  ja.quadratic + jb.quadratic, merged)
        x = rng.uniform(-1.5, 1.5, size=d)
        lhs = evaluate(js, x)
        rhs = evaluate(ja, x) + evaluate(jb, x)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
        half = Jet3(d, 0.5 * ja.constant, 0.5 * ja.linear, 0.5 * ja.quadratic,
                    {k: 0.5 * v for k, v in ja.cubic.items()})
        assert abs(evaluate(half, x) - 0.5 * evaluate(ja, x)) <= 1e-11


def test_cubic_tensor_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        jet = _random_jet(rng, d)
        assert np.array_equal(cubic_tensor(jet), _dense_cubic(jet))
        back = jet_from_parts(d, jet.constant, jet.linear, jet.quadratic,
                              cubic_tensor(jet))
        assert back.cubic.keys() == jet.cubic.keys()
        for k in jet.cubic:
            assert back.cubic[k] == pytest.approx(jet.cubic[k], abs=0, rel=1e-15)


def test_compose_linear_matches_pointwise():
    rng = np.random.default_rng(31)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        jet = _random_jet(rng, d)
        M = rng.normal(size=(d, d))
        sub = compose_linear(jet, M)
        x = rng.uniform(-1.0, 1.0, size=d)
        lhs = evaluate(sub, x)
        rhs = evaluate(jet, M @ x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def _einsum_compose(jet: Jet3, M) -> Jet3:
    """compose_linear's partner: T(M., M., M.) as one four-operand einsum, then symmetrised."""
    T = np.einsum("abc,au,bv,cw->uvw", _dense_cubic(jet), M, M, M)
    T = sum(T.transpose(p) for p in
            [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]) / 6.0
    return jet_from_parts(jet.dim, jet.constant, M.T @ jet.linear,
                          M.T @ jet.quadratic @ M, T)


def test_compose_linear_keeps_every_float_of_the_dense_route():
    """compose_linear symmetrises only at the sorted triples; the dense route
    (symmetrise the whole contracted tensor, then read the sorted triples)
    gives the same floats."""
    rng = np.random.default_rng(37)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        jet, M = _random_jet(rng, d), rng.normal(size=(d, d))
        T = _dense_cubic(jet)
        for _ in range(3):
            T = T.reshape(d, d * d).T @ M
        T = T.reshape(d, d, d)
        T = (T + T.transpose(0, 2, 1) + T.transpose(1, 0, 2)
             + T.transpose(1, 2, 0) + T.transpose(2, 0, 1) + T.transpose(2, 1, 0)) / 6.0
        got = compose_linear(jet, M)
        assert got.cubic == jet_from_parts(d, 0.0, np.zeros(d), np.zeros((d, d)), T).cubic
        assert list(got.cubic) == sorted(got.cubic)


def test_compose_linear_matches_the_einsum_partner():
    rng = np.random.default_rng(71)
    strata = ("regular", "nondegenerate", "birth-death", "kernel-cubic-vanishes", "kernel-dim-2")
    for _ in range(40):
        for d in range(1, 6):
            for stratum in strata[:4] if d == 1 else strata:
                jet = _stratified_jet(rng, d, stratum)
                M = rng.normal(size=(d, d))
                if stratum != "regular":  # keep the stratum: an orthogonal M times a scaling
                    M = _random_orthogonal(rng, d) * rng.uniform(0.5, 2.0, size=d)
                got, want = compose_linear(jet, M), _einsum_compose(jet, M)
                assert np.array_equal(got.linear, want.linear)
                assert np.array_equal(got.quadratic, want.quadratic)
                assert np.max(np.abs(_dense_cubic(got) - _dense_cubic(want))) <= 1e-12 * scale(want)
                assert _as_tuple(classify(got)) == _as_tuple(classify(want))
                a, b = spectral_split(got.quadratic), spectral_split(want.quadratic)
                assert (a.neg_dim, a.zero_dim, a.pos_dim) == (b.neg_dim, b.zero_dim, b.pos_dim)
                if stratum != "birth-death":
                    continue
                nf = birth_death_linear_normal_form(jet)
                red = _einsum_compose(jet, nf.orthogonal * nf.scaling)
                i = nf.index
                assert (classify(jet).index, classify(red).index) == (i, i)
                assert np.array_equal(nf.reduced.quadratic,
                                      np.diag([0.0] + [-1.0] * i + [1.0] * (d - 1 - i)))
                assert nf.reduced.cubic[(1, 1, 1)] == pytest.approx(1.0, abs=1e-9)
                assert red.cubic[(1, 1, 1)] == pytest.approx(1.0, abs=1e-9)
                assert np.max(np.abs(_dense_cubic(nf.reduced) - _dense_cubic(red))) \
                    <= 1e-12 * scale(red)


# ---------------------------------------------------------------------------
# spectral split


def test_spectral_split_hand_values():
    s = spectral_split(np.diag([-1.0, 0.0, 2.0]))
    assert (s.neg_dim, s.zero_dim, s.pos_dim) == (1, 1, 1)
    z = spectral_split(np.zeros((2, 2)))
    assert (z.neg_dim, z.zero_dim, z.pos_dim) == (0, 2, 0)


def test_spectral_split_reconstructs_and_orders():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        q = rng.normal(size=(d, d))
        q = (q + q.T) / 2.0
        s = spectral_split(q)
        assert s.neg_dim + s.zero_dim + s.pos_dim == d
        V, w = s.basis, s.eigenvalues
        # eigh's ascending order already puts the blocks in order
        assert all(map(np.array_equal, (w, V), np.linalg.eigh(q)))
        assert np.allclose(V.T @ V, np.eye(d), atol=1e-12)
        assert np.allclose(V @ np.diag(w) @ V.T, q, atol=1e-10)
        blocks = (w[: s.neg_dim], w[s.neg_dim: s.neg_dim + s.zero_dim],
                  w[s.neg_dim + s.zero_dim:])
        for blk in blocks:
            assert list(blk) == sorted(blk)


def test_spectral_split_random_vs_sign_count_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        q = rng.normal(size=(5, 5))
        q = (q + q.T) / 2.0
        s = spectral_split(q)
        assert (s.neg_dim, s.zero_dim, s.pos_dim) == _oracle_sign_counts(q, 1e-9)


def test_spectral_split_rejects_bad_input():
    for q in (np.zeros((2, 3)), np.array([[0.0, 1.0], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            spectral_split(q)
    # a tolerance must be finite and >= 0; classify checks it before the
    # linear part can decide the class
    regular = Jet3(2, 0.0, [0.5, 0.0], np.eye(2), {})
    for tol in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            spectral_split(np.eye(2), tol)
        with pytest.raises(ValueError, match="tol"):
            classify(regular, tol)


def test_spectral_split_rejects_an_uncovered_spectrum():
    """An eigenvalue that no block holds (NaN, or infinite at tol = 0 where
    the threshold is NaN) is refused, not split into dims that sum short."""
    with pytest.raises(ValueError, match="does not split"):
        spectral_split([[float("inf"), 0.0], [0.0, 1.0]])
    huge = np.full((2, 2), 1e308)  # finite, with an eigenvalue that overflows
    assert spectral_split(huge).zero_dim == 2
    with pytest.raises(ValueError, match="does not split"):
        spectral_split(huge, 0.0)
    with pytest.raises(ValueError, match="does not split"):
        classify(Jet3(2, 0.0, np.zeros(2), huge, {}), 0.0)


def test_symmetry_check_treats_nan_and_signed_zero_as_array_equal_does():
    """A NaN never equals itself, on the diagonal or off it, so the matrix is
    not exactly symmetric; -0.0 and 0.0 are equal, so that pair is."""
    nan = float("nan")
    for q in ([[nan, 0.0], [0.0, 1.0]], [[1.0, nan], [nan, 1.0]], [[1.0, nan], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="exactly symmetric"):
            spectral_split(q)
    s = spectral_split([[1.0, -0.0], [0.0, -1.0]])
    assert (s.neg_dim, s.zero_dim, s.pos_dim) == (1, 0, 1)
    assert Jet3(2, 0.0, np.zeros(2), [[0.0, 0.0], [-0.0, 0.0]], {}).quadratic[1, 0] == 0.0
    data = {"dim": 2, "constant": 0.0, "linear": [0.0, 0.0],
            "quadratic": [1.0, -0.0, 0.0, 1.0], "cubic": []}
    assert jet_from_json_dict(data).quadratic.tolist() == [[1.0, -0.0], [0.0, 1.0]]


def test_split_dims_orthogonally_invariant():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        eigs = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        eigs[0] = 0.0
        U = _random_orthogonal(rng, d)
        q = U.T @ np.diag(eigs) @ U
        q = (q + q.T) / 2.0
        s = spectral_split(q)
        neg = int(np.sum(eigs < 0))
        assert (s.neg_dim, s.zero_dim, s.pos_dim) == (neg, 1, d - 1 - neg)


# ---------------------------------------------------------------------------
# classification


def test_classify_hand_values():
    nf = Jet3(3, 0.0, np.zeros(3), np.diag([0.0, -1.0, 1.0]), {(1, 1, 1): 1.0})
    cls = classify(nf)
    assert (cls.kind, cls.index) == (BIRTH_DEATH, 1)

    # the 3-jet of x^4 is identically zero past the constant
    flat = Jet3(1, 0.0, [0.0], [[0.0]], {})
    cls = classify(flat)
    assert (cls.kind, cls.reason) == (DEGENERATE, KERNEL_CUBIC_VANISHES)

    reg = Jet3(2, 0.0, [1.0, 0.0], np.diag([3.0, -2.0]), {})
    assert classify(reg).kind == REGULAR

    # cusp-family fiber at its right-hand critical point: a plain minimum
    cusp_fiber = Jet3(1, -2.0, [0.0], [[3.0]], {(1, 1, 1): 1.0})
    cls = classify(cusp_fiber)
    assert (cls.kind, cls.index) == (NONDEGENERATE, 0)

    fold = Jet3(2, 0.0, np.zeros(2), np.diag([-4.0, 0.0]), {(2, 2, 2): 8.0})
    cls = classify(fold)
    assert (cls.kind, cls.index) == (BIRTH_DEATH, 1)

    flat2 = Jet3(2, 0.0, np.zeros(2), np.zeros((2, 2)), {(1, 2, 2): 1.0})
    cls = classify(flat2)
    assert (cls.kind, cls.reason) == (DEGENERATE, KERNEL_DIM_AT_LEAST_2)


def test_classify_index_counts_negative_eigenvalues():
    rng = np.random.default_rng(29)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        eigs = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        base = Jet3(d, 0.0, np.zeros(d), np.diag(eigs), {})
        jet = compose_linear(base, _random_orthogonal(rng, d))
        cls = classify(jet)
        assert cls.kind == NONDEGENERATE
        assert cls.index == int(np.sum(eigs < 0))


def test_classify_against_independent_oracle():
    rng = np.random.default_rng(101)
    strata = ["regular", "nondegenerate", "birth-death",
              "kernel-cubic-vanishes", "kernel-dim-2"]
    for d in (2, 3, 5):
        for _ in range(60):
            for stratum in strata:
                jet = _stratified_jet(rng, d, stratum)
                assert _as_tuple(classify(jet)) == _oracle_classify(jet)


def test_classify_construction_labels():
    """The stratified generator actually lands in the stratum it names."""
    rng = np.random.default_rng(211)
    want = {
        "regular": (REGULAR, None),
        "nondegenerate": (NONDEGENERATE, None),
        "birth-death": (BIRTH_DEATH, None),
        "kernel-cubic-vanishes": (DEGENERATE, KERNEL_CUBIC_VANISHES),
        "kernel-dim-2": (DEGENERATE, KERNEL_DIM_AT_LEAST_2),
    }
    for d in (2, 4):
        for stratum, (kind, reason) in want.items():
            for _ in range(20):
                cls = classify(_stratified_jet(rng, d, stratum))
                assert cls.kind == kind
                if reason is not None:
                    assert cls.reason == reason


def test_classify_orthogonal_invariance():
    rng = np.random.default_rng(311)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        stratum = ["regular", "nondegenerate", "birth-death",
                   "kernel-cubic-vanishes", "kernel-dim-2"][int(rng.integers(5))]
        jet = _stratified_jet(rng, d, stratum)
        U = _random_orthogonal(rng, d)
        assert _as_tuple(classify(compose_linear(jet, U))) == _as_tuple(classify(jet))


def test_scale_floor_and_max():
    assert scale(Jet3(1, 0.0, [0.0], [[0.0]], {})) == 1.0
    assert scale(Jet3(1, 0.5, [0.25], [[0.125]], {})) == 1.0
    assert scale(Jet3(1, 0.0, [0.0], [[0.0]], {(1, 1, 1): -7.0})) == 7.0


# ---------------------------------------------------------------------------
# restricted cubic


def test_restrict_cubic_hand_values():
    cube = Jet3(1, 0.0, [0.0], [[0.0]], {(1, 1, 1): 1.0})
    assert restrict_cubic(cube, [1.0]) == 1.0
    assert restrict_cubic(cube, [-1.0]) == -1.0
    nf = Jet3(3, 0.0, np.zeros(3), np.diag([0.0, -1.0, 1.0]), {(1, 1, 1): 1.0})
    assert restrict_cubic(nf, [0.0, 1.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        restrict_cubic(cube, [2.0])


def test_restrict_cubic_matches_dense_contraction():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        jet = _random_jet(rng, d)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        T = _dense_cubic(jet)
        want = float(np.einsum("abc,a,b,c->", T, v, v, v))
        assert restrict_cubic(jet, v) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# birth-death normal form


def test_normal_form_fixed_point():
    nf = Jet3(3, 0.0, np.zeros(3), np.diag([0.0, -1.0, 1.0]), {(1, 1, 1): 1.0})
    res = birth_death_linear_normal_form(nf)
    assert res.index == 1
    assert res.residual == 0.0
    assert np.array_equal(np.abs(res.orthogonal), np.eye(3))
    assert np.array_equal(res.scaling, np.ones(3))
    assert np.array_equal(res.reduced.quadratic, np.diag([0.0, -1.0, 1.0]))
    assert res.reduced.cubic == {(1, 1, 1): 1.0}


def test_normal_form_rescales_fold():
    # 8y^3 - 4x^2: kernel on y, one negative direction; both axes shrink by 2
    fold = Jet3(2, 0.0, np.zeros(2), np.diag([-4.0, 0.0]), {(2, 2, 2): 8.0})
    res = birth_death_linear_normal_form(fold)
    assert res.index == 1
    assert res.scaling == pytest.approx([0.5, 0.5])
    assert res.residual <= 1e-12
    assert np.array_equal(res.reduced.quadratic, np.diag([0.0, -1.0]))
    assert res.reduced.cubic[(1, 1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_normal_form_random_properties():
    rng = np.random.default_rng(53)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        jet = _stratified_jet(rng, d, "birth-death")
        orig = classify(jet)
        res = birth_death_linear_normal_form(jet)
        red = res.reduced

        diag = np.diag(red.quadratic)
        assert np.array_equal(red.quadratic, np.diag(diag))
        assert diag[0] == 0.0
        assert set(np.unique(diag)) <= {-1.0, 0.0, 1.0}
        assert list(diag[1:]) == sorted(diag[1:])  # -1 block before +1 block
        assert int(np.sum(diag == -1.0)) == res.index == orig.index

        U, s = res.orthogonal, res.scaling
        assert np.allclose(U.T @ U, np.eye(d), atol=1e-12)
        assert np.all(s > 0)
        assert red.cubic[(1, 1, 1)] == pytest.approx(1.0, abs=1e-9)

        again = classify(red)
        assert (again.kind, again.index) == (BIRTH_DEATH, orig.index)


def test_normal_form_is_the_substituted_jet():
    """reduced agrees with the jet of p(U diag(s) z) up to the quadratic snap."""
    rng = np.random.default_rng(59)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        jet = _stratified_jet(rng, d, "birth-death")
        res = birth_death_linear_normal_form(jet)
        M = res.orthogonal @ np.diag(res.scaling)
        for _ in range(5):
            z = rng.uniform(-1.0, 1.0, size=d)
            lhs = evaluate(res.reduced, z)
            rhs = evaluate(jet, M @ z)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_each_classified_jet_is_split_once(monkeypatch, tmp_path, capsys):
    """The normal form and classify-jet use the split that classification
    read: one spectral_split (one eigh) per jet, whatever its stratum.  A jet
    keeps that split per tol, so a normal form after classify splits no more,
    and another tol splits again."""
    calls = []
    split = jet_core.spectral_split
    monkeypatch.setattr(jet_core, "spectral_split",
                        lambda *a, **k: calls.append(1) or split(*a, **k))
    rng = np.random.default_rng(67)
    for stratum, kind in (("regular", REGULAR), ("nondegenerate", NONDEGENERATE),
                          ("birth-death", BIRTH_DEATH), ("kernel-cubic-vanishes", DEGENERATE),
                          ("kernel-dim-2", DEGENERATE)):
        jet = _stratified_jet(rng, 3, stratum)
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet_to_json_dict(jet)))
        calls.clear()
        assert main(["classify-jet", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == kind
        assert len(calls) == 1, stratum
        if kind == BIRTH_DEATH:
            calls.clear()
            birth_death_linear_normal_form(jet)
            assert len(calls) == 1
            fresh = jet_from_json_dict(jet_to_json_dict(jet))
            calls.clear()
            assert classify(fresh).kind == BIRTH_DEATH
            birth_death_linear_normal_form(fresh)
            assert len(calls) == 1
        calls.clear()
        classify(jet, 1e-8)  # another tol: a split of its own, kept in turn
        classify(jet, 1e-8)
        assert len(calls) == (kind != REGULAR)


def test_normal_form_rejects_other_strata():
    nondeg = Jet3(2, 0.0, np.zeros(2), np.diag([1.0, 2.0]), {})
    with pytest.raises(ValueError):
        birth_death_linear_normal_form(nondeg)
    reg = Jet3(2, 0.0, [1.0, 0.0], np.diag([1.0, 2.0]), {})
    with pytest.raises(ValueError):
        birth_death_linear_normal_form(reg)


# ---------------------------------------------------------------------------
# construction and JSON


def test_jet3_validation():
    with pytest.raises(ValueError):
        Jet3(0, 0.0, [], np.zeros((0, 0)), {})
    with pytest.raises(ValueError):
        Jet3(2, 0.0, [0.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]), {})
    with pytest.raises(ValueError):
        Jet3(2, 0.0, [0.0, 0.0], np.zeros((2, 2)), {(2, 1, 1): 1.0})
    with pytest.raises(ValueError):
        Jet3(1, 0.0, [0.0], [[0.0]], {(1, 1, 2): 1.0})
    jet = Jet3(2, 0.0, [0.0, 0.0], np.zeros((2, 2)), {})
    with pytest.raises(ValueError):
        jet.linear[0] = 5.0  # frozen storage
    nan, inf = float("nan"), float("inf")
    finite = dict(constant=0.0, linear=[0.0], quadratic=[[0.0]], cubic={})
    for bad in (dict(constant=inf), dict(linear=[nan]), dict(quadratic=[[-inf]]),
                dict(cubic={(1, 1, 1): nan})):
        with pytest.raises(ValueError):
            Jet3(1, **{**finite, **bad})
    # a NaN tensor entry reaches Jet3 instead of being dropped as zero
    with pytest.raises(ValueError):
        jet_from_parts(1, 0.0, [0.0], [[1.0]], np.full((1, 1, 1), nan))


def test_jet_from_parts_refuses_a_tensor_of_another_shape():
    """The tensor must have shape (dim, dim, dim): a larger one is not
    truncated, and a 2-D or flat one is a DimensionError (exit 3 in the CLI's
    terms), not a TypeError; dim is an integer, never truncated."""
    parts = dict(constant=0.0, linear=[0.0, 0.0], quadratic=np.eye(2))
    for tensor in (np.ones((3, 3, 3)), np.ones((2, 2)), np.ones(8), np.ones((2, 2, 3))):
        with pytest.raises(jet_core.DimensionError, match="cubic tensor has shape"):
            jet_from_parts(2, tensor=tensor, **parts)
    for dim in (2.7, 2.0, "2", True):
        with pytest.raises(ValueError, match="not an integer"):
            jet_from_parts(dim, tensor=np.zeros((2, 2, 2)), **parts)
    jet = jet_from_parts(np.int64(2), tensor=np.ones((2, 2, 2)), **parts)
    assert jet.dim == 2 and type(jet.dim) is int
    assert jet.cubic == {(1, 1, 1): 1.0, (1, 1, 2): 1.0, (1, 2, 2): 1.0, (2, 2, 2): 1.0}


def test_jet_from_parts_refuses_a_quadratic_of_another_shape():
    """A quadratic without dim^2 entries is a DimensionError that names its
    size, not numpy's broadcast error from the symmetrisation; dim^2 entries
    in any shape are read row by row, so a flat one is the matrix."""
    parts = dict(constant=0.0, linear=[0.0, 0.0], tensor=np.zeros((2, 2, 2)))
    for shape in ((2, 3), (3,), (3, 3), (1, 1)):
        with pytest.raises(jet_core.DimensionError,
                           match=f"quadratic part has {np.prod(shape)} entries, expected 4"):
            jet_from_parts(2, quadratic=np.ones(shape), **parts)
    square = jet_to_json_dict(jet_from_parts(2, quadratic=[[1.0, 2.0], [2.0, -3.0]], **parts))
    for flat in ([1.0, 2.0, 2.0, -3.0], np.array([[1.0, 2.0, 2.0, -3.0]])):
        assert jet_to_json_dict(jet_from_parts(2, quadratic=flat, **parts)) == square


def test_a_jet_keeps_no_view_of_its_input():
    """A jet copies its parts, so changing the caller's arrays afterwards changes
    neither the jet nor the verdict it keeps."""
    lin, quad = np.zeros(2), np.diag([1.0, 2.0])
    for jet in (Jet3(2, 0.0, lin, quad, {}),
                jet_from_parts(2, 0.0, lin, quad, np.zeros((2, 2, 2)))):
        assert _as_tuple(classify(jet)) == (NONDEGENERATE, 0, None)
        lin[0], quad[0, 0] = 5.0, -1.0
        assert jet.linear.tolist() == [0.0, 0.0]
        assert jet.quadratic.tolist() == [[1.0, 0.0], [0.0, 2.0]]
        assert _as_tuple(classify(jet)) == (NONDEGENERATE, 0, None)
        lin[0], quad[0, 0] = 0.0, 1.0


def test_jet_json_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        jet = _random_jet(rng, d)
        data = json.loads(json.dumps(jet_to_json_dict(jet)))
        back = jet_from_json_dict(data)
        assert back.dim == jet.dim
        assert back.constant == jet.constant
        assert np.array_equal(back.linear, jet.linear)
        assert np.array_equal(back.quadratic, jet.quadratic)
        assert back.cubic == jet.cubic


def test_jet_json_error_classes():
    good = jet_to_json_dict(Jet3(2, 0.0, [0.0, 0.0], np.eye(2), {(1, 1, 2): 1.0}))

    missing = dict(good)
    del missing["linear"]
    with pytest.raises(ValueError):
        jet_from_json_dict(missing)

    with pytest.raises(ValueError):
        jet_from_json_dict({**good, "constant": "not-a-number"})

    with pytest.raises(IndexError):
        jet_from_json_dict({**good, "linear": [0.0]})

    with pytest.raises(IndexError):
        jet_from_json_dict({**good, "quadratic": [1.0, 0.0, 0.0]})

    with pytest.raises(IndexError):
        jet_from_json_dict({**good, "quadratic": [1.0, 2.0, 3.0, 4.0]})

    with pytest.raises(IndexError):
        jet_from_json_dict(
            {**good, "cubic": [{"idx": [1, 1, 3], "coeff": 1.0}]})

    with pytest.raises(ValueError):
        jet_from_json_dict({**good, "cubic": [{"idx": [1, 1, 2]}]})


_GOOD_JSON = {"dim": 2, "constant": 0.0, "linear": [0.0, 0.0], "quadratic": [1.0, 0.0, 0.0, 1.0],
              "cubic": [{"idx": [1, 1, 2], "coeff": 1.0}]}
_NAN, _INF = float("nan"), float("inf")
_PARSE_DEFECTS = [  # (the defect in JSON, the same defect as Jet3 fields, the parser's class)
    ({"dim": 0, "linear": [], "quadratic": [], "cubic": []},
     dict(dim=0, linear=[], quadratic=np.zeros((0, 0)), cubic={}), ValueError),
    ({"dim": -1}, dict(dim=-1), IndexError),
    ({"linear": [0.0]}, dict(linear=[0.0]), IndexError),
    ({"quadratic": [1.0, 0.0, 0.0]}, dict(quadratic=[1.0, 0.0, 0.0]), IndexError),
    ({"constant": _INF}, dict(constant=_INF), ValueError),
    ({"linear": [0.0, _NAN]}, dict(linear=[0.0, _NAN]), ValueError),
    ({"quadratic": [1.0, 0.0, 0.0, -_INF]}, dict(quadratic=[[1.0, 0.0], [0.0, -_INF]]),
     ValueError),
    ({"cubic": [{"idx": [1, 1, 2], "coeff": _NAN}]}, dict(cubic={(1, 1, 2): _NAN}),
     ValueError),
    ({"quadratic": [1.0, 2.0, 0.0, 1.0]}, dict(quadratic=[[1.0, 2.0], [0.0, 1.0]]),
     IndexError),
    ({"cubic": [{"idx": [2, 1, 1], "coeff": 1.0}]}, dict(cubic={(2, 1, 1): 1.0}),
     IndexError),
    ({"cubic": [{"idx": [1, 2, 3], "coeff": 1.0}]}, dict(cubic={(1, 2, 3): 1.0}),
     IndexError),
    ({"cubic": [{"idx": [0, 1, 1], "coeff": 1.0}]}, dict(cubic={(0, 1, 1): 1.0}),
     IndexError),
    ({"cubic": [{"idx": [1, 1], "coeff": 1.0}]}, dict(cubic={(1, 1): 1.0}), ValueError),
    ({"cubic": [{"idx": [1, 1, 2, 2], "coeff": 1.0}]}, dict(cubic={(1, 1, 2, 2): 1.0}),
     ValueError),
    # two defects: the first in the checks' order decides the class
    ({"cubic": [{"idx": [1, 1, 3], "coeff": 1.0}, {"idx": [1, 1, 1], "coeff": _NAN}]},
     dict(cubic={(1, 1, 3): 1.0, (1, 1, 1): _NAN}), IndexError),
    ({"cubic": [{"idx": [1, 1, 1], "coeff": _NAN}, {"idx": [1, 1, 3], "coeff": 1.0}]},
     dict(cubic={(1, 1, 1): _NAN, (1, 1, 3): 1.0}), ValueError),
    ({"linear": [0.0, _NAN], "quadratic": [1.0, 2.0, 0.0, 1.0]},
     dict(linear=[0.0, _NAN], quadratic=[[1.0, 2.0], [0.0, 1.0]]), ValueError),
    ({"quadratic": [1.0, 2.0, 0.0, _INF]}, dict(quadratic=[[1.0, 2.0], [0.0, _INF]]),
     ValueError),
    ({"dim": 0, "linear": [], "quadratic": [], "cubic": [{"idx": [1, 1, 1], "coeff": 1.0}]},
     dict(dim=0, linear=[], quadratic=np.zeros((0, 0)), cubic={(1, 1, 1): 1.0}), IndexError),
]


def test_jet_json_parse_skips_no_check():
    """The parser and Jet3 make their value checks through one function: each
    defect gets the same class and message from both, the class the CLI maps
    to its exit code (IndexError: 3, any other ValueError: 2), and of two
    defects the first in the checks' order decides."""
    fields = dict(dim=2, constant=0.0, linear=[0.0, 0.0], quadratic=np.eye(2),
                  cubic={(1, 1, 2): 1.0})
    good = _GOOD_JSON
    for defect, jet_defect, cls in _PARSE_DEFECTS:
        with pytest.raises(cls) as parsed:
            jet_from_json_dict({**good, **defect})
        assert isinstance(parsed.value, IndexError) == (cls is IndexError), defect
        with pytest.raises(ValueError) as built:
            Jet3(**{**fields, **jet_defect})
        assert type(built.value) is type(parsed.value), defect
        assert str(built.value) == str(parsed.value), defect
    # a term without an idx is malformed, but only once the terms before it pass
    missing = {"coeff": 1.0}
    with pytest.raises(ValueError, match="malformed cubic term") as parsed:
        jet_from_json_dict({**good, "cubic": [{"idx": [1, 1, 2], "coeff": 1.0}, missing]})
    assert not isinstance(parsed.value, IndexError)
    with pytest.raises(IndexError, match="out of range"):
        jet_from_json_dict({**good, "cubic": [{"idx": [1, 1, 3], "coeff": 1.0}, missing]})
    # a non-integral dim or cubic index is malformed (exit 2), never truncated
    for dim in (2.7, 2.0, "2", True):
        with pytest.raises(ValueError):
            jet_from_json_dict({**good, "dim": dim})
    for idx in ([1.5, 2, 2], [1.0, 1, 2], ["1", 1, 2], [True, 1, 2], [1, 1], [1, 1, 2, 2]):
        with pytest.raises(ValueError):
            jet_from_json_dict({**good, "cubic": [{"idx": idx, "coeff": 1.0}]})


def test_parsed_jet_equals_the_validated_jet():
    rng = np.random.default_rng(73)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        data = json.loads(json.dumps(jet_to_json_dict(_random_jet(rng, d))))
        parsed = jet_from_json_dict(data)
        built = Jet3(data["dim"], data["constant"], data["linear"],
                     np.reshape(data["quadratic"], (d, d)),
                     {tuple(t["idx"]): t["coeff"] for t in data["cubic"]})
        assert type(parsed.dim) is int and parsed.dim == built.dim == d
        assert type(parsed.constant) is float and parsed.constant == built.constant
        for got, want in ((parsed.linear, built.linear), (parsed.quadratic, built.quadratic)):
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 5.0
        assert parsed.cubic == built.cubic
        assert all(type(n) is int for idx in parsed.cubic for n in idx)
        assert all(type(v) is float for v in parsed.cubic.values())


def test_classification_json_shape():
    jet = Jet3(3, 0.0, np.zeros(3), np.diag([0.0, -1.0, 1.0]), {(1, 1, 1): 1.0})
    cls = classify(jet)
    split = spectral_split(jet.quadratic)
    out = cls.to_json_dict(split)
    assert out["class"] == BIRTH_DEATH
    assert out["index"] == 1
    assert out["reason"] is None
    assert out["split"] == {"neg": 1, "zero": 1, "pos": 1}


# ---------------------------------------------------------------------------
# classify-jet --jsonl, and a fault for every stratum of the benchmark's planted jets


def _bench_jets():
    """bench/jets.py, loaded from where it lies: seeded jets of known strata
    behind random rotations, and the benchmark's check of an output."""
    path = Path(__file__).resolve().parents[1] / "bench" / "jets.py"
    spec = importlib.util.spec_from_file_location("bench_jets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jsonl(tmp_path, capsys, lines, *args):
    """(exit code, output lines) of classify-jet --jsonl over these input lines."""
    path = tmp_path / "jets.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = main(["classify-jet", "--jsonl", "--input", str(path), *args])
    return code, capsys.readouterr().out.splitlines()


def _single(tmp_path, capsys, line):
    """(exit code, stdout, stderr) of classify-jet on one jet."""
    path = tmp_path / "jet.json"
    path.write_text(line, encoding="utf-8")
    code = main(["classify-jet", "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jsonl_lines_are_the_single_jet_outputs(tmp_path, capsys):
    """Over the benchmark's seed-1 batch, line k is jet k's classify-jet output
    in compact form, and right."""
    jets = _bench_jets()
    batch = jets.make_batch(1, 40)
    lines = [json.dumps(data) for data, _ in batch]
    code, out = _jsonl(tmp_path, capsys, lines)
    assert code == 0 and len(out) == len(batch) == 600
    for line, (data, expected), got in zip(lines, batch, out):
        single = _single(tmp_path, capsys, line)
        assert single[0] == 0 and single[2] == ""
        assert got == json.dumps(json.loads(single[1]), separators=(",", ":"))
        assert jets.check_classification(json.loads(got), expected, data["dim"]) is None


def test_jsonl_reports_each_defect_on_its_own_line(tmp_path, capsys):
    """Each parse defect, between two good jets, gives one line with its line
    number and the code and message of a single-jet run, and the jets around
    it are still classified."""
    good = json.dumps(_GOOD_JSON)
    classified = json.dumps(json.loads(_single(tmp_path, capsys, good)[1]), separators=(",", ":"))
    lines, want = [good], {}
    for defect, _, cls in _PARSE_DEFECTS:
        line = json.dumps({**_GOOD_JSON, **defect})
        code, out, err = _single(tmp_path, capsys, line)
        assert (code, out) == (3 if cls is IndexError else 2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        want[len(lines) + 1] = {"line": len(lines) + 1, "error": err[7:-1], "code": code}
        lines += [line, good]
    code, out = _jsonl(tmp_path, capsys, lines)
    assert code == 3 and len(out) == len(lines)
    for n, got in enumerate(out, 1):
        assert got == (json.dumps(want[n], separators=(",", ":")) if n in want else classified)


def test_jsonl_exit_code_is_the_largest_line_code(tmp_path, capsys, monkeypatch):
    """0 when every line is classified, else the largest code of a failing line
    (2 malformed, 3 dimension inconsistency); blank lines are skipped but
    counted.  A bad --tol or an unreadable input refuses the batch (exit 2,
    one error line, no output)."""
    good, malformed = json.dumps(_GOOD_JSON), "{"
    short = json.dumps({**_GOOD_JSON, "linear": [0.0]})
    for lines, want in (([], 0), ([good, good], 0), ([good, malformed], 2), ([short, good], 3),
                        ([malformed, short, malformed], 3), ([malformed, malformed], 2),
                        (["", " ", short], 3)):
        code, out = _jsonl(tmp_path, capsys, lines)
        assert code == want, lines
        assert [json.loads(o).get("line") for o in out] == \
            [None if line == good else n for n, line in enumerate(lines, 1) if line.strip()]
    batch = str(tmp_path / "jets.jsonl")
    for args in (["--tol=nan"], ["--tol=-1"], ["--input", str(tmp_path / "missing.jsonl")]):
        assert main(["classify-jet", "--jsonl", "--input", batch, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    # a line that is not UTF-8 is malformed, and the run goes on
    (tmp_path / "bytes.jsonl").write_bytes(b"\xff{}\n" + good.encode() + b"\n")
    assert main(["classify-jet", "--jsonl", "--input", str(tmp_path / "bytes.jsonl")]) == 2
    assert [json.loads(o).get("code") for o in capsys.readouterr().out.splitlines()] == [2, None]
    # stdin in, --out file out
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{good}\n{short}\n"))
    out_path = tmp_path / "out.jsonl"
    assert main(["classify-jet", "--jsonl", "--input", "-", "--out", str(out_path)]) == 3
    assert capsys.readouterr().out == ""
    assert [json.loads(o).get("code") for o in out_path.read_text().splitlines()] == [None, 3]


def _index_off_by_one(monkeypatch):
    exact = jet_core.GmfClass
    monkeypatch.setattr(jet_core, "GmfClass", lambda kind, index=None, reason=None: exact(
        kind, None if index is None else index + 1, reason))


def _scaled_tol(monkeypatch):
    exact = jet_core._classify_split
    monkeypatch.setattr(jet_core, "_classify_split", lambda jet, tol: exact(jet, tol * 1e-9))


def _ignored_kernel_cubic(monkeypatch):
    monkeypatch.setattr(jet_core, "_cubic_form", lambda jet, v: 0.0)


def _skipped_gradient_test(monkeypatch):
    monkeypatch.setattr(jet_core, "_gradient_norm", lambda jet: 0.0)


@pytest.mark.parametrize("fault, stratum, at_least", [
    (_skipped_gradient_test, "Regular", 24),
    (_index_off_by_one, "NondegenerateCritical", 24),
    (_ignored_kernel_cubic, "BirthDeath", 24),
    (_scaled_tol, "KernelCubicVanishes", 12),
    (_scaled_tol, "KernelDimAtLeast2", 12),
])
def test_each_stratum_fails_under_a_fault_of_its_own(monkeypatch, tmp_path, capsys, fault,
                                                      stratum, at_least):
    """classify-jet --jsonl over the benchmark's planted jets (8 per stratum
    and dimension 2, 3, 5) is right before the fault, and under it wrong on
    every jet of the stratum, or on half of them for the scaled tolerance: the
    gradient test skipped, the verdict's index off by one, the kernel cubic
    read as 0, or the tolerance scaled by 1e-9 (a kernel that rounding leaves
    exactly 0, as for the zero quadratics at d = 2, stays a kernel)."""
    jets = _bench_jets()
    batch = jets.make_batch(1, 8)
    lines = [json.dumps(data) for data, _ in batch]

    def wrong():
        out = _jsonl(tmp_path, capsys, lines)[1]
        assert len(out) == len(batch)
        return [exp.get("reason") or exp["class"] for (data, exp), got in zip(batch, out)
                if jets.check_classification(json.loads(got), exp, data["dim"])]

    assert wrong() == []
    fault(monkeypatch)
    assert wrong().count(stratum) >= at_least


def _stacked_parts(batch, d):
    """The parts of a bench batch's jets in d variables, stacked: constants,
    linear rows, quadratic matrices and dense cubic tensors, every
    permutation of a sorted triple holding its coefficient."""
    datas = [data for data, _ in batch if data["dim"] == d]
    c = np.array([data["constant"] for data in datas], dtype=float)
    lin = np.array([data["linear"] for data in datas], dtype=float)
    quad = np.array([data["quadratic"] for data in datas], dtype=float).reshape(-1, d, d)
    T = np.zeros((len(datas), d, d, d))
    for row, data in zip(T, datas):
        for term in data["cubic"]:
            for perm in itertools.permutations([i - 1 for i in term["idx"]]):
                row[perm] = term["coeff"]
    return c, lin, quad, T


def _non_finite_rows(c, lin, quad, T):
    """Copies of the first jet with an inf, a -inf or a NaN in one part at a
    time: the constant, a gradient entry, a quadratic entry, a coefficient at
    a sorted triple and a tensor entry off the sorted triples (which
    jet_from_parts never reads), and a quadratic pair whose symmetrisation
    overflows."""
    rows = []
    d = lin.shape[1]
    for bad in (np.inf, -np.inf, np.nan):
        for part, at in ((0, ()), (1, (d - 1,)), (2, (0, d - 1)), (3, (0, 0, d - 1)),
                         (3, (d - 1, 0, 0))):
            row = [np.array(c[0]), lin[0].copy(), quad[0].copy(), T[0].copy()]
            row[part][at] = bad
            rows.append(row)
    row = [np.array(c[0]), lin[0].copy(), quad[0].copy(), T[0].copy()]
    row[2][0, d - 1] = row[2][d - 1, 0] = 1e308
    rows.append(row)
    return [np.concatenate((whole, np.stack(part)))
            for whole, part in zip((c, lin, quad, T), zip(*rows))]


def _classified_alone(d, c, lin, quad, T, tol):
    """classify(jet_from_parts(...)) per row as (kind, index, reason), None
    where jet_from_parts raises."""
    out = []
    for parts in zip(c, lin, quad, T):
        try:
            jet = jet_from_parts(d, *parts)
        except ValueError:
            out.append(None)
            continue
        out.append(_as_tuple(classify(jet, tol)))
    return out


@pytest.mark.parametrize("tol", [CLASSIFY_TOL, EVENT_TOL], ids=["CLASSIFY_TOL", "EVENT_TOL"])
def test_classify_parts_is_classify_row_by_row(tol):
    """classify_parts gives, row by row, classify(jet_from_parts(...)) in
    kind, index and reason on the bench's planted jets of all five strata
    at d = 2, 3 and 5, and None exactly where jet_from_parts raises: a row
    with an inf or a NaN in a part it reads, or whose symmetrised quadratic
    overflows, which neither path warns of.  An empty batch gives an empty
    list."""
    jets = _bench_jets()
    batch = jets.make_batch(1, 8)
    for d in jets.DIMS:
        parts = _non_finite_rows(*_stacked_parts(batch, d))
        want = _classified_alone(d, *parts, tol)
        got = [cls and _as_tuple(cls) for cls in classify_parts(d, *parts, tol)]
        assert got == want, d
        assert want.count(None) == 13, d  # 3 x 4 parts read, and the overflowing pair
        assert {w[2] or w[0] for w in want if w} == {REGULAR, NONDEGENERATE, BIRTH_DEATH,
                                                    KERNEL_CUBIC_VANISHES, KERNEL_DIM_AT_LEAST_2}, d
        assert classify_parts(d, np.zeros(0), np.zeros((0, d)), np.zeros((0, d, d)),
                              np.zeros((0, d, d, d)), tol) == []


def test_classify_parts_shapes_and_refusals():
    """Stacked parts follow jet_from_parts' shape rule with a leading row
    axis (a flat quadratic row of d^2 entries is the matrix), other shapes
    are a DimensionError, and a critical row whose spectrum does not split
    raises spectral_split's ValueError, as classify does on that row."""
    c, lin, T = np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 3, 3))
    quad = np.stack([np.eye(3), -np.eye(3)])
    want = [_as_tuple(cls) for cls in classify_parts(3, c, lin, quad, T)]
    assert want == [(NONDEGENERATE, 0, None), (NONDEGENERATE, 3, None)]
    assert [_as_tuple(cls) for cls in classify_parts(3, c, lin, quad.reshape(2, 9), T)] == want
    for bad in (dict(linear=np.zeros((2, 2))), dict(linear=np.zeros(6)),
                dict(quadratic=np.zeros((2, 3, 2))), dict(tensor=np.zeros((2, 27))),
                dict(tensor=np.zeros((3, 3, 3, 3))), dict(constant=np.zeros(3))):
        parts = {"constant": c, "linear": lin, "quadratic": quad, "tensor": T, **bad}
        with pytest.raises(jet_core.DimensionError):
            classify_parts(3, **parts)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        classify_parts(0, np.zeros(1), np.zeros((1, 0)), np.zeros((1, 0, 0)),
                       np.zeros((1, 0, 0, 0)))
    with pytest.raises(ValueError, match="tol must be finite"):
        classify_parts(3, c, lin, quad, T, -1.0)
    # eigenvalues 0, 0 and an infinite one, which no threshold of tol = 0 splits
    huge = np.full((3, 3), 0.7e308)
    with pytest.raises(ValueError, match="does not split at tol 0.0") as alone:
        classify(jet_from_parts(3, 0.0, np.zeros(3), huge, np.zeros((3, 3, 3))), 0.0)
    with pytest.raises(ValueError) as stacked:
        classify_parts(3, np.zeros(3), np.zeros((3, 3)), np.stack([np.eye(3), huge, huge]),
                       np.zeros((3, 3, 3, 3)), 0.0)
    assert str(stacked.value) == str(alone.value)


def test_classify_parts_at_the_threshold_edges():
    """At tol = 0.5, scale 2 and so threshold 1, the rows sit on classify's
    edges, and classify_parts reads them as classify does: a gradient norm
    of 1 is critical and one ulp more regular, an eigenvalue of magnitude 1
    is in the kernel and one ulp more is not, and a kernel cubic of 1
    vanishes and one ulp more does not."""
    d, tol, up = 2, 0.5, 1.0 + 2 ** -52
    quads = [np.diag(v) for v in ([2.0, 1.0], [2.0, -1.0], [-2.0, 1.0], [2.0, 0.0], [-2.0, 0.0],
                                  [2.0, up], [2.0, 0.0])]
    lins = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [up, 0.0]]
    T = np.zeros((len(quads), d, d, d))
    T[3, 1, 1, 1], T[4, 1, 1, 1] = 1.0, up  # r(e2, e2, e2) on the kernel axis
    parts = (np.zeros(len(quads)), np.array(lins), np.array(quads), T)
    want = _classified_alone(d, *parts, tol)
    assert [cls and _as_tuple(cls) for cls in classify_parts(d, *parts, tol)] == want
    vanishes = (DEGENERATE, None, KERNEL_CUBIC_VANISHES)
    assert want == [vanishes] * 4 + [(BIRTH_DEATH, 1, None), (NONDEGENERATE, 0, None),
                                     (REGULAR, None, None)]
