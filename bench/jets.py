"""Seeded batches of 3-jets with known strata, built behind random rotations.

Every jet starts in a frame where its quadratic part is diagonal with chosen
signs and its cubic tensor is random, then is rotated by a random orthogonal
matrix Q (p(x) = p0(Q^T x)).  The stratum and index are known by
construction: rotation preserves the eigenvalue signs of q and the value of
the cubic on the kernel direction, so no gmfkit code is needed to know the
answer.
"""

from __future__ import annotations

import numpy as np

STRATA = ("regular", "nondegenerate", "birth_death", "kernel_cubic_vanishes", "kernel_dim_2")
DIMS = (2, 3, 5)
TOL = 1e-9

_ZEROS = {"regular": 0, "nondegenerate": 0, "birth_death": 1,
          "kernel_cubic_vanishes": 1, "kernel_dim_2": 2}


def _random_orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def _magnitudes(rng, k):
    return rng.uniform(0.5, 2.0, size=k)


def make_jet(rng, stratum: str, d: int):
    """(jet JSON dict, expected classify-jet output without dim/tol)."""
    zeros = _ZEROS[stratum]
    neg = int(rng.integers(0, d - zeros + 1))
    pos = d - zeros - neg
    eig = np.concatenate([-_magnitudes(rng, neg), np.zeros(zeros), _magnitudes(rng, pos)])
    T = rng.uniform(-1.0, 1.0, size=(d, d, d))
    T = sum(T.transpose(p) for p in
            ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))) / 6.0
    if zeros == 1:
        k = neg  # the kernel axis in the diagonal frame
        T[k, k, k] = 0.0
        if stratum == "birth_death":
            T[k, k, k] = float(rng.choice((-1.0, 1.0)) * _magnitudes(rng, 1)[0])
    lin = np.zeros(d)
    if stratum == "regular":
        v = rng.normal(size=d)
        lin = v / np.linalg.norm(v) * _magnitudes(rng, 1)[0]
    Q = _random_orthogonal(rng, d)
    A = Q @ np.diag(eig) @ Q.T
    A = (A + A.T) / 2.0
    Tr = np.einsum("uvw,au,bv,cw->abc", T, Q, Q, Q)
    cubic = [{"idx": [i + 1, j + 1, k + 1], "coeff": float(Tr[i, j, k])}
             for i in range(d) for j in range(i, d) for k in range(j, d)]
    data = {"dim": d, "constant": float(rng.uniform(-1.0, 1.0)),
            "linear": [float(v) for v in Q @ lin],
            "quadratic": [float(v) for v in A.reshape(-1)], "cubic": cubic}
    expected = {"split": {"neg": neg, "zero": zeros, "pos": pos}}
    if stratum == "regular":
        expected["class"] = "Regular"
    elif stratum == "nondegenerate":
        expected.update({"class": "NondegenerateCritical", "index": neg})
    elif stratum == "birth_death":
        expected.update({"class": "BirthDeath", "index": neg})
    elif stratum == "kernel_cubic_vanishes":
        expected.update({"class": "Degenerate", "reason": "KernelCubicVanishes"})
    else:
        expected.update({"class": "Degenerate", "reason": "KernelDimAtLeast2"})
    return data, expected


def make_batch(seed: int, per_cell: int):
    """per_cell jets for every (stratum, dimension) pair, in a seeded order."""
    rng = np.random.default_rng(seed)
    batch = [make_jet(rng, s, d) for s in STRATA for d in DIMS for _ in range(per_cell)]
    order = rng.permutation(len(batch))
    return [batch[i] for i in order]


def check_classification(out: dict, expected: dict, d: int) -> str | None:
    want = dict(expected, dim=d, tol=TOL)
    return None if out == want else f"got {out}, expected {want}"


def check_normal_form(nf, expected: dict, classify) -> str | None:
    """Diagonal {-1, 0, 1} quadratic with the kernel on axis 1, unit x1^3, BD again."""
    red = nf.reduced
    i = expected["index"]
    d = red.dim
    target = np.diag([0.0] + [-1.0] * i + [1.0] * (d - 1 - i))
    if nf.index != i or not np.array_equal(red.quadratic, target):
        return f"quadratic {red.quadratic.tolist()} index {nf.index}, expected index {i}"
    if abs(red.cubic.get((1, 1, 1), 0.0) - 1.0) > 1e-9:
        return f"x1^3 coefficient {red.cubic.get((1, 1, 1))}"
    cls = classify(red, TOL)
    if cls.kind != "BirthDeath" or cls.index != i:
        return f"normal form re-classifies as {cls}"
    return None


def normal_form_bytes(nf) -> bytes:
    red = nf.reduced
    return repr((red.quadratic.tobytes(), red.linear.tobytes(), sorted(red.cubic.items()),
                 nf.scaling.tobytes(), nf.orthogonal.tobytes(), nf.residual,
                 nf.index)).encode()
