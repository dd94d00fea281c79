"""Cubic jets and their critical-point strata.

A 3-jet in d variables is p(x) = c + l(x) + q(x) + r(x) with symmetric
coefficient conventions: q(x) = sum_{ij} a_ij x_i x_j over ordered pairs
(a_ij the stored symmetric matrix), and r(x) = sum over ordered triples of
the symmetric tensor, stored sparsely on sorted index triples.  A sorted
triple with coefficient v and m distinct permutations contributes
v * m * x_i x_j x_k to the value.

Critical jets split along the spectrum of q into negative / zero / positive
blocks; a one-dimensional kernel with nonvanishing cubic on it is the
birth-death stratum, modelled on x1^3 - sum_{j<=i+1} x_j^2 + sum x_k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

REGULAR = "Regular"
NONDEGENERATE = "NondegenerateCritical"
BIRTH_DEATH = "BirthDeath"
DEGENERATE = "Degenerate"

KERNEL_CUBIC_VANISHES = "KernelCubicVanishes"
KERNEL_DIM_AT_LEAST_2 = "KernelDimAtLeast2"


@dataclass(frozen=True)
class Jet3:
    dim: int
    constant: float
    linear: np.ndarray
    quadratic: np.ndarray
    cubic: dict

    def __post_init__(self):
        d = int(self.dim)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        lin = np.asarray(self.linear, dtype=float).reshape(d)
        quad = np.asarray(self.quadratic, dtype=float).reshape(d, d)
        if not np.array_equal(quad, quad.T):
            raise ValueError("quadratic matrix must be stored exactly symmetric")
        cub = {}
        for idx, v in dict(self.cubic).items():
            i, j, k = idx
            if not (1 <= i <= j <= k <= d):
                raise ValueError(f"cubic index {idx} not a sorted 1-based triple in range")
            cub[(int(i), int(j), int(k))] = float(v)
        lin.flags.writeable = False
        quad.flags.writeable = False
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "constant", float(self.constant))
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "cubic", cub)


@dataclass(frozen=True)
class SpectralSplit:
    neg_dim: int
    zero_dim: int
    pos_dim: int
    basis: np.ndarray       # columns: negative block, zero block, positive block
    eigenvalues: np.ndarray # matching order, ascending within blocks


@dataclass(frozen=True)
class GmfClass:
    kind: str
    index: int | None = None
    reason: str | None = None

    def to_json_dict(self, split: SpectralSplit | None = None) -> dict:
        out = {"class": self.kind, "index": self.index, "reason": self.reason}
        if split is not None:
            out["split"] = {
                "neg": split.neg_dim,
                "zero": split.zero_dim,
                "pos": split.pos_dim,
            }
        return out


def _multiplicity(i: int, j: int, k: int) -> int:
    # number of distinct permutations of the index multiset
    if i == j == k:
        return 1
    if i == j or j == k:
        return 3
    return 6


def evaluate(jet: Jet3, x) -> float:
    """Value of the jet polynomial at x."""
    x = np.asarray(x, dtype=float).reshape(jet.dim)
    val = jet.constant + float(jet.linear @ x) + float(x @ jet.quadratic @ x)
    for (i, j, k), v in jet.cubic.items():
        val += v * _multiplicity(i, j, k) * x[i - 1] * x[j - 1] * x[k - 1]
    return val


def cubic_tensor(jet: Jet3) -> np.ndarray:
    """Dense symmetric d x d x d tensor of the cubic part."""
    d = jet.dim
    T = np.zeros((d, d, d))
    for (i, j, k), v in jet.cubic.items():
        for a, b, c in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            T[a - 1, b - 1, c - 1] = v
    return T


def jet_from_parts(dim, constant, linear, quadratic, tensor) -> Jet3:
    """Assemble a Jet3 from a dense symmetric cubic tensor."""
    quad = np.asarray(quadratic, dtype=float)
    quad = (quad + quad.T) / 2.0
    cubic = {}
    d = int(dim)
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for k in range(j, d + 1):
                v = float(tensor[i - 1, j - 1, k - 1])
                if abs(v) > 0.0:
                    cubic[(i, j, k)] = v
    return Jet3(d, constant, np.asarray(linear, dtype=float), quad, cubic)


def compose_linear(jet: Jet3, M) -> Jet3:
    """The jet of p(Mx): substitute x -> Mx for a d x d matrix M."""
    M = np.asarray(M, dtype=float).reshape(jet.dim, jet.dim)
    lin = M.T @ jet.linear
    quad = M.T @ jet.quadratic @ M
    T = np.einsum("abc,au,bv,cw->uvw", cubic_tensor(jet), M, M, M)
    T = (T + T.transpose(0, 2, 1) + T.transpose(1, 0, 2)
         + T.transpose(1, 2, 0) + T.transpose(2, 0, 1) + T.transpose(2, 1, 0)) / 6.0
    return jet_from_parts(jet.dim, jet.constant, lin, quad, T)


def scale(jet: Jet3) -> float:
    """max(1, largest absolute coefficient)."""
    m = abs(jet.constant)
    if jet.dim:
        m = max(m, float(np.max(np.abs(jet.linear))), float(np.max(np.abs(jet.quadratic))))
    if jet.cubic:
        m = max(m, max(abs(v) for v in jet.cubic.values()))
    return max(1.0, m)


def spectral_split(q, tol: float = DEFAULT_TOL) -> SpectralSplit:
    """Split R^d by the spectrum of the symmetric matrix q.

    An eigenvalue counts as zero when |lambda| <= tol * max(1, ||q||_2).
    Blocks are ordered negative, zero, positive; ascending eigenvalue
    within each block.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be square")
    if not np.array_equal(q, q.T):
        raise ValueError("q must be exactly symmetric")
    w, V = np.linalg.eigh(q)
    thresh = tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    neg = [i for i in range(len(w)) if w[i] < -thresh]
    zero = [i for i in range(len(w)) if abs(w[i]) <= thresh]
    pos = [i for i in range(len(w)) if w[i] > thresh]
    order = neg + zero + pos
    return SpectralSplit(
        neg_dim=len(neg),
        zero_dim=len(zero),
        pos_dim=len(pos),
        basis=V[:, order].copy(),
        eigenvalues=w[order].copy(),
    )


def restrict_cubic(jet: Jet3, v) -> float:
    """r(v, v, v) for a unit vector v (||v|| within 1e-9 of 1)."""
    v = np.asarray(v, dtype=float).reshape(jet.dim)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("v must be a unit vector")
    val = 0.0
    for (i, j, k), c in jet.cubic.items():
        val += c * _multiplicity(i, j, k) * v[i - 1] * v[j - 1] * v[k - 1]
    return val


def classify(jet: Jet3, tol: float = DEFAULT_TOL) -> GmfClass:
    """Stratify the jet: Regular / NondegenerateCritical(i) / BirthDeath(i) / Degenerate."""
    s = scale(jet)
    if float(np.linalg.norm(jet.linear)) > tol * s:
        return GmfClass(REGULAR)
    split = spectral_split(jet.quadratic, tol)
    if split.zero_dim == 0:
        return GmfClass(NONDEGENERATE, index=split.neg_dim)
    if split.zero_dim == 1:
        v = split.basis[:, split.neg_dim]
        v = v / np.linalg.norm(v)
        if abs(restrict_cubic(jet, v)) > tol * s:
            return GmfClass(BIRTH_DEATH, index=split.neg_dim)
        return GmfClass(DEGENERATE, reason=KERNEL_CUBIC_VANISHES)
    return GmfClass(DEGENERATE, reason=KERNEL_DIM_AT_LEAST_2)


@dataclass(frozen=True)
class NormalFormResult:
    reduced: Jet3
    orthogonal: np.ndarray  # U, columns: kernel axis first, then -1 block, then +1 block
    scaling: np.ndarray     # positive diagonal s; substitution is x = U diag(s) z
    residual: float
    index: int


def birth_death_linear_normal_form(jet: Jet3, tol: float = DEFAULT_TOL) -> NormalFormResult:
    """Linear-stage reduction of a birth-death jet toward x1^3 - sum x^2 + sum x^2.

    The orthogonal factor U sends the kernel of q to axis 1 (negative block
    next, positive block last, ascending eigenvalue within blocks); the
    positive diagonal scaling s makes the axis-1 cubic coefficient 1 and the
    nonzero quadratic eigenvalues exactly +-1.  Cubic cross-terms survive a
    linear change of coordinates; their largest coefficient is reported as
    the residual, not eliminated.
    """
    cls = classify(jet, tol)
    if cls.kind != BIRTH_DEATH:
        raise ValueError(f"normal form requires a BirthDeath jet, got {cls.kind}")
    split = spectral_split(jet.quadratic, tol)
    d = jet.dim
    i = split.neg_dim
    kernel_col = split.basis[:, i] / np.linalg.norm(split.basis[:, i])
    neg_cols = split.basis[:, :i]
    pos_cols = split.basis[:, i + 1 :]
    if restrict_cubic(jet, kernel_col) < 0:
        kernel_col = -kernel_col
    U = np.column_stack([kernel_col] + [neg_cols[:, j] for j in range(i)]
                        + [pos_cols[:, j] for j in range(d - 1 - i)])

    eig = np.concatenate(([0.0], split.eigenvalues[:i], split.eigenvalues[i + 1 :]))
    rotated = compose_linear(jet, U)
    b111 = rotated.cubic.get((1, 1, 1), 0.0)
    s = np.ones(d)
    s[0] = b111 ** (-1.0 / 3.0)
    for j in range(1, d):
        s[j] = 1.0 / np.sqrt(abs(eig[j]))
    reduced_raw = compose_linear(rotated, np.diag(s))

    target_diag = np.array([0.0] + [-1.0] * i + [1.0] * (d - 1 - i))
    residual = float(np.max(np.abs(reduced_raw.linear))) if d else 0.0
    off = reduced_raw.quadratic - np.diag(np.diag(reduced_raw.quadratic))
    if d > 1:
        residual = max(residual, float(np.max(np.abs(off))))
    for idx, v in reduced_raw.cubic.items():
        if idx != (1, 1, 1):
            residual = max(residual, abs(v))

    cubic = dict(reduced_raw.cubic)
    reduced = Jet3(d, reduced_raw.constant, reduced_raw.linear, np.diag(target_diag), cubic)
    return NormalFormResult(reduced=reduced, orthogonal=U, scaling=s,
                            residual=residual, index=i)


# ---------------------------------------------------------------------------
# JSON schema helpers


def jet_to_json_dict(jet: Jet3) -> dict:
    return {
        "dim": jet.dim,
        "constant": jet.constant,
        "linear": [float(v) for v in jet.linear],
        "quadratic": [float(v) for v in jet.quadratic.reshape(-1)],
        "cubic": [
            {"idx": list(idx), "coeff": v} for idx, v in sorted(jet.cubic.items())
        ],
    }


def jet_from_json_dict(data: dict) -> Jet3:
    try:
        d = int(data["dim"])
        constant = float(data["constant"])
        linear = [float(v) for v in data["linear"]]
        quad_flat = [float(v) for v in data["quadratic"]]
        cubic_items = data["cubic"]
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed jet JSON: {e}") from e
    if len(linear) != d:
        raise IndexError(f"linear part has {len(linear)} entries, expected {d}")
    if len(quad_flat) != d * d:
        raise IndexError(f"quadratic part has {len(quad_flat)} entries, expected {d * d}")
    if not all(map(math.isfinite, [constant, *linear, *quad_flat])):
        raise ValueError("jet coefficients must be finite")
    quad = np.array(quad_flat).reshape(d, d)
    if not np.array_equal(quad, quad.T):
        raise IndexError("quadratic matrix is not symmetric")
    cubic = {}
    for item in cubic_items:
        try:
            i, j, k = (int(v) for v in item["idx"])
            coeff = float(item["coeff"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"malformed cubic term: {e}") from e
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite cubic coefficient {coeff}")
        if not (1 <= i <= j <= k <= d):
            raise IndexError(f"cubic index {(i, j, k)} out of range for dim {d}")
        cubic[(i, j, k)] = coeff
    return Jet3(d, constant, np.array(linear), quad, cubic)
