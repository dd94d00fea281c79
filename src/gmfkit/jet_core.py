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

A jet is validated once, where it is made, by one function: `_valid_jet`
makes every value check in one order, with one message each, for
`Jet3(...)`, `jet_from_parts` and `jet_from_json_dict`, which adds only the
JSON type checks.  `_checked_jet` builds the record from fields that pass,
for `_valid_jet` and for the normal form's reduced jet (a checked jet with a
+-1/0 diagonal quadratic).

numpy is imported at the first `np.<name>` a function evaluates, not when the
module loads (see `_LazyNumpy`), so importing gmfkit, and running its series
commands, never loads it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator

from ._record import record


class _LazyNumpy:
    """A module's `np` until first used: the first attribute read imports
    numpy and rebinds that module's global `np` to it, so later reads are
    plain global lookups.  `np.ndarray` annotations are never evaluated
    (postponed by `from __future__ import annotations`)."""

    def __init__(self, module_globals: dict):
        self._globals = module_globals

    def __getattr__(self, name):
        import numpy

        self._globals["np"] = numpy
        return getattr(numpy, name)


np = _LazyNumpy(globals())

DEFAULT_TOL = 1e-9

REGULAR = "Regular"
NONDEGENERATE = "NondegenerateCritical"
BIRTH_DEATH = "BirthDeath"
DEGENERATE = "Degenerate"

KERNEL_CUBIC_VANISHES = "KernelCubicVanishes"
KERNEL_DIM_AT_LEAST_2 = "KernelDimAtLeast2"


@record
class Jet3:
    dim: int
    constant: float
    linear: np.ndarray
    quadratic: np.ndarray
    cubic: dict

    def __post_init__(self):
        cubic = dict(self.cubic)
        vars(self).update(vars(_valid_jet(self.dim, self.constant, self.linear, self.quadratic,
                                          zip(cubic, map(float, cubic.values())))))


class DimensionError(IndexError, ValueError):
    """Jet parts that disagree with dim or each other: a ValueError like every
    other defect, which the CLI reads as an IndexError (exit 3)."""


def _integer(n, what) -> int:
    """n as an int: an int or numpy integer; a bool, float (2.0 too) or str is ValueError."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"{what} {n!r} is not an integer")


def _checked_jet(dim: int, constant: float, linear, quadratic, cubic: dict) -> Jet3:
    """The Jet3 of fields that already pass its checks and normalisations: float64
    arrays of shapes (dim,) and (dim, dim), which are made read-only here."""
    jet = object.__new__(Jet3)
    linear.flags.writeable = quadratic.flags.writeable = False
    jet.__dict__.update(dim=dim, constant=constant, linear=linear, quadratic=quadratic,
                        cubic=cubic)
    return jet


def _valid_jet(dim, constant, linear, quadratic, cubic) -> Jet3:
    """The Jet3 of these fields if they pass every check, first failure raised:
    part sizes, finiteness, exact symmetry, then term by term of cubic's (index
    triple, float) pairs three integer indices, a finite coefficient and a sorted
    triple in 1..dim, and dim >= 1 last.  Parts that disagree raise DimensionError."""
    d = _integer(dim, "dim")
    c = float(constant)
    # copies, so that the caller cannot change a jet (or its kept verdict) through its input
    lin = np.array(linear, dtype=float).ravel()
    quad = np.array(quadratic, dtype=float)
    if lin.size != d:
        raise DimensionError(f"linear part has {lin.size} entries, expected {d}")
    if quad.size != d * d:
        raise DimensionError(f"quadratic part has {quad.size} entries, expected {d * d}")
    quad = quad.reshape(d, d)
    if not all(map(math.isfinite, [c, *lin.tolist(), *quad.ravel().tolist()])):
        raise ValueError("jet coefficients must be finite")
    if quad.tolist() != quad.T.tolist():
        raise DimensionError("quadratic matrix is not symmetric")
    cub = {}
    for idx, v in cubic:
        try:
            i, j, k = idx
        except (TypeError, ValueError) as e:
            raise ValueError(f"malformed cubic term: {e}") from e
        if not type(i) is type(j) is type(k) is int:
            try:
                i, j, k = (_integer(n, "cubic index entry") for n in idx)
            except ValueError:
                raise ValueError(f"cubic index {idx!r} is not three integers") from None
        if not math.isfinite(v):
            raise ValueError(f"non-finite cubic coefficient {v}")
        if not (1 <= i <= j <= k <= d):
            raise DimensionError(f"cubic index {(i, j, k)} out of range for dim {d}")
        cub[(i, j, k)] = v
    if d < 1:  # last: dim 0 with a cubic term is a DimensionError
        raise ValueError("dimension must be >= 1")
    return _checked_jet(d, c, lin, quad, cub)


@record
class SpectralSplit:
    neg_dim: int
    zero_dim: int
    pos_dim: int
    basis: np.ndarray       # columns: negative block, zero block, positive block
    eigenvalues: np.ndarray # matching order, ascending


@record
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


def _cubic_form(jet: Jet3, v) -> float:
    """r(v, v, v) for a float array v of length dim: each sorted triple's coefficient
    times its number of distinct permutations times the monomial."""
    v = v.tolist()
    val = 0.0
    for (i, j, k), c in jet.cubic.items():
        val += c * (1 if i == k else 3 if i == j or j == k else 6) * v[i - 1] * v[j - 1] * v[k - 1]
    return val


def evaluate(jet: Jet3, x) -> float:
    """Value of the jet polynomial at x."""
    x = np.asarray(x, dtype=float).reshape(jet.dim)
    return jet.constant + float(jet.linear @ x) + float(x @ jet.quadratic @ x) + _cubic_form(jet, x)


# The six permutations of a sorted triple's positions, in the order compose_linear adds
# the transposes T, T.transpose(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0) at it
_PERMUTATIONS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0))


@functools.lru_cache(maxsize=16)
def _triples(d: int) -> tuple:
    """Dimension d's index table: the sorted triples (1-based, lexicographic), the row of
    each, and a (6, rows) array of the flat positions in a d x d x d tensor of each
    triple's permutations, in _PERMUTATIONS' order (row 0: the triple itself)."""
    keys = tuple(itertools.combinations_with_replacement(range(1, d + 1), 3))
    idx = np.array(keys, dtype=np.intp).reshape(-1, 3) - 1
    flat = np.ascontiguousarray((idx[:, np.array(_PERMUTATIONS)] @ np.array([d * d, d, 1])).T)
    flat.flags.writeable = False  # shared by every caller of the cache
    return keys, dict(zip(keys, range(len(keys)))), flat


def cubic_tensor(jet: Jet3) -> np.ndarray:
    """Dense symmetric d x d x d tensor of the cubic part."""
    d = jet.dim
    _, row, perms = _triples(d)
    T = np.zeros(d ** 3)
    T[perms[:, list(map(row.__getitem__, jet.cubic))]] = list(jet.cubic.values())
    return T.reshape(d, d, d)


def _jet_from_sorted(d: int, constant, linear, quadratic, values) -> Jet3:
    """The jet whose cubic coefficients at _triples(d)'s sorted triples are values; a
    NaN is kept, for the checks to reject."""
    cubic = [(t, v) for t, v in zip(_triples(d)[0], values.tolist()) if v != 0.0]
    return _valid_jet(d, constant, linear, (quadratic + quadratic.T) / 2.0, cubic)


def jet_from_parts(dim, constant, linear, quadratic, tensor) -> Jet3:
    """Assemble a Jet3 from a dense symmetric cubic tensor of shape (dim, dim, dim);
    its entries at the sorted triples are the coefficients.  The quadratic, dim^2
    entries in any shape (read row by row), is symmetrised as (q + q^T) / 2, and an
    entry that overflows there is not finite: a ValueError, with no numpy warning."""
    d = _integer(dim, "dim")
    quad = np.asarray(quadratic, dtype=float)
    if quad.size != d * d:  # before symmetrising, which would broadcast another shape
        raise DimensionError(f"quadratic part has {quad.size} entries, expected {d * d}")
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (d, d, d):
        raise DimensionError(f"cubic tensor has shape {tensor.shape}, expected {(d, d, d)}")
    with np.errstate(over="ignore"):
        return _jet_from_sorted(d, constant, linear, quad.reshape(d, d),
                                tensor.ravel()[_triples(d)[2][0]])


def compose_linear(jet: Jet3, M) -> Jet3:
    """The jet of p(Mx): substitute x -> Mx for a d x d matrix M."""
    d = jet.dim
    M = np.asarray(M, dtype=float).reshape(d, d)
    T = cubic_tensor(jet)
    for _ in range(3):  # contract the leading axis with M: (a,b,c) -> (b,c,u) -> (c,u,v) -> (u,v,w)
        T = T.reshape(d, d * d).T @ M
    # the symmetrised tensor at the sorted triples only: its six transposes there, added
    # in _PERMUTATIONS' order
    G = T.ravel()[_triples(d)[2]]
    return _jet_from_sorted(d, jet.constant, M.T @ jet.linear, M.T @ jet.quadratic @ M,
                            (G[0] + G[1] + G[2] + G[3] + G[4] + G[5]) / 6.0)


def scale(jet: Jet3) -> float:
    """max(1, largest absolute coefficient)."""
    return max(1.0, abs(jet.constant), *map(abs, jet.linear.tolist()),
               *map(abs, jet.quadratic.ravel().tolist()), *map(abs, jet.cubic.values()))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def spectral_split(q, tol: float = DEFAULT_TOL) -> SpectralSplit:
    """Split R^d by the spectrum of the symmetric matrix q.

    An eigenvalue counts as zero when |lambda| <= tol * max(1, ||q||_2).
    Blocks are ordered negative, zero, positive; ascending eigenvalue
    within each block.  A spectrum that the three blocks do not cover (a NaN
    eigenvalue, or tol = 0 with an infinite one) raises ValueError.
    """
    _check_tol(tol)
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q must be square")
    # nested lists compare equal where array_equal does: -0.0 == 0.0, a NaN never
    # equals itself (tolist makes fresh floats, so no identity shortcut applies)
    if q.tolist() != q.T.tolist():
        raise ValueError("q must be exactly symmetric")
    # eigh returns w ascending, so the blocks are already contiguous and in order, the
    # largest |lambda| is at an end, and bisection counts the outer blocks
    w, V = np.linalg.eigh(q)
    wl = w.tolist()
    thresh = tol * max(1.0, -wl[0], wl[-1]) if wl else 0.0
    if thresh != thresh or any(map(math.isnan, wl)):
        raise ValueError(f"spectrum {wl} does not split at tol {tol}")
    neg = bisect.bisect_left(wl, -thresh)
    pos = len(wl) - bisect.bisect_right(wl, thresh)
    return SpectralSplit(neg_dim=neg, zero_dim=len(wl) - neg - pos, pos_dim=pos, basis=V,
                         eigenvalues=w)


def restrict_cubic(jet: Jet3, v) -> float:
    """r(v, v, v) for a unit vector v (||v|| within 1e-9 of 1)."""
    v = np.asarray(v, dtype=float).reshape(jet.dim)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("v must be a unit vector")
    return _cubic_form(jet, v)


def _norms(rows) -> np.ndarray:
    """The Euclidean norm of each row of a 2-d float array, as np.linalg.norm computes
    it for one row: sqrt(v.dot(v)) on a contiguous copy (inf for a row too large to
    square)."""
    rows = np.ascontiguousarray(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(np.fromiter(map(np.dot, rows, rows), float, len(rows)))


def _gradient_norm(jet: Jet3) -> float:
    """||l||, inf for a gradient too large to square."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(jet.linear))


def _classify_split(jet: Jet3, tol: float) -> tuple:
    """classify's verdict and the spectral split it read, None for a regular jet, kept
    per tol in the jet's __dict__ beside its fields (which equality, hash and repr read
    alone), so a jet is classified and split once per tol."""
    _check_tol(tol)
    memo = jet.__dict__.setdefault("_verdicts", {})
    if tol not in memo:
        memo[tol] = _classified(jet, tol)
    return memo[tol]


def _classified(jet: Jet3, tol: float) -> tuple:
    bound = tol * scale(jet)
    if _gradient_norm(jet) > bound:
        return GmfClass(REGULAR), None
    split = spectral_split(jet.quadratic, tol)
    cubic = 0.0
    if split.zero_dim == 1:
        v = split.basis[:, split.neg_dim]
        cubic = _cubic_form(jet, v / np.linalg.norm(v))
    return _critical_class(split.neg_dim, split.zero_dim, cubic, bound), split


def _critical_class(neg_dim: int, zero_dim: int, kernel_cubic: float, bound: float) -> GmfClass:
    """The stratum of a critical jet, one whose gradient norm is within bound = tol *
    scale, from the negative and zero block sizes of its split and, for a kernel of
    dimension 1, r(v, v, v) on the unit kernel vector v: the one ladder of classify and
    classify_parts."""
    if zero_dim == 0:
        return GmfClass(NONDEGENERATE, index=neg_dim)
    if zero_dim > 1:
        return GmfClass(DEGENERATE, reason=KERNEL_DIM_AT_LEAST_2)
    if abs(kernel_cubic) > bound:
        return GmfClass(BIRTH_DEATH, index=neg_dim)
    return GmfClass(DEGENERATE, reason=KERNEL_CUBIC_VANISHES)


def classify(jet: Jet3, tol: float = DEFAULT_TOL) -> GmfClass:
    """Stratify the jet: Regular / NondegenerateCritical(i) / BirthDeath(i) / Degenerate."""
    return _classify_split(jet, tol)[0]


def _stacked(part, n: int, size: int, what: str):
    """part as an (n, size) float array: n rows of size entries each."""
    a = np.asarray(part, dtype=float)
    if a.shape[:1] != (n,) or a.size != n * size:
        raise DimensionError(f"{what} parts have shape {a.shape}, expected {n} rows of {size} "
                             f"entries")
    return a.reshape(n, size)


def classify_parts(dim, constant, linear, quadratic, tensor, tol: float = DEFAULT_TOL) -> list:
    """classify(jet_from_parts(dim, ...), tol) for n jets at once, one GmfClass per row,
    and None for a row where jet_from_parts raises ValueError (a non-finite constant,
    gradient, symmetrised quadratic or coefficient at a sorted triple).

    The parts are stacked on a leading axis of length n: constants (n,), linear rows of
    dim entries, quadratic rows of dim^2 and tensors (n, dim, dim, dim); parts of any other
    size raise DimensionError, as jet_from_parts does, and dim < 1 raises ValueError.
    Each verdict is classify's bit for bit: the same symmetrised quadratic, scale and
    gradient norm per row, one stacked eigh for the critical rows (numpy runs it matrix
    by matrix, as spectral_split runs it alone), the split's counts off the same
    threshold, the kernel cubic summed term by term in _cubic_form's order, and
    _critical_class's ladder.  A critical row whose spectrum does not split raises
    spectral_split's ValueError, the first such row in order, as classifying the rows in
    turn would.
    """
    _check_tol(tol)
    d = _integer(dim, "dim")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    c = np.asarray(constant, dtype=float).reshape(-1)
    n = len(c)
    lin = _stacked(linear, n, d, "linear")
    q = _stacked(quadratic, n, d * d, "quadratic").reshape(n, d, d)
    T = np.asarray(tensor, dtype=float)
    if T.shape != (n, d, d, d):
        raise DimensionError(f"cubic tensors have shape {T.shape}, expected {(n, d, d, d)}")
    keys, _, perms = _triples(d)
    with np.errstate(over="ignore"):  # a symmetrised entry too large for a float is not finite
        q = (q + q.transpose(0, 2, 1)) / 2.0
    cub = T.reshape(n, d ** 3)[:, perms[0]]
    parts = np.hstack((c[:, None], lin, q.reshape(n, d * d), cub))
    ok = np.isfinite(parts).all(axis=1)
    out = [None] * n
    rows = np.flatnonzero(ok)
    bound = tol * np.maximum(1.0, np.abs(parts[rows]).max(axis=1))  # tol * scale
    regular = _norms(lin[rows]) > bound
    for r in rows[regular].tolist():
        out[r] = GmfClass(REGULAR)
    crit, bound = rows[~regular], bound[~regular]
    w, V = np.linalg.eigh(q[crit])
    with np.errstate(invalid="ignore"):  # tol = 0 with an infinite eigenvalue: no threshold
        thresh = tol * np.maximum(1.0, np.maximum(-w[:, 0], w[:, -1]))
    bad = np.flatnonzero(np.isnan(thresh) | np.isnan(w).any(axis=1))
    if bad.size:
        raise ValueError(f"spectrum {w[bad[0]].tolist()} does not split at tol {tol}")
    neg = (w < -thresh[:, None]).sum(axis=1)
    zero = d - neg - (w > thresh[:, None]).sum(axis=1)
    kernel = np.zeros(len(crit))
    one = np.flatnonzero(zero == 1)
    if one.size:  # r(v, v, v) on each unit kernel vector, in _cubic_form's order
        v = V[one, :, neg[one]]
        u = v / _norms(v)[:, None]
        C = cub[crit[one]]
        acc = np.zeros(len(one))
        for p in np.flatnonzero(C.any(axis=0)).tolist():  # a zero coefficient adds +-0
            i, j, k = keys[p]
            mult = 1 if i == k else 3 if i == j or j == k else 6
            acc += C[:, p] * mult * u[:, i - 1] * u[:, j - 1] * u[:, k - 1]
        kernel[one] = acc
    for r, *verdict in zip(crit.tolist(), neg.tolist(), zero.tolist(), kernel.tolist(),
                           bound.tolist()):
        out[r] = _critical_class(*verdict)
    return out


@record
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
    cls, split = _classify_split(jet, tol)
    if cls.kind != BIRTH_DEATH:
        raise ValueError(f"normal form requires a BirthDeath jet, got {cls.kind}")
    d = jet.dim
    i = split.neg_dim
    kernel_col = split.basis[:, i] / np.linalg.norm(split.basis[:, i])
    # r(v, v, v) on the kernel axis is the axis-1 cubic coefficient after x -> U x
    b111 = _cubic_form(jet, kernel_col)
    if b111 < 0:
        kernel_col, b111 = -kernel_col, -b111
    others = [*range(i), *range(i + 1, d)]
    U = split.basis[:, [i, *others]]
    U[:, 0] = kernel_col
    s = np.concatenate(([b111 ** (-1.0 / 3.0)], 1.0 / np.sqrt(np.abs(split.eigenvalues[others]))))
    reduced_raw = compose_linear(jet, U * s)

    off = np.abs(reduced_raw.quadratic)
    off.flat[:: d + 1] = 0.0
    cross = dict(reduced_raw.cubic)
    cross.pop((1, 1, 1), None)
    residual = max(float(np.abs(reduced_raw.linear).max()), float(off.max()),
                   *map(abs, cross.values()))

    reduced = _checked_jet(d, reduced_raw.constant, reduced_raw.linear,
                           np.diag([0.0] + [-1.0] * i + [1.0] * (d - 1 - i)), reduced_raw.cubic)
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


_JSON_NUMBERS = frozenset((int, float))


def _json_numbers(raw, what) -> list:
    """The JSON list raw of what coefficients as floats: an entry that is
    not a JSON number, such as "1" or true, is malformed, not converted."""
    if not _JSON_NUMBERS.issuperset(map(type, raw)):  # one pass in C
        raise ValueError(f"a {what} coefficient is not a JSON number")
    return list(map(float, raw))


def jet_from_json_dict(data: dict) -> Jet3:
    try:
        d = data["dim"]
        if type(d) is not int:  # JSON integers only: not 2.7, "2" or true
            raise ValueError(f"dim {d!r} is not an integer")
        (constant,) = _json_numbers([data["constant"]], "constant")
        linear = _json_numbers(data["linear"], "linear")
        quad_flat = _json_numbers(data["quadratic"], "quadratic")
        cubic_items = data["cubic"]
        cubic_coeffs = _json_numbers(list(map(operator.itemgetter("coeff"), cubic_items)), "cubic")
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # Overflow: an int too big for a float
        raise ValueError(f"malformed jet JSON: {e}") from e
    # a term without an idx raises the one KeyError _valid_jet meets, in its turn
    try:
        return _valid_jet(d, constant, linear, quad_flat,
                          zip(map(operator.itemgetter("idx"), cubic_items), cubic_coeffs))
    except KeyError as e:
        raise ValueError(f"malformed cubic term: {e}") from e
