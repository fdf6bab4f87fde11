"""Lower bounds on sums of variances and of skew informations.

Every bound function takes a state and a collection of observables and
returns a :class:`BoundValue`. ``evaluate_all`` runs the whole catalog,
flags numerical violations, and picks the tightest bound per family.

Families:

* ``variance``: bounds on sum_i (Delta A_i)^2
* ``skew``: bounds on sum_i I(rho, A_i)
* ``product``: bounds on Delta A_1 * Delta A_2 (two observables only)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .linalg import HermitianMatrix
from .measures import NEGATIVE_CLAMP, amplitude_vector
from .states import DensityMatrix, coerce_density

DEFAULT_BUDGET = 10**6
DEFAULT_TOLERANCE = 1e-8
TIE_TOL = 1e-12

FAMILY = {
    "theorem1": "variance",
    "song": "variance",
    "chen_variance": "variance",
    "mp_quadratic": "variance",
    "robertson": "product",
    "theorem2a": "skew",
    "theorem2b": "skew",
    "zhang": "skew",
    "chen_skew": "skew",
    "parallelogram_sum": "skew",
    "parallelogram_diff": "skew",
}
CATALOG = tuple(FAMILY)


class BudgetExceededError(Exception):
    """The exhaustive permutation search would exceed the tuple budget."""

    def __init__(self, tuples: int, budget: int):
        self.tuples = int(tuples)
        self.budget = int(budget)
        super().__init__(
            f"permutation search needs {self.tuples} tuples, budget is {self.budget}"
        )


class ObservableSet:
    """Two or more Hermitian observables sharing one dimension."""

    __slots__ = ("observables",)

    def __init__(self, observables):
        items = tuple(
            o if isinstance(o, HermitianMatrix) else HermitianMatrix(o)
            for o in observables
        )
        if len(items) < 2:
            raise ValueError("need at least two observables")
        dims = {o.dim for o in items}
        if len(dims) != 1:
            raise ValueError(f"observables have mixed dimensions {sorted(dims)}")
        self.observables = items

    @classmethod
    def coerce(cls, x) -> "ObservableSet":
        return x if isinstance(x, cls) else cls(x)

    @property
    def n(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    def __len__(self):
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    def __getitem__(self, i):
        return self.observables[i]

    def pairs(self):
        """Index pairs (i, j) with i < j."""
        return itertools.combinations(range(self.n), 2)

    def total(self) -> HermitianMatrix:
        tot = self.observables[0]
        for o in self.observables[1:]:
            tot = tot + o
        return tot


@dataclass(frozen=True)
class PermutationTuple:
    """One permutation of eigenvalue positions per observable.

    The first entry is pinned to the identity; the objective is invariant
    under applying a common permutation to every entry.
    """

    perms: tuple

    def __post_init__(self):
        if not self.perms:
            raise ValueError("empty permutation tuple")
        d = len(self.perms[0])
        ident = tuple(range(d))
        if tuple(self.perms[0]) != ident:
            raise ValueError("first permutation must be the identity")
        for p in self.perms:
            if tuple(sorted(p)) != ident:
                raise ValueError(f"{p} is not a permutation of 0..{d - 1}")
        object.__setattr__(self, "perms", tuple(tuple(int(k) for k in p) for p in self.perms))

    @property
    def n(self) -> int:
        return len(self.perms)


@dataclass(frozen=True)
class BoundValue:
    """A named bound: its value, whether it applies, optional diagnostics."""

    name: str
    value: float | None
    applicable: bool = True
    detail: object = None

    @property
    def family(self) -> str:
        return FAMILY[self.name]

    def to_dict(self) -> dict:
        detail = self.detail
        if isinstance(detail, PermutationTuple):
            detail = {"permutations": [list(p) for p in detail.perms]}
        return {
            "name": self.name,
            "family": self.family,
            "applicable": self.applicable,
            "value": self.value,
            "detail": detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundValue":
        detail = data.get("detail")
        if isinstance(detail, dict) and "permutations" in detail:
            detail = PermutationTuple(tuple(tuple(p) for p in detail["permutations"]))
        return cls(
            name=data["name"],
            value=data["value"],
            applicable=bool(data["applicable"]),
            detail=detail,
        )


@dataclass(frozen=True)
class BoundReport:
    """Everything ``evaluate_all`` computed for one (state, observables) pair."""

    variance_sum: float
    skew_sum: float
    bounds: tuple
    violations: tuple
    tightest_variance: str | None
    tightest_skew: str | None
    metadata: dict = field(default_factory=dict)

    def bound(self, name: str) -> BoundValue:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def value(self, name: str) -> float | None:
        return self.bound(name).value

    def target_for(self, bv: BoundValue) -> float | None:
        """The quantity the bound is a lower bound on."""
        if bv.family == "variance":
            return self.variance_sum
        if bv.family == "skew":
            return self.skew_sum
        if bv.applicable and isinstance(bv.detail, dict):
            return bv.detail.get("delta_product")
        return None

    def to_dict(self) -> dict:
        return {
            "variance_sum": self.variance_sum,
            "skew_sum": self.skew_sum,
            "bounds": [b.to_dict() for b in self.bounds],
            "violations": list(self.violations),
            "tightest_variance": self.tightest_variance,
            "tightest_skew": self.tightest_skew,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundReport":
        return cls(
            variance_sum=float(data["variance_sum"]),
            skew_sum=float(data["skew_sum"]),
            bounds=tuple(BoundValue.from_dict(b) for b in data["bounds"]),
            violations=tuple(data["violations"]),
            tightest_variance=data["tightest_variance"],
            tightest_skew=data["tightest_skew"],
            metadata=dict(data.get("metadata") or {}),
        )


def _coerce(rho, observables) -> tuple[DensityMatrix, ObservableSet]:
    state = coerce_density(rho)
    obs = ObservableSet.coerce(observables)
    if obs.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, observables {obs.dim}")
    return state, obs


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j, in ``ObservableSet.pairs`` order."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _quadratic_forms(m: np.ndarray, scale: np.ndarray, what: str):
    """(diagonal, m_ii + m_jj + 2 m_ij, m_ii + m_jj - 2 m_ij, sum of all entries)
    of a correlation matrix, the middle two over :func:`_pairs`.

    Each form goes through the ``NEGATIVE_CLAMP`` rule of
    :func:`measures.variance`: round-off below zero snaps to 0, anything
    below ``NEGATIVE_CLAMP * max(1, s)`` raises, where s is the matching sum
    of diagonal entries of ``scale`` (N times its trace for the total).
    """
    n = m.shape[0]
    i, j = _pairs(n)
    p = i.shape[0]
    diag = np.diagonal(m)
    scale_diag = np.diagonal(scale)
    pair_scale = scale_diag[i] + scale_diag[j]
    cross = 2.0 * m[i, j]
    forms = np.concatenate((diag, diag[i] + diag[j] + cross, diag[i] + diag[j] - cross, [m.sum()]))
    scales = np.concatenate((scale_diag, pair_scale, pair_scale, [n * scale_diag.sum()]))
    bad = forms < NEGATIVE_CLAMP * np.maximum(1.0, np.abs(scales))
    if bad.any():
        raise ValueError(f"{what} {forms[bad][0]} is negative beyond round-off")
    forms = np.where(forms < 0.0, 0.0, forms)
    return forms[:n], forms[n : n + p], forms[n + p : n + 2 * p], float(forms[-1])


class InstanceData:
    """Everything the catalog needs from one (state, observables) pair,
    computed once; every bound is a short formula over it.

    * ``means``: <A_i>; ``moments``: tr(rho A_i A_j), complex;
    * ``cov``: the covariance matrix C_ij = Re tr(rho A_i A_j) - <A_i><A_j>;
    * ``skew_corr``: the Wigner-Yanase correlation matrix
      K_ij = (1/2) Re <[sqrt(rho), A_i], [sqrt(rho), A_j]>;
    * ``amplitudes``: the (N, d) stack of amplitude vectors.

    Variance and skew information are quadratic forms, so
    Var(A_i +- A_j) = C_ii + C_jj +- 2 C_ij, I(A_i +- A_j) = K_ii + K_jj +- 2 K_ij,
    and Var(sum A), I(sum A) sum every entry of C, K. :func:`_quadratic_forms`
    precomputes them as ``variances``, ``var_plus``, ``var_minus``,
    ``var_total`` and ``skews``, ``skew_plus``, ``skew_minus``, ``skew_total``;
    variance forms are clamped against Re tr(rho A_i A_j), skew forms against K.
    """

    __slots__ = (
        "n", "means", "moments", "cov", "skew_corr", "amplitudes",
        "variances", "var_plus", "var_minus", "var_total",
        "skews", "skew_plus", "skew_minus", "skew_total",
    )

    def __init__(self, rho, observables):
        state, obs = _coerce(rho, observables)
        n = self.n = obs.n
        a = np.stack([o.mat for o in obs])
        ra = state.mat @ a
        self.means = np.trace(ra, axis1=1, axis2=2).real
        # tr(rho A_i A_j) = sum_kl (rho A_i)_kl conj((A_j)_kl) for Hermitian A_j
        self.moments = ra.reshape(n, -1) @ a.reshape(n, -1).conj().T
        second = self.moments.real
        self.cov = second - np.outer(self.means, self.means)
        root = state.sqrt().mat
        comm = (root @ a - a @ root).reshape(n, -1).view(np.float64)
        self.skew_corr = 0.5 * (comm @ comm.T)
        (self.variances, self.var_plus, self.var_minus,
         self.var_total) = _quadratic_forms(self.cov, second, "variance")
        (self.skews, self.skew_plus, self.skew_minus,
         self.skew_total) = _quadratic_forms(self.skew_corr, self.skew_corr, "skew information")
        self.amplitudes = np.stack([amplitude_vector(state, o) for o in obs])


def _data(rho, observables, data: InstanceData | None) -> InstanceData:
    return data if data is not None else InstanceData(rho, observables)


def _check_budget(obs: ObservableSet, budget: int):
    tuples = math.factorial(obs.dim) ** (obs.n - 1)
    if tuples > budget:
        raise BudgetExceededError(tuples, budget)


def _root_sum_sq(values: np.ndarray) -> float:
    """(sum_k sqrt(values_k))^2."""
    root = float(np.sqrt(values).sum())
    return root * root


# ---------------------------------------------------------------------------
# variance-family bounds
#
# Each bound takes (rho, observables) and builds the instance data itself,
# unless a prebuilt ``data`` for the same instance is passed, as
# ``evaluate_all`` does.
# ---------------------------------------------------------------------------


def bound_theorem1(
    rho, observables, budget: int = DEFAULT_BUDGET, *, data: InstanceData | None = None
) -> BoundValue:
    """Permutation-maximized amplitude-vector bound on the variance sum.

    For amplitude vectors a_i of each observable, maximizes

        (1 / (2N - 2)) * ( sum_{i<j} ||a_i^pi + a_j^pi||^2
                           + (2 / (N (N - 1))) * (sum_{i<j} ||a_i^pi - a_j^pi||)^2 )

    over one eigenvalue-position permutation per observable (the first is
    pinned to the identity, which loses nothing). The search is exhaustive;
    (d!)^(N-1) above ``budget`` raises :class:`BudgetExceededError` before
    anything is computed. The returned detail is the maximizing
    :class:`PermutationTuple`, ties broken lexicographically.
    """
    state, obs = _coerce(rho, observables)
    _check_budget(obs, budget)
    n, d = obs.n, obs.dim
    perms, args = scan_inputs(_data(state, obs, data).amplitudes)
    best, sel = _kernels.theorem1_scan(*args)
    nperm = perms.shape[0]
    digits = []
    rem = int(sel)
    for pos in range(n - 1):
        stride = nperm ** (n - 2 - pos)
        digits.append(rem // stride)
        rem %= stride
    tup = (tuple(range(d)),) + tuple(tuple(int(k) for k in perms[t]) for t in digits)
    return BoundValue("theorem1", float(best), True, PermutationTuple(tup))


def scan_inputs(avs: np.ndarray):
    """Precompute the Gram data the permutation-scan kernels consume.

    ``avs`` is the (N, d) stack of amplitude vectors. Returns
    (perms, args) where args unpacks directly into either scan kernel.
    """
    n, d = avs.shape
    variances = np.einsum("ij,ij->i", avs, avs)
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    nperm = perms.shape[0]
    permuted = avs[:, perms]  # (N, nperm, d)
    gram_first = np.ascontiguousarray(permuted[1:] @ avs[0])
    pair_rows = []
    pair_cols = []
    blocks = []
    for i in range(1, n):
        for j in range(i + 1, n):
            pair_rows.append(i - 1)
            pair_cols.append(j - 1)
            blocks.append(permuted[i] @ permuted[j].T)
    if blocks:
        gram_pairs = np.ascontiguousarray(np.stack(blocks))
    else:
        gram_pairs = np.zeros((0, nperm, nperm))
    c1 = 1.0 / (2.0 * n - 2.0)
    c2 = 2.0 / (n * (n - 1.0))
    args = (
        variances,
        gram_first,
        gram_pairs,
        np.asarray(pair_rows, dtype=np.int64),
        np.asarray(pair_cols, dtype=np.int64),
        nperm,
        c1,
        c2,
        TIE_TOL,
    )
    return perms, args


def bound_song(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Variance bound (1/N) * ( (Delta sum A)^2
    + (2 / (N (N - 1))) * (sum_{i<j} Delta(A_i - A_j))^2 )."""
    q = _data(rho, observables, data)
    n = q.n
    val = (q.var_total + 2.0 / (n * (n - 1.0)) * _root_sum_sq(q.var_minus)) / n
    return BoundValue("song", val)


def bound_chen_variance(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Variance bound built from ascending-sorted amplitude vectors.

    With b_i the sorted amplitude vector of A_i and the step h = 1 at N = 2,
    0 otherwise:

        (1 / (2^h N - 2)) * ( sum_{i<j} ||b_i + b_j||^2
                              + ((h - 1) / (N - 1)^2) * (sum_{i<j} ||b_i + b_j||)^2 )
    """
    q = _data(rho, observables, data)
    n = q.n
    b = np.sort(q.amplitudes, axis=1)
    i, j = _pairs(n)
    s = b[i] + b[j]
    sq_norms = np.einsum("pk,pk->p", s, s)
    h = 1.0 if n == 2 else 0.0
    pref = 1.0 / (2.0**h * n - 2.0)
    coef = (h - 1.0) / (n - 1.0) ** 2
    val = pref * (float(sq_norms.sum()) + coef * _root_sum_sq(sq_norms))
    return BoundValue("chen_variance", val)


def bound_mp_quadratic(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Two-observable quadratic bound (1/2) (Delta(A + B))^2."""
    q = _data(rho, observables, data)
    if q.n != 2:
        return BoundValue("mp_quadratic", None, applicable=False)
    return BoundValue("mp_quadratic", 0.5 * float(q.var_plus[0]))


def bound_robertson(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Product bound Delta A * Delta B >= (1/2) |tr(rho [A, B])|.

    The detail carries the product it bounds, since the target is not the
    variance sum.
    """
    q = _data(rho, observables, data)
    if q.n != 2:
        return BoundValue("robertson", None, applicable=False)
    val = 0.5 * abs(complex(q.moments[0, 1] - q.moments[1, 0]))
    product = math.sqrt(q.variances[0]) * math.sqrt(q.variances[1])
    return BoundValue("robertson", val, detail={"delta_product": product})


# ---------------------------------------------------------------------------
# skew-family bounds
# ---------------------------------------------------------------------------


def bound_theorem2a(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i + A_j)))^2
    + sum_{i<j} I(A_i - A_j) )."""
    q = _data(rho, observables, data)
    n = q.n
    val = (
        2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_plus) + float(q.skew_minus.sum())
    ) / (2.0 * n - 2.0)
    return BoundValue("theorem2a", val)


def bound_theorem2b(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i - A_j)))^2
    + sum_{i<j} I(A_i + A_j) )."""
    q = _data(rho, observables, data)
    n = q.n
    val = (
        2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_minus) + float(q.skew_plus.sum())
    ) / (2.0 * n - 2.0)
    return BoundValue("theorem2b", val)


def bound_zhang(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1/N) * ( I(sum A)
    + (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i - A_j)))^2 )."""
    q = _data(rho, observables, data)
    n = q.n
    val = (q.skew_total + 2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_minus)) / n
    return BoundValue("zhang", val)


def bound_chen_skew(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1 / (N - 2)) * ( sum_{i<j} I(A_i + A_j)
    - (1 / (N - 1)^2) * (sum_{i<j} sqrt(I(A_i + A_j)))^2 ), three observables up."""
    q = _data(rho, observables, data)
    n = q.n
    if n < 3:
        return BoundValue("chen_skew", None, applicable=False)
    val = (float(q.skew_plus.sum()) - _root_sum_sq(q.skew_plus) / (n - 1.0) ** 2) / (n - 2.0)
    return BoundValue("chen_skew", val)


def bound_parallelogram_sum(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i + A_j)."""
    q = _data(rho, observables, data)
    return BoundValue("parallelogram_sum", float(q.skew_plus.sum()) / (2.0 * q.n - 2.0))


def bound_parallelogram_diff(rho, observables, *, data: InstanceData | None = None) -> BoundValue:
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i - A_j)."""
    q = _data(rho, observables, data)
    return BoundValue("parallelogram_diff", float(q.skew_minus.sum()) / (2.0 * q.n - 2.0))


_BOUND_FUNCS = {
    "theorem1": bound_theorem1,
    "song": bound_song,
    "chen_variance": bound_chen_variance,
    "mp_quadratic": bound_mp_quadratic,
    "robertson": bound_robertson,
    "theorem2a": bound_theorem2a,
    "theorem2b": bound_theorem2b,
    "zhang": bound_zhang,
    "chen_skew": bound_chen_skew,
    "parallelogram_sum": bound_parallelogram_sum,
    "parallelogram_diff": bound_parallelogram_diff,
}


def _tightest(bounds, family):
    best_name = None
    best_val = -math.inf
    for b in bounds:
        if b.family != family or not b.applicable or b.value is None:
            continue
        if b.value > best_val:
            best_name, best_val = b.name, b.value
    return best_name


def evaluate_all(
    rho,
    observables,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
    metadata: dict | None = None,
) -> BoundReport:
    """Evaluate the full bound catalog and assemble a :class:`BoundReport`.

    The Theorem-1 budget is checked first; then the instance data is built
    once and every bound is a formula over it. A bound is flagged as a
    violation when its value exceeds its target by more than
    ``tolerance * max(1, target)``; with correct arithmetic that never
    happens, so the violations list doubles as a numerical check. A
    non-finite sum, bound or target raises ``ValueError`` rather than
    passing that check. Tightest bounds are the largest applicable value
    per family, ties going to the earlier catalog entry.
    """
    state, obs = _coerce(rho, observables)
    _check_budget(obs, budget)
    # float64 overflow is reported by the finiteness checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        data = InstanceData(state, obs)
        values = []
        for name in CATALOG:
            func = _BOUND_FUNCS[name]
            if name == "theorem1":
                values.append(func(state, obs, budget=budget, data=data))
            else:
                values.append(func(state, obs, data=data))

    variance_sum = float(data.variances.sum())
    skew_sum = float(data.skews.sum())
    if not (math.isfinite(variance_sum) and math.isfinite(skew_sum)):
        raise ValueError(
            f"non-finite sums (variance {variance_sum!r}, skew {skew_sum!r}): "
            "float64 overflow, the observables' entries are too large"
        )

    violations = []
    for b in values:
        if not b.applicable or b.value is None:
            continue
        if b.family == "variance":
            target = variance_sum
        elif b.family == "skew":
            target = skew_sum
        else:
            target = b.detail["delta_product"]
        if not (math.isfinite(b.value) and math.isfinite(target)):
            raise ValueError(f"bound {b.name} is not finite: {b.value!r} against {target!r}")
        if b.value > target + tolerance * max(1.0, target):
            violations.append(b.name)

    return BoundReport(
        variance_sum=variance_sum,
        skew_sum=skew_sum,
        bounds=tuple(values),
        violations=tuple(violations),
        tightest_variance=_tightest(values, "variance"),
        tightest_skew=_tightest(values, "skew"),
        metadata=dict(metadata or {}),
    )
