"""Lower bounds on sums of variances and of skew informations.

The catalog is one table, :data:`BOUNDS`: one entry per bound with its
name, family, the observable counts it applies to, and a formula over the
per-instance :class:`InstanceData`. ``evaluate_all`` evaluates every entry
on one instance, flags numerical violations, and picks the tightest bound
per family; each ``bound_<name>(rho, observables)`` evaluates one entry.

Families:

* ``variance``: bounds on sum_i (Delta A_i)^2
* ``skew``: bounds on sum_i I(rho, A_i)
* ``product``: bounds on Delta A_1 * Delta A_2 (two observables only)
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .linalg import coerce_hermitian
from .measures import NEGATIVE_CLAMP, amplitude_vector
from .states import DensityMatrix, coerce_density

DEFAULT_BUDGET = 10**6
DEFAULT_TOLERANCE = 1e-8


def _count_text(x: int) -> str:
    """``x`` in decimal, or its order of magnitude where it has more digits
    than Python converts to ``str``."""
    try:
        return str(x)
    except ValueError:
        return f"about {'-' if x < 0 else ''}10^{math.log10(abs(x)):.1f}"


class BudgetExceededError(Exception):
    """The exhaustive permutation search would exceed the tuple budget."""

    def __init__(self, tuples: int, budget: int):
        self.tuples = int(tuples)
        self.budget = int(budget)
        super().__init__(
            f"permutation search needs {_count_text(self.tuples)} tuples, "
            f"budget is {_count_text(self.budget)}"
        )


def check_budget(dim: int, n: int, budget: int):
    """Raise :class:`BudgetExceededError` if Theorem 1's exhaustive search
    over (d!)^(N-1) permutation tuples would exceed ``budget``."""
    tuples = math.factorial(dim) ** (n - 1)
    if tuples > budget:
        raise BudgetExceededError(tuples, budget)


class ObservableSet:
    """Two or more Hermitian observables sharing one dimension."""

    __slots__ = ("observables",)

    def __init__(self, observables):
        items = tuple(coerce_hermitian(o) for o in observables)
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
    """A named bound: its value, ``None`` where it does not apply, and
    optional diagnostics."""

    name: str
    value: float | None
    detail: object = None

    @property
    def applicable(self) -> bool:
        return self.value is not None

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
        if data["name"] not in FAMILY:
            raise ValueError(
                f"name: unknown bound {data['name']!r}, expected one of {', '.join(CATALOG)}"
            )
        bv = cls(name=data["name"], value=data["value"], detail=detail)
        if bool(data["applicable"]) != bv.applicable:
            raise ValueError(
                f"bound {bv.name}: applicable={data['applicable']!r} "
                f"contradicts value={bv.value!r}"
            )
        return bv


def _target(bv: BoundValue, variance_sum: float, skew_sum: float) -> float | None:
    """The quantity ``bv`` is a lower bound on: the variance or skew sum by
    family, or the product a product bound carries in its detail."""
    if bv.family == "variance":
        return variance_sum
    if bv.family == "skew":
        return skew_sum
    if bv.applicable and isinstance(bv.detail, dict):
        return bv.detail.get("delta_product")
    return None


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
        return _target(bv, self.variance_sum, self.skew_sum)

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
    """Index arrays (i, j) of the pairs i < j, in lexicographic order."""
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


def _root_sum_sq(values: np.ndarray) -> float:
    """(sum_k sqrt(values_k))^2."""
    root = float(np.sqrt(values).sum())
    return root * root


# the formulas: each maps the instance data to (value, detail)
def _theorem1(q: InstanceData):
    """The permutation scan's maximum and its maximizing tuple."""
    best, perms = _kernels.theorem1_scan(q.amplitudes)
    return best, PermutationTuple(perms)


def _song(q: InstanceData):
    """Variance bound (1/N) * ( (Delta sum A)^2
    + (2 / (N (N - 1))) * (sum_{i<j} Delta(A_i - A_j))^2 )."""
    n = q.n
    val = (q.var_total + 2.0 / (n * (n - 1.0)) * _root_sum_sq(q.var_minus)) / n
    return val, None


def _chen_variance(q: InstanceData):
    """Variance bound built from ascending-sorted amplitude vectors.

    With b_i the sorted amplitude vector of A_i and the step h = 1 at N = 2,
    0 otherwise:

        (1 / (2^h N - 2)) * ( sum_{i<j} ||b_i + b_j||^2
                              + ((h - 1) / (N - 1)^2) * (sum_{i<j} ||b_i + b_j||)^2 )
    """
    n = q.n
    b = np.sort(q.amplitudes, axis=1)
    i, j = _pairs(n)
    s = b[i] + b[j]
    sq_norms = np.einsum("pk,pk->p", s, s)
    h = 1.0 if n == 2 else 0.0
    pref = 1.0 / (2.0**h * n - 2.0)
    coef = (h - 1.0) / (n - 1.0) ** 2
    val = pref * (float(sq_norms.sum()) + coef * _root_sum_sq(sq_norms))
    return val, None


def _mp_quadratic(q: InstanceData):
    """Two-observable quadratic bound (1/2) (Delta(A + B))^2."""
    return 0.5 * float(q.var_plus[0]), None


def _robertson(q: InstanceData):
    """Product bound Delta A * Delta B >= (1/2) |tr(rho [A, B])|.

    The detail carries the product it bounds, since the target is not the
    variance sum.
    """
    val = 0.5 * abs(complex(q.moments[0, 1] - q.moments[1, 0]))
    product = math.sqrt(q.variances[0]) * math.sqrt(q.variances[1])
    return val, {"delta_product": product}


def _theorem2a(q: InstanceData):
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i + A_j)))^2
    + sum_{i<j} I(A_i - A_j) )."""
    n = q.n
    val = (
        2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_plus) + float(q.skew_minus.sum())
    ) / (2.0 * n - 2.0)
    return val, None


def _theorem2b(q: InstanceData):
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i - A_j)))^2
    + sum_{i<j} I(A_i + A_j) )."""
    n = q.n
    val = (
        2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_minus) + float(q.skew_plus.sum())
    ) / (2.0 * n - 2.0)
    return val, None


def _zhang(q: InstanceData):
    """Skew bound (1/N) * ( I(sum A)
    + (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i - A_j)))^2 )."""
    n = q.n
    val = (q.skew_total + 2.0 / (n * (n - 1.0)) * _root_sum_sq(q.skew_minus)) / n
    return val, None


def _chen_skew(q: InstanceData):
    """Skew bound (1 / (N - 2)) * ( sum_{i<j} I(A_i + A_j)
    - (1 / (N - 1)^2) * (sum_{i<j} sqrt(I(A_i + A_j)))^2 ), three observables up."""
    n = q.n
    val = (float(q.skew_plus.sum()) - _root_sum_sq(q.skew_plus) / (n - 1.0) ** 2) / (n - 2.0)
    return val, None


def _parallelogram_sum(q: InstanceData):
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i + A_j)."""
    return float(q.skew_plus.sum()) / (2.0 * q.n - 2.0), None


def _parallelogram_diff(q: InstanceData):
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i - A_j)."""
    return float(q.skew_minus.sum()) / (2.0 * q.n - 2.0), None


@dataclass(frozen=True)
class Bound:
    """One catalog entry: the bound's name and family, the observable counts
    ``min_n <= N <= max_n`` it applies to, and its formula."""

    name: str
    family: str
    formula: Callable[[InstanceData], tuple]
    min_n: int = 2
    max_n: float = math.inf

    def evaluate(self, q: InstanceData) -> BoundValue:
        """The formula's value and detail, or ``None`` outside the counts."""
        if not self.min_n <= q.n <= self.max_n:
            return BoundValue(self.name, None)
        value, detail = self.formula(q)
        return BoundValue(self.name, value, detail)


BOUNDS = (
    Bound("theorem1", "variance", _theorem1),
    Bound("song", "variance", _song),
    Bound("chen_variance", "variance", _chen_variance),
    Bound("mp_quadratic", "variance", _mp_quadratic, max_n=2),
    Bound("robertson", "product", _robertson, max_n=2),
    Bound("theorem2a", "skew", _theorem2a),
    Bound("theorem2b", "skew", _theorem2b),
    Bound("zhang", "skew", _zhang),
    Bound("chen_skew", "skew", _chen_skew, min_n=3),
    Bound("parallelogram_sum", "skew", _parallelogram_sum),
    Bound("parallelogram_diff", "skew", _parallelogram_diff),
)
FAMILY = {b.name: b.family for b in BOUNDS}
CATALOG = tuple(FAMILY)


def _evaluate(rho, observables, entries) -> tuple[float, float, tuple]:
    """``(variance_sum, skew_sum, values)``: one :class:`InstanceData` and
    the table ``entries`` evaluated over it.

    float64 overflow is reported here, as a ``ValueError`` on a non-finite
    sum or applicable value, not by numpy warnings. A finite variance sum
    keeps the product target sqrt(Var A_1) * sqrt(Var A_2) finite too, so no
    target needs a check of its own.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        data = InstanceData(rho, observables)
        values = tuple(b.evaluate(data) for b in entries)
        variance_sum = float(data.variances.sum())
        skew_sum = float(data.skews.sum())
    if not (math.isfinite(variance_sum) and math.isfinite(skew_sum)):
        raise ValueError(
            f"non-finite sums (variance {variance_sum!r}, skew {skew_sum!r}): "
            "float64 overflow, the observables' entries are too large"
        )
    for b in values:
        if b.applicable and not math.isfinite(b.value):
            raise ValueError(f"bound {b.name} has a non-finite value {b.value!r}")
    return variance_sum, skew_sum, values


def bound_theorem1(rho, observables, budget: int = DEFAULT_BUDGET) -> BoundValue:
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
    check_budget(obs.dim, obs.n, budget)
    return _evaluate(state, obs, BOUNDS[:1])[2][0]  # BOUNDS[0] is theorem1


def _standalone(bound: Bound):
    """``bound_<name>(rho, observables)``: the entry on its own instance data."""

    def func(rho, observables) -> BoundValue:
        return _evaluate(rho, observables, (bound,))[2][0]

    func.__name__ = func.__qualname__ = f"bound_{bound.name}"
    func.__doc__ = bound.formula.__doc__
    return func


# name -> public bound function; evaluate_all reads the table, not this mapping
_BOUND_FUNCS = {b.name: _standalone(b) for b in BOUNDS} | {"theorem1": bound_theorem1}
bound_song = _BOUND_FUNCS["song"]
bound_chen_variance = _BOUND_FUNCS["chen_variance"]
bound_mp_quadratic = _BOUND_FUNCS["mp_quadratic"]
bound_robertson = _BOUND_FUNCS["robertson"]
bound_theorem2a = _BOUND_FUNCS["theorem2a"]
bound_theorem2b = _BOUND_FUNCS["theorem2b"]
bound_zhang = _BOUND_FUNCS["zhang"]
bound_chen_skew = _BOUND_FUNCS["chen_skew"]
bound_parallelogram_sum = _BOUND_FUNCS["parallelogram_sum"]
bound_parallelogram_diff = _BOUND_FUNCS["parallelogram_diff"]


def _tightest(bounds, family):
    best_name = None
    best_val = -math.inf
    for b in bounds:
        if b.family != family or not b.applicable:
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
    once and every catalog entry is evaluated over it. A bound is flagged
    as a violation when its value exceeds its target by more than
    ``tolerance * max(1, target)``; with correct arithmetic that never
    happens, so the violations list doubles as a numerical check. A
    non-finite sum or bound raises ``ValueError`` rather than passing that
    check, and so does a non-finite ``tolerance``, which would disable it.
    Tightest bounds are the largest applicable value per family, ties going
    to the earlier catalog entry.
    """
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance!r}")
    state, obs = _coerce(rho, observables)
    check_budget(obs.dim, obs.n, budget)
    variance_sum, skew_sum, values = _evaluate(state, obs, BOUNDS)

    violations = []
    for b in values:
        if not b.applicable:
            continue
        target = _target(b, variance_sum, skew_sum)
        if b.value > target + tolerance * max(1.0, target):
            violations.append(b.name)

    return BoundReport(
        variance_sum=variance_sum,
        skew_sum=skew_sum,
        bounds=values,
        violations=tuple(violations),
        tightest_variance=_tightest(values, "variance"),
        tightest_skew=_tightest(values, "skew"),
        metadata=dict(metadata or {}),
    )
