"""Lower bounds on sums of variances and of skew informations.

The catalog is one table, :data:`BOUNDS`: one entry per bound with its
name, family, the observable counts it applies to, and a formula over
:class:`InstanceData`, which holds a batch of instances along a leading
axis, or over the ``variance`` or ``skew`` :class:`QuadraticForm` it names;
amplitude vectors are computed only when a formula reads them.
``evaluate_batch`` evaluates every entry on a batch of instances that
share one (d, N), flags numerical violations, and picks the tightest bound
per family and instance. ``evaluate_all`` and each
``bound_<name>(rho, observables)`` are the batch of one; all of them are
one call to the same pass, ``_evaluate``.

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
from typing import NamedTuple

import numpy as np

from . import _kernels
from .linalg import HermitianMatrix
from .measures import NEGATIVE_CLAMP
from .states import DensityMatrix

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


def check_tolerance(tolerance: float):
    """Raise ``ValueError`` unless the violation tolerance is finite and
    non-negative: a NaN or infinite one would disable the violation check,
    and a negative one would flag correct values."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")


def _finite_number(x, where: str) -> float:
    """``x`` as a float; ``ValueError`` naming ``where`` unless it is a finite
    real number (a string, a bool, NaN or an infinity is not)."""
    try:
        value = float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {x!r}")
    return value


class ObservableSet:
    """Two or more Hermitian observables sharing one dimension."""

    __slots__ = ("observables",)

    def __init__(self, observables):
        items = tuple(HermitianMatrix.coerce(o) for o in observables)
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
        value = data["value"]
        if value is not None:
            value = _finite_number(value, f"bound {data['name']} value")
        bv = cls(name=data["name"], value=value, detail=detail)
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
            variance_sum=_finite_number(data["variance_sum"], "variance_sum"),
            skew_sum=_finite_number(data["skew_sum"], "skew_sum"),
            bounds=tuple(BoundValue.from_dict(b) for b in data["bounds"]),
            violations=tuple(data["violations"]),
            tightest_variance=data["tightest_variance"],
            tightest_skew=data["tightest_skew"],
            metadata=dict(data.get("metadata") or {}),
        )


def _coerce_batch(instances) -> tuple[list, list]:
    """The validated states and observable sets of ``(state, observables)``
    pairs, which must share one dimension d and observable count N."""
    states, sets = [], []
    for rho, observables in instances:
        state = DensityMatrix.coerce(rho)
        obs = ObservableSet.coerce(observables)
        if obs.dim != state.dim:
            raise ValueError(f"dimension mismatch: state {state.dim}, observables {obs.dim}")
        states.append(state)
        sets.append(obs)
    cells = {(obs.dim, obs.n) for obs in sets}
    if len(cells) > 1:
        raise ValueError(f"a batch needs one (dimension, observable count), got {sorted(cells)}")
    return states, sets


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j, in lexicographic order."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


class QuadraticForm(NamedTuple):
    """A positive semidefinite form q on each instance's observables, batch
    first: q(A_i), q(A_i +- A_j) over :func:`_pairs`, and q(sum A)."""

    diag: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    total: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[1]


def _quadratic_forms(m: np.ndarray, scale: np.ndarray, what: str) -> QuadraticForm:
    """The :class:`QuadraticForm` of each (B, N, N) batch entry of correlation
    matrices: m_ii, m_ii + m_jj +- 2 m_ij and the sum of all entries.

    Each form goes through the ``NEGATIVE_CLAMP`` rule of
    :func:`measures.variance`: round-off below zero snaps to 0, anything
    below ``NEGATIVE_CLAMP * max(1, s)`` raises, where s is the matching sum
    of diagonal entries of ``scale`` (N times its trace for the total).
    """
    b, n, _ = m.shape
    i, j = _pairs(n)
    p = i.shape[0]
    diag = np.diagonal(m, axis1=1, axis2=2)
    scale_diag = np.diagonal(scale, axis1=1, axis2=2)
    pair_scale = scale_diag[:, i] + scale_diag[:, j]
    pair_diag = diag[:, i] + diag[:, j]
    cross = 2.0 * m[:, i, j]
    total = m.reshape(b, -1).sum(axis=1, keepdims=True)
    scale_total = n * scale_diag.sum(axis=1, keepdims=True)
    forms = np.concatenate((diag, pair_diag + cross, pair_diag - cross, total), axis=1)
    scales = np.concatenate((scale_diag, pair_scale, pair_scale, scale_total), axis=1)
    bad = forms < NEGATIVE_CLAMP * np.maximum(1.0, np.abs(scales))
    if bad.any():
        raise ValueError(f"{what} {forms[bad][0]} is negative beyond round-off")
    forms = np.where(forms < 0.0, 0.0, forms)
    return QuadraticForm(forms[:, :n], forms[:, n : n + p], forms[:, n + p : -1], forms[:, -1])


class InstanceData:
    """Everything the catalog needs from a batch of B (state, observables)
    pairs sharing one (d, N), computed once; every bound is a short formula
    over it. Every array has the batch as its leading axis.

    * ``moments``: tr(rho A_i A_j), complex;
    * ``variance``: the :class:`QuadraticForm` of the covariance matrices
      C_ij = Re tr(rho A_i A_j) - <A_i><A_j>, clamped against Re tr(rho A_i A_j);
    * ``skew``: that of the Wigner-Yanase correlation matrices
      K_ij = (1/2) Re <[sqrt(rho), A_i], [sqrt(rho), A_j]>, clamped against K;
    * ``amplitudes``: the (B, N, d) stack of amplitude vectors, computed on
      first read.

    ``InstanceData(rho, observables)`` is the batch of one. Each instance's
    numbers go through the operations they would go through alone, in the
    same order, so batching changes no bits.
    """

    def __init__(self, rho, observables):
        self._build(*_coerce_batch([(rho, observables)]))

    def _build(self, states, sets):
        """Fill in the arrays from states and observable sets that
        :func:`_coerce_batch` has validated."""
        b, n = len(states), sets[0].n
        self.n = n
        rho = np.array([s.mat for s in states])
        a = np.array([[o.mat for o in obs] for obs in sets])
        self._rho, self._a, self._sets = rho, a, sets
        ra = rho[:, None] @ a
        means = np.trace(ra, axis1=2, axis2=3).real
        # tr(rho A_i A_j) = sum_kl (rho A_i)_kl conj((A_j)_kl) for Hermitian A_j
        self.moments = ra.reshape(b, n, -1) @ a.reshape(b, n, -1).conj().transpose(0, 2, 1)
        second = self.moments.real
        cov = second - means[:, :, None] * means[:, None, :]
        root = np.array([s.sqrt().mat for s in states])[:, None]
        comm = (root @ a - a @ root).reshape(b, n, -1).view(np.float64)
        skew_corr = 0.5 * (comm @ comm.transpose(0, 2, 1))
        self.variance = _quadratic_forms(cov, second, "variance")
        self.skew = _quadratic_forms(skew_corr, skew_corr, "skew information")

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The amplitude vectors of :func:`measures.amplitude_vector`; one
        mean einsum per observable, since a single einsum over all N of them
        sums <A_k> in another order."""
        rho, a, n = self._rho, self._a, self.n
        eigs = [[o.eigensystem for o in obs] for obs in self._sets]
        values = np.array([[e.values for e in row] for row in eigs])
        vectors = np.array([[e.vectors for e in row] for row in eigs])
        mean = np.stack([np.einsum("bij,bji->b", rho, a[:, k]) for k in range(n)], axis=1).real
        probs = np.einsum("bnik,bij,bnjk->bnk", vectors.conj(), rho, vectors).real
        probs = np.clip(probs, 0.0, None)
        return np.abs(values - mean[:, :, None]) * np.sqrt(probs)


def _root_sum_sq(values: np.ndarray) -> np.ndarray:
    """(sum_k sqrt(values_k))^2 over the last axis."""
    root = np.sqrt(values).sum(axis=-1)
    return root * root


# the formulas: each maps its entry's form or the instance data to (values,
# details), values with one entry per instance and details a list, or None
def _theorem1(q: InstanceData):
    """The permutation scan's maximum and its maximizing tuple."""
    best, perms = _kernels.theorem1_scan(q.amplitudes)
    return best, [PermutationTuple(p) for p in perms]


def _song(f: QuadraticForm):
    """Bound (1/N) * ( q(sum A) + (2 / (N (N - 1))) * (sum_{i<j} sqrt(q(A_i - A_j)))^2 )
    over a form q: Song's on the variance sum, Zhang's on the skew sum."""
    n = f.n
    val = (f.total + 2.0 / (n * (n - 1.0)) * _root_sum_sq(f.minus)) / n
    return val, None


def _chen_variance(q: InstanceData):
    """Variance bound built from ascending-sorted amplitude vectors.

    With b_i the sorted amplitude vector of A_i and the step h = 1 at N = 2,
    0 otherwise:

        (1 / (2^h N - 2)) * ( sum_{i<j} ||b_i + b_j||^2
                              + ((h - 1) / (N - 1)^2) * (sum_{i<j} ||b_i + b_j||)^2 )
    """
    n = q.n
    b = np.sort(q.amplitudes, axis=2)
    i, j = _pairs(n)
    s = b[:, i] + b[:, j]
    sq_norms = np.einsum("bpk,bpk->bp", s, s)
    h = 1.0 if n == 2 else 0.0
    pref = 1.0 / (2.0**h * n - 2.0)
    coef = (h - 1.0) / (n - 1.0) ** 2
    val = pref * (sq_norms.sum(axis=1) + coef * _root_sum_sq(sq_norms))
    return val, None


def _mp_quadratic(f: QuadraticForm):
    """Two-observable quadratic bound (1/2) (Delta(A + B))^2."""
    return 0.5 * f.plus[:, 0], None


def _robertson(q: InstanceData):
    """Product bound Delta A * Delta B >= (1/2) |tr(rho [A, B])|.

    The detail carries the product it bounds, since the target is not the
    variance sum.
    """
    # Python's complex abs, which is libm hypot as for one instance alone;
    # numpy's vectorized complex abs rounds differently on many inputs
    val = np.array([0.5 * abs(z) for z in (q.moments[:, 0, 1] - q.moments[:, 1, 0]).tolist()])
    product = np.sqrt(q.variance.diag[:, 0]) * np.sqrt(q.variance.diag[:, 1])
    return val, [{"delta_product": x} for x in product.tolist()]


def _theorem2a(f: QuadraticForm):
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i + A_j)))^2
    + sum_{i<j} I(A_i - A_j) )."""
    n = f.n
    val = (2.0 / (n * (n - 1.0)) * _root_sum_sq(f.plus) + f.minus.sum(axis=1)) / (2.0 * n - 2.0)
    return val, None


def _theorem2b(f: QuadraticForm):
    """Skew bound (1 / (2N - 2)) * ( (2 / (N (N - 1))) * (sum_{i<j} sqrt(I(A_i - A_j)))^2
    + sum_{i<j} I(A_i + A_j) )."""
    n = f.n
    val = (2.0 / (n * (n - 1.0)) * _root_sum_sq(f.minus) + f.plus.sum(axis=1)) / (2.0 * n - 2.0)
    return val, None


def _chen_skew(f: QuadraticForm):
    """Skew bound (1 / (N - 2)) * ( sum_{i<j} I(A_i + A_j)
    - (1 / (N - 1)^2) * (sum_{i<j} sqrt(I(A_i + A_j)))^2 ), three observables up."""
    n = f.n
    val = (f.plus.sum(axis=1) - _root_sum_sq(f.plus) / (n - 1.0) ** 2) / (n - 2.0)
    return val, None


def _parallelogram_sum(f: QuadraticForm):
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i + A_j)."""
    return f.plus.sum(axis=1) / (2.0 * f.n - 2.0), None


def _parallelogram_diff(f: QuadraticForm):
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i - A_j)."""
    return f.minus.sum(axis=1) / (2.0 * f.n - 2.0), None


@dataclass(frozen=True)
class Bound:
    """One catalog entry: the bound's name and family, the observable counts
    ``min_n <= N <= max_n`` it applies to, its formula, and the form it
    reads, ``"variance"`` or ``"skew"``, or None for the instance data."""

    name: str
    family: str
    formula: Callable[..., tuple]
    form: str | None = None
    min_n: int = 2
    max_n: float = math.inf


BOUNDS = (
    Bound("theorem1", "variance", _theorem1),
    Bound("song", "variance", _song, "variance"),
    Bound("chen_variance", "variance", _chen_variance),
    Bound("mp_quadratic", "variance", _mp_quadratic, "variance", max_n=2),
    Bound("robertson", "product", _robertson, max_n=2),
    Bound("theorem2a", "skew", _theorem2a, "skew"),
    Bound("theorem2b", "skew", _theorem2b, "skew"),
    Bound("zhang", "skew", _song, "skew"),
    Bound("chen_skew", "skew", _chen_skew, "skew", min_n=3),
    Bound("parallelogram_sum", "skew", _parallelogram_sum, "skew"),
    Bound("parallelogram_diff", "skew", _parallelogram_diff, "skew"),
)
FAMILY = {b.name: b.family for b in BOUNDS}
CATALOG = tuple(FAMILY)


def _evaluate(instances, entries, budget=None, tolerance=DEFAULT_TOLERANCE) -> list:
    """One :class:`BoundReport` per ``(state, observables)`` pair of
    ``instances`` over the table ``entries``: the one pass behind every
    public entry point. The batch is validated once; one loop per instance
    then checks, flags and ranks its values in table order.

    float64 overflow is reported here, as a ``ValueError`` on a non-finite
    sum or applicable value, not by numpy warnings; instances are checked in
    order, each as it would be alone. A finite variance sum keeps the
    product target sqrt(Var A_1) * sqrt(Var A_2) finite too, so no target
    needs a check of its own.
    """
    check_tolerance(tolerance)
    states, sets = _coerce_batch(instances)
    if not states:
        return []
    n = sets[0].n
    if budget is not None:
        check_budget(sets[0].dim, n, budget)
    with np.errstate(over="ignore", invalid="ignore"):
        data = InstanceData.__new__(InstanceData)
        data._build(states, sets)
        columns = [(b, *b.formula(getattr(data, b.form) if b.form else data))
                   if b.min_n <= n <= b.max_n else (b, None, None) for b in entries]
        variance_sums = data.variance.diag.sum(axis=1).tolist()
        skew_sums = data.skew.diag.sum(axis=1).tolist()
    reports = []
    for k, (variance_sum, skew_sum) in enumerate(zip(variance_sums, skew_sums)):
        if not (math.isfinite(variance_sum) and math.isfinite(skew_sum)):
            raise ValueError(
                f"non-finite sums (variance {variance_sum!r}, skew {skew_sum!r}): "
                "float64 overflow, the observables' entries are too large"
            )
        bounds, violations = [], []
        best = {}  # family -> (name, value) of its largest value; a tie keeps the first
        for b, values, details in columns:
            value = None if values is None else values.item(k)
            bv = BoundValue(b.name, value, None if details is None else details[k])
            bounds.append(bv)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"bound {b.name} has a non-finite value {value!r}")
            target = _target(bv, variance_sum, skew_sum)
            if value > target + tolerance * max(1.0, target):
                violations.append(b.name)
            if value > best.get(b.family, (None, -math.inf))[1]:
                best[b.family] = (b.name, value)
        reports.append(
            BoundReport(
                variance_sum=variance_sum,
                skew_sum=skew_sum,
                bounds=tuple(bounds),
                violations=tuple(violations),
                tightest_variance=best.get("variance", (None,))[0],
                tightest_skew=best.get("skew", (None,))[0],
            )
        )
    return reports


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
    return _evaluate([(rho, observables)], BOUNDS[:1], budget)[0].bounds[0]  # BOUNDS[0] is theorem1


def _standalone(bound: Bound):
    """``bound_<name>(rho, observables)``: the entry on its own instance data."""

    def func(rho, observables) -> BoundValue:
        return _evaluate([(rho, observables)], (bound,))[0].bounds[0]

    func.__name__ = func.__qualname__ = f"bound_{bound.name}"
    func.__doc__ = bound.formula.__doc__
    return func


# name -> public bound function; evaluate_batch reads the table, not this mapping
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


def evaluate_batch(
    instances,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list:
    """Evaluate the full bound catalog on each ``(state, observables)`` pair
    of ``instances`` and return one :class:`BoundReport` per pair, in order.

    The pairs must share one dimension d and observable count N; a mixed
    batch raises ``ValueError``. The Theorem-1 budget is checked before
    anything is computed; then the instance data is built once for the
    whole batch and every catalog entry is evaluated over it. Each report
    holds the same bits it would hold if its instance were evaluated alone.
    A bound is flagged as a violation when its value exceeds its target by
    more than ``tolerance * max(1, target)``; with correct arithmetic that
    never happens, so the violations list doubles as a numerical check. A
    non-finite sum or bound raises ``ValueError`` rather than passing that
    check, and so does a non-finite or negative ``tolerance``, which would
    disable it or flag correct values. Tightest bounds are the largest
    applicable value per family, ties going to the earlier catalog entry.
    """
    return _evaluate(instances, BOUNDS, budget, tolerance)


def evaluate_all(
    rho,
    observables,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
    metadata: dict | None = None,
) -> BoundReport:
    """:func:`evaluate_batch` on the batch of one ``(rho, observables)``,
    with ``metadata`` copied into the report."""
    report = evaluate_batch([(rho, observables)], budget=budget, tolerance=tolerance)[0]
    report.metadata.update(metadata or {})
    return report
