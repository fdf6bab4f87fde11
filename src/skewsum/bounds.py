"""Lower bounds on sums of variances and of skew informations.

The catalog is one table, :data:`BOUNDS`: one entry per bound with its
name, family, the observable counts it applies to, and a formula over
:class:`InstanceData`, which holds a batch of instances along a leading
axis, or over the :class:`QuadraticForm` it names: ``variance``, ``skew``
or ``sorted_amplitudes``, so that one formula serves several entries;
amplitude vectors are computed only when a formula reads them.
``evaluate_table`` evaluates every entry on a batch of instances that
share one (d, N), flags numerical violations, and picks the tightest bound
per family and instance, as the columns of one :class:`BoundTable`;
``evaluate_batch`` turns that table into one report per instance.
``evaluate_all`` and each ``bound_<name>(rho, observables)`` are the batch
of one; all of them are one call to the same pass, ``_evaluate``.

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
from .measures import _amplitude_vectors, _clamp, _moments, _skew_gram
from .states import DensityMatrix, PureState

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


def _target(family: str, variance_sum, skew_sum, detail):
    """The quantity a bound of ``family`` is a lower bound on: the variance
    or skew sum by family, or else the product a product bound carries in
    its detail, None without one. Takes one instance's sums and detail, or
    a batch's sum columns and list of details, and answers in kind."""
    if family == "variance":
        return variance_sum
    if family == "skew":
        return skew_sum
    if isinstance(detail, list):
        return np.array([_target(family, None, None, d) for d in detail])
    if isinstance(detail, dict):
        return detail.get("delta_product")
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
        detail = bv.detail if bv.applicable else None
        return _target(bv.family, self.variance_sum, self.skew_sum, detail)

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
        """The report ``to_dict`` wrote; ``ValueError`` naming the field
        unless the bounds are the catalog in order, each violation is an
        applicable bound named once, and each ``tightest_*`` is None or an
        applicable bound of its family."""
        bounds = tuple(BoundValue.from_dict(b) for b in data["bounds"])
        names = tuple(b.name for b in bounds)
        if names != CATALOG:
            raise ValueError(f"bounds: expected {', '.join(CATALOG)}, got {', '.join(names)}")
        applicable = [b.name for b in bounds if b.applicable]
        violations = tuple(data["violations"])
        for k, name in enumerate(violations):
            if name not in applicable:
                raise ValueError(f"violations: {name!r} is not an applicable bound")
            if name in violations[:k]:
                raise ValueError(f"violations: {name!r} is repeated")
        for family in ("variance", "skew"):
            name = data[f"tightest_{family}"]
            if name is not None and not (name in applicable and FAMILY[name] == family):
                raise ValueError(
                    f"tightest_{family}: {name!r} is not an applicable {family} bound"
                )
        return cls(
            variance_sum=_finite_number(data["variance_sum"], "variance_sum"),
            skew_sum=_finite_number(data["skew_sum"], "skew_sum"),
            bounds=bounds,
            violations=violations,
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

    Each form goes through :func:`measures._clamp`: round-off below zero
    snaps to 0, anything below ``NEGATIVE_CLAMP * max(1, s)`` raises, where
    s is the matching sum of diagonal entries of ``scale`` (N times its
    trace for the total).
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
    forms = _clamp(forms, scales, what)
    return QuadraticForm(forms[:, :n], forms[:, n : n + p], forms[:, n + p : -1], forms[:, -1])


def _vector_form(v: np.ndarray) -> QuadraticForm:
    """The :class:`QuadraticForm` of a (B, N, k) stack of real vectors:
    ||v_i||^2, ||v_i +- v_j||^2 over :func:`_pairs` and ||sum v||^2, never
    negative. One einsum squares them all, each row summed over its own k."""
    n = v.shape[1]
    i, j = _pairs(n)
    p = i.shape[0]
    vi, vj = v[:, i], v[:, j]
    rows = np.concatenate((v, vi + vj, vi - vj, v.sum(axis=1, keepdims=True)), axis=1)
    sq = np.einsum("bpk,bpk->bp", rows, rows)
    return QuadraticForm(sq[:, :n], sq[:, n : n + p], sq[:, n + p : -1], sq[:, -1])


class InstanceData:
    """Everything the catalog needs from a batch of B (state, observables)
    pairs sharing one (d, N), computed once; every bound is a short formula
    over it. Every array has the batch as its leading axis.

    * ``moments``: tr(rho A_i A_j), complex;
    * ``variance``: the :class:`QuadraticForm` of the covariance matrices
      C_ij = Re tr(rho A_i A_j) - <A_i><A_j>, clamped against Re tr(rho A_i A_j);
    * ``skew``: that of the Wigner-Yanase correlation matrices
      K_ij = (1/2) Re <[sqrt(rho), A_i], [sqrt(rho), A_j]>, clamped against K;
      for a :class:`PureState`, sqrt(rho) = rho and K = C, so an all-pure
      batch's skew form is its variance form, the same object;
    * ``amplitudes``, the (B, N, d) amplitude vectors, and ``sorted_amplitudes``,
      their :func:`_vector_form` sorted ascending, both computed on first read.

    ``InstanceData(rho, observables)`` is the batch of one. Each instance's
    numbers go through the operations they would go through alone, in the
    same order, so batching changes no bits.
    """

    def __init__(self, rho, observables):
        self._build(*_coerce_batch([(rho, observables)]))

    def _build(self, states, sets):
        """Fill in the arrays from states and observable sets that
        :func:`_coerce_batch` has validated."""
        self.n = sets[0].n
        rho = np.array([s.mat for s in states])
        a = np.array([[o.mat for o in obs] for obs in sets])
        self._rho, self._a, self._sets = rho, a, sets
        _, self.moments, cov = _moments(rho, a)
        # sqrt(rho) = rho for a pure state, so K = C there: an all-pure batch
        # has one form, and the commutator Gram runs over the mixed states only
        self.variance = self.skew = _quadratic_forms(cov, self.moments.real, "variance")
        mixed = [k for k, s in enumerate(states) if not isinstance(s, PureState)]
        if mixed:
            skew_corr, skew_scale = cov.copy(), self.moments.real.copy()
            root = np.array([states[k].sqrt().mat for k in mixed])
            skew_corr[mixed] = skew_scale[mixed] = _skew_gram(root, a[mixed])
            self.skew = _quadratic_forms(skew_corr, skew_scale, "skew information")

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        return _amplitude_vectors(self._rho, self._a, self._sets)

    @functools.cached_property
    def sorted_amplitudes(self) -> QuadraticForm:
        return _vector_form(np.sort(self.amplitudes, axis=2))


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


def _chen(f: QuadraticForm):
    """Bound (1 / (N - 2)) * ( sum_{i<j} q(A_i + A_j)
    - (1 / (N - 1)^2) * (sum_{i<j} sqrt(q(A_i + A_j)))^2 ) over a form q, and
    the parallelogram sum at N = 2: ``chen_variance`` over the form of the
    ascending-sorted amplitude vectors b_i, q(A_i + A_j) = ||b_i + b_j||^2,
    and ``chen_skew`` over the skew form, three observables up."""
    n = f.n
    if n == 2:
        return _parallelogram_sum(f)
    # chen_variance's bits; "- R / (N - 1)^2" rounds otherwise at N = 4
    val = 1.0 / (n - 2.0) * (f.plus.sum(axis=1) + -1.0 / (n - 1.0) ** 2 * _root_sum_sq(f.plus))
    return val, None


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


def _parallelogram_sum(f: QuadraticForm):
    """Bound (1 / (2N - 2)) * sum_{i<j} q(A_i + A_j) over a form q:
    ``parallelogram_sum`` on the skew sum, ``mp_quadratic``, (1/2) (Delta(A + B))^2,
    on the variance sum at N = 2, and ``chen_variance`` at N = 2."""
    return f.plus.sum(axis=1) / (2.0 * f.n - 2.0), None


def _parallelogram_diff(f: QuadraticForm):
    """Skew bound (1 / (2N - 2)) * sum_{i<j} I(A_i - A_j)."""
    return f.minus.sum(axis=1) / (2.0 * f.n - 2.0), None


@dataclass(frozen=True)
class Bound:
    """One catalog entry: the bound's name and family, the observable counts
    ``min_n <= N <= max_n`` it applies to, its formula, and the name of the
    :class:`InstanceData` form it reads, or None for the instance data."""

    name: str
    family: str
    formula: Callable[..., tuple]
    form: str | None = None
    min_n: int = 2
    max_n: float = math.inf


BOUNDS = (
    Bound("theorem1", "variance", _theorem1),
    Bound("song", "variance", _song, "variance"),
    Bound("chen_variance", "variance", _chen, "sorted_amplitudes"),
    Bound("mp_quadratic", "variance", _parallelogram_sum, "variance", max_n=2),
    Bound("robertson", "product", _robertson, max_n=2),
    Bound("theorem2a", "skew", _theorem2a, "skew"),
    Bound("theorem2b", "skew", _theorem2b, "skew"),
    Bound("zhang", "skew", _song, "skew"),
    Bound("chen_skew", "skew", _chen, "skew", min_n=3),
    Bound("parallelogram_sum", "skew", _parallelogram_sum, "skew"),
    Bound("parallelogram_diff", "skew", _parallelogram_diff, "skew"),
)
FAMILY = {b.name: b.family for b in BOUNDS}
CATALOG = tuple(FAMILY)


class BoundTable(NamedTuple):
    """The results of one batch as columns: one row per instance, in order,
    and one column per catalog entry, in table order.

    * ``names``: each column's bound;
    * ``applicable``: whether each column's bound applies at the batch's N;
    * ``values``: (B, E), NaN where the bound does not apply;
    * ``violated``: (B, E) bool, ``value > target + tolerance * max(1, target)``
      with each value's target as :meth:`BoundReport.target_for` gives it;
    * ``tightest``: family -> (B,) column index of the largest applicable
      value, the first of equal ones, for each family with an applicable
      column;
    * ``variance_sums``, ``skew_sums``: (B,);
    * ``details``: per column, a list of B details, or None.

    Every value is finite where its bound applies: :func:`_evaluate` raises
    before it returns a table that is not.
    """

    names: tuple
    applicable: tuple
    values: np.ndarray
    violated: np.ndarray
    tightest: dict
    variance_sums: np.ndarray
    skew_sums: np.ndarray
    details: tuple

    def violations(self, k: int) -> tuple:
        """The names of instance ``k``'s violated bounds, in table order."""
        return tuple(name for name, v in zip(self.names, self.violated[k].tolist()) if v)

    def reports(self) -> list:
        """One :class:`BoundReport` per instance, in order."""
        b = len(self.values)
        # a bound that does not apply reads the same in every report, and
        # a BoundValue is immutable, so its reports share one
        columns = [
            (e, name, [None] * b if detail is None else detail, None if applies
             else BoundValue(name, None, None))
            for e, (name, applies, detail) in enumerate(
                zip(self.names, self.applicable, self.details)
            )
        ]
        picks = {f: [self.names[e] for e in cols.tolist()] for f, cols in self.tightest.items()}
        no_pick = [None] * b
        return [
            BoundReport(
                variance_sum=variance_sum,
                skew_sum=skew_sum,
                bounds=tuple(
                    shared or BoundValue(name, row[e], detail[k])
                    for e, name, detail, shared in columns
                ),
                violations=self.violations(k),
                tightest_variance=picks.get("variance", no_pick)[k],
                tightest_skew=picks.get("skew", no_pick)[k],
            )
            for k, (variance_sum, skew_sum, row) in enumerate(
                zip(self.variance_sums.tolist(), self.skew_sums.tolist(), self.values.tolist())
            )
        ]


def _check_finite(rows: np.ndarray, names: list, applicable: list):
    """Raise ``ValueError`` for the first instance, in order, with a
    non-finite sum or applicable value; ``rows`` holds each instance's
    variance sum, skew sum and values as a column, and a value that does
    not apply is NaN. The sums are checked first, then the values in table
    order, as if the instance were evaluated alone."""
    finite = np.isfinite(rows)
    if np.count_nonzero(finite) == (2 + sum(applicable)) * rows.shape[1]:
        return
    k = int(np.argmin(finite[:2].all(axis=0) & finite[2:][list(applicable)].all(axis=0)))
    variance_sum, skew_sum = rows.item(0, k), rows.item(1, k)
    if not (math.isfinite(variance_sum) and math.isfinite(skew_sum)):
        raise ValueError(
            f"non-finite sums (variance {variance_sum!r}, skew {skew_sum!r}): "
            "float64 overflow, the observables' entries are too large"
        )
    e = next(e for e, a in enumerate(applicable) if a and not finite[2 + e, k])
    raise ValueError(f"bound {names[e]} has a non-finite value {rows.item(2 + e, k)!r}")


def _evaluate(instances, entries, budget=None, tolerance=DEFAULT_TOLERANCE) -> BoundTable:
    """The :class:`BoundTable` of ``(state, observables)`` pairs over the
    catalog ``entries``: the one pass behind every public entry point. The
    batch is validated once; its instance data is built once, each entry's
    formula runs once over it, and the whole table is checked, flagged and
    ranked at once.

    float64 overflow is reported here, as a ``ValueError`` on a non-finite
    sum or applicable value, not by numpy warnings; instances are checked in
    order, each as it would be alone. A finite variance sum keeps the
    product target sqrt(Var A_1) * sqrt(Var A_2) finite too, so no target
    needs a check of its own.
    """
    check_tolerance(tolerance)
    states, sets = _coerce_batch(instances)
    n = sets[0].n if states else 0
    if budget is not None and states:
        check_budget(sets[0].dim, n, budget)
    # a bound that does not apply reads NaN, and so does its target: it is
    # never violated, and no tightest pick reads its column
    nan = np.full(len(states), np.nan)
    variance_sums = skew_sums = nan
    # the table is built column-major, (E, B), and transposed on return
    names, applicable, values, targets, details = [], [], [], [], []
    members = {"variance": [], "skew": []}  # family -> the applicable columns of its bounds
    with np.errstate(over="ignore", invalid="ignore"):
        if states:
            data = InstanceData.__new__(InstanceData)
            data._build(states, sets)
            variance_sums = data.variance.diag.sum(axis=1)
            skew_sums = data.skew.diag.sum(axis=1)
        for entry in entries:
            applies = bool(states) and entry.min_n <= n <= entry.max_n
            value, detail, target = nan, None, nan
            if applies:
                value, detail = entry.formula(getattr(data, entry.form) if entry.form else data)
                target = _target(entry.family, variance_sums, skew_sums, detail)
                members.get(entry.family, []).append(len(names))
            names.append(entry.name)
            applicable.append(applies)
            values.append(value)
            targets.append(target)
            details.append(detail)
        rows = np.array([variance_sums, skew_sums, *values])
        _check_finite(rows, names, applicable)
        values, targets = rows[2:], np.array(targets)
        violated = values > targets + tolerance * np.maximum(1.0, targets)
    # every ranked value is finite, so argmax picks the first of equal maxima
    tightest = {f: np.array(cols)[values[cols].argmax(axis=0)] for f, cols in members.items() if cols}
    return BoundTable(
        tuple(names), tuple(applicable), values.T, violated.T,
        tightest, rows[0], rows[1], tuple(details),
    )


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
    return _evaluate([(rho, observables)], BOUNDS[:1], budget).reports()[0].bounds[0]  # theorem1


def _standalone(bound: Bound):
    """``bound_<name>(rho, observables)``: the entry on its own instance data."""

    def func(rho, observables) -> BoundValue:
        return _evaluate([(rho, observables)], (bound,)).reports()[0].bounds[0]

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
    return evaluate_table(instances, budget, tolerance).reports()


def evaluate_table(
    instances,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BoundTable:
    """:func:`evaluate_batch`'s results as one :class:`BoundTable`, with
    no report objects, for callers that read columns, such as a sweep. The
    same checks raise, with the same messages."""
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
