"""Closed-form certificates for a kernel and a nearby approximating kernel.

Every evaluator takes the scalar closeness constants (``a``, ``alpha``,
``epsilon``) bundled in :class:`BoundParams` and returns the exact value of a
closed-form estimate: time-averaged disagreement, averaged-law TV distance,
second moments, concentration tails, stationary gaps, and decoupling-time
probabilities.  Regime violations raise :class:`InvalidRegimeError` rather
than returning NaN or infinity, so a returned number is always a certificate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidRegimeError
from .kernels import _count

__all__ = [
    "BoundParams",
    "BoundReport",
    "avg_disagreement_bound",
    "coupled_variance_bound",
    "coupled_concentration_bound",
    "coupled_concentration_threshold",
    "variance_of_time_average_bound",
    "base_concentration_bound",
    "base_concentration_threshold",
    "stationary_gap_bound",
    "decoupling_time_bound",
    "remark_perturbation_bounds",
    "remark_tail_threshold",
    "evaluate_report_table",
]


@dataclass(frozen=True)
class BoundParams:
    """Scalar inputs shared by the bound evaluators.

    Attributes
    ----------
    epsilon : float
        Worst-case row perturbation, a TV distance in [0, 1].
    n : int
        Averaging horizon (positive).
    alpha : float or None
        Cross contraction constant in [0, 1]; required by the coupled bounds.
    a : float or None
        Doeblin constant in (0, 1]; required by the single-chain bounds.
    p0 : float
        Initial disagreement probability, or the TV distance of the two
        initial laws, in [0, 1].
    f_star : float
        Half-oscillation seminorm of the observable (finite, nonnegative).

    Every real is checked by :func:`_require`: a bool or a non-number raises
    ValueError, and NaN fails every range like any other out-of-range value.
    """

    epsilon: float
    n: int
    alpha: float | None = None
    a: float | None = None
    p0: float = 0.0
    f_star: float = 0.0

    def __post_init__(self):
        _require_unit("epsilon", self.epsilon, InvalidRegimeError)
        object.__setattr__(self, "n", _count("n", self.n))
        _require_unit("p0", self.p0)
        _require_finite_nonnegative("f_star", self.f_star)
        if self.alpha is not None:
            _require_unit("alpha", self.alpha, InvalidRegimeError)
        if self.a is not None:
            _require("a", self.a, "in (0, 1]", lambda v: 0.0 < v <= 1.0, InvalidRegimeError)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: raw value, value after capping, and regime status."""

    name: str
    value: float | None
    raw: float | None
    capped: bool
    regime_ok: bool


def _require(name, value, rule, ok, error=ValueError):
    """The one test of a real scalar: a real number, not a bool, for which ``ok`` holds.

    Anything else raises ``error``, a ValueError.  Every comparison fails on
    NaN, so NaN is outside every rule.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number; {name} must be {rule}, got {value!r}")
    if not ok(value):
        raise error(f"{name} must be {rule}, got {value!r}")


def _require_unit(name, value, error=ValueError):
    _require(name, value, "in [0, 1]", lambda v: 0.0 <= v <= 1.0, error)


def _require_finite_nonnegative(name, value):
    _require(name, value, "finite and nonnegative", lambda v: 0.0 <= v < math.inf)


def _require_lambda(lam):
    """The deviation parameter of every tail bound and threshold: finite and positive."""
    _require("lambda", lam, "finite and positive", lambda v: 0.0 < v < math.inf)


def _require_contraction(alpha, epsilon):
    """Raise :class:`InvalidRegimeError` unless ``alpha + epsilon <= 1``.

    The test is on the rounded sum, not on ``epsilon > 1 - alpha``: with the
    exact constants of a kernel pair (``alpha = fl(1 - c)``, ``epsilon = d``
    for TV maxima ``d <= c``) the sum never rounds above 1, while the
    subtraction can lose the ulp that lets ``epsilon`` exceed ``1 - alpha``.
    So for user-given scalars a violation smaller than 2**-53 is accepted.
    """
    if alpha + epsilon > 1.0:
        raise InvalidRegimeError(
            f"alpha={alpha!r} + epsilon={epsilon!r} > 1: "
            "the dominating two-state chain does not contract"
        )


def _require_cross(params):
    if params.alpha is None:
        raise InvalidRegimeError("cross contraction constant alpha is required for this bound")
    s = params.alpha + params.epsilon
    if s <= 0.0:
        raise InvalidRegimeError("alpha + epsilon must be positive")
    _require_contraction(params.alpha, params.epsilon)
    return s


def _require_doeblin(params):
    if params.a is None:
        raise InvalidRegimeError("this bound needs a Doeblin constant a > 0; a base kernel "
                                 "whose rows do not all overlap has a = 0")
    return params.a


def _require_spread(name, value):
    _require(name, value, "finite and positive: at 0 (a constant f) the tail threshold is 0 "
             "and the tail event always happens", lambda v: 0.0 < v < math.inf, InvalidRegimeError)


def avg_disagreement_bound(params: BoundParams) -> float:
    """Exact occupation of the dominating chain: bounds the time-averaged disagreement.

    Value: ``e/s + w * (p0 - e/s)`` with ``s = alpha + epsilon``, ``e = epsilon``
    and the averaging weight ``w = (1 - (1-s)^n) / (n s)``.  Nondecreasing in
    ``p0`` and ``epsilon``, nonincreasing in ``alpha``; equals ``p0`` at n=1
    and tends to ``epsilon / s`` as n grows.

    Read with ``p0`` as the TV distance of two initial laws, the same value
    bounds the TV distance between the two time-averaged laws; it is attained
    with equality by an explicit two-state family (see
    :mod:`chain_perturb.sharpness`).
    """
    s = _require_cross(params)
    ratio = params.epsilon / s
    w = (1.0 - (1.0 - s) ** params.n) / (params.n * s)  # 1 - s >= 0: the pair contracts
    return ratio + w * (params.p0 - ratio)


def coupled_variance_bound(params: BoundParams) -> float:
    """Second moment of the difference of the two time averages of ``f``.

    Value: ``4 |f|_*^2 ( e^2/s^2 + 2/(n^2 s^2) + 2 alpha^2 / (n s^4) )`` with
    ``s = alpha + epsilon``.
    """
    s = _require_cross(params)
    e, alpha, n = params.epsilon, params.alpha, params.n
    return 4.0 * params.f_star ** 2 * (
        e ** 2 / s ** 2 + 2.0 / (n ** 2 * s ** 2) + 2.0 * alpha ** 2 / (n * s ** 4)
    )


def coupled_concentration_bound(lam, params: BoundParams) -> float:
    """Azuma tail ``exp(-(alpha+epsilon)^2 lambda^2 / 2)`` for the coupled averages."""
    s = _require_cross(params)
    _require_lambda(lam)
    return math.exp(-0.5 * s * s * lam * lam)


def coupled_concentration_threshold(lam, params: BoundParams, initial_disagreement=False) -> float:
    """Deviation level paired with :func:`coupled_concentration_bound`.

    ``e/s + 1{X0 differs}/(n s) + lambda/sqrt(n)`` -- the disagreement-average
    form; multiply by ``2 |f|_*`` for the f-average form.
    """
    s = _require_cross(params)
    _require_lambda(lam)
    ind = 1.0 if initial_disagreement else 0.0
    return params.epsilon / s + ind / (params.n * s) + lam / math.sqrt(params.n)


def variance_of_time_average_bound(params: BoundParams) -> float:
    """Second moment of ``(1/n) sum f(X_k) - mu f`` for a single chain: ``4|f|_*^2/(a^2 n) (2 + 8/n)``."""
    a = _require_doeblin(params)
    return 4.0 * params.f_star ** 2 / (a * a * params.n) * (2.0 + 8.0 / params.n)


def base_concentration_bound(lam, params: BoundParams) -> float:
    """Azuma tail ``2 exp(-a^2 lambda^2 / 32)`` for single-chain time averages.

    Returned uncapped: values above 1 document that the estimate is vacuous at
    that ``lambda``.
    """
    a = _require_doeblin(params)
    _require_lambda(lam)
    return 2.0 * math.exp(-a * a * lam * lam / 32.0)


def base_concentration_threshold(lam, params: BoundParams) -> float:
    """Deviation level paired with :func:`base_concentration_bound`: ``4|f|_*/(n a) + lambda |f|_*/sqrt(n)``."""
    a = _require_doeblin(params)
    _require_lambda(lam)
    _require_spread("f_star", params.f_star)
    return 4.0 * params.f_star / (params.n * a) + lam * params.f_star / math.sqrt(params.n)


def stationary_gap_bound(epsilon, a) -> float:
    """TV gap between the two stationary measures: ``epsilon / a`` (uncapped)."""
    params = BoundParams(epsilon=epsilon, n=1, a=a)  # epsilon and a read by its rules
    return params.epsilon / _require_doeblin(params)


def decoupling_time_bound(epsilon, expected_tau) -> float:
    """Probability the coupled pair separates before a stopping time: ``min(1, epsilon E[tau])``.

    At ``epsilon = 0`` the chains coincide and it is 0, even for ``E[tau] = inf``.
    """
    _require_unit("epsilon", epsilon)
    _require("expected_tau", expected_tau, "nonnegative", lambda v: v >= 0.0)
    return min(1.0, epsilon * expected_tau) if epsilon > 0.0 else 0.0


def remark_perturbation_bounds(params: BoundParams, f_inf, lam) -> tuple[float, float, float]:
    """Perturbation-route estimates built from the Poisson solution of the base chain.

    Returns ``(mean_bias, second_moment, tail)``: mean bias ``4 f_inf/(a n) +
    4 e f_inf / a``, second moment ``(3/a^2)(16 e^2 + 16/n^2) f_inf^2 + 12
    f_inf^2/(a^2 n)``, and the tail value ``2 exp(-a^2 lam^2/32)`` matching
    :func:`remark_tail_threshold`, uncapped like
    :func:`base_concentration_bound`.  All three are invariant under shifting
    the observable, so ``f_inf`` may validly be the half-oscillation ``|f|_*``.
    """
    a = _require_doeblin(params)
    _require_finite_nonnegative("f_inf", f_inf)
    tail = base_concentration_bound(lam, params)
    e, n = params.epsilon, params.n
    mean_bias = 4.0 * f_inf / (a * n) + 4.0 * e * f_inf / a
    second_moment = 3.0 / (a * a) * (16.0 * e * e + 16.0 / (n * n)) * f_inf ** 2 \
        + 12.0 / (a * a * n) * f_inf ** 2
    return mean_bias, second_moment, tail


def remark_tail_threshold(lam, params: BoundParams, f_inf) -> float:
    """Deviation level paired with the perturbation-route tail: ``(4/a)(e + 1/n) f_inf + lam f_inf/sqrt(n)``."""
    a = _require_doeblin(params)
    _require_lambda(lam)
    _require_spread("f_inf", f_inf)
    return 4.0 / a * (params.epsilon + 1.0 / params.n) * f_inf + lam * f_inf / math.sqrt(params.n)


def _remark(k):
    """Row value: entry ``k`` of :func:`remark_perturbation_bounds`, read with ``f_inf = |f|_*``."""
    return lambda p, lam, tau: remark_perturbation_bounds(p, p.f_star, lam)[k]


def _tail(value):
    """Row value of a single-chain tail: out of regime at ``f_star = 0``, as its threshold is."""
    def row(p, lam, tau):
        _require_spread("f_star", p.f_star)
        return value(p, lam, tau)
    return row


# The report table, in print order: (name, capped at 1, extra input, value).
# A row whose extra input, lambda or E[tau], is not given is left out.
_ROWS = (
    ("avg_disagreement", True, None, lambda p, lam, tau: avg_disagreement_bound(p)),
    # reads p0 as the TV distance of the initial laws: the same value
    ("averaged_tv", True, None, lambda p, lam, tau: avg_disagreement_bound(p)),
    ("coupled_variance", False, None, lambda p, lam, tau: coupled_variance_bound(p)),
    ("variance_of_time_average", False, None, lambda p, lam, tau: variance_of_time_average_bound(p)),
    ("coupled_concentration", True, "lam", lambda p, lam, tau: coupled_concentration_bound(lam, p)),
    ("base_concentration", True, "lam", _tail(lambda p, lam, tau: base_concentration_bound(lam, p))),
    ("stationary_gap", True, None, lambda p, lam, tau: stationary_gap_bound(p.epsilon, p.a)),
    ("decoupling_time", True, "tau", lambda p, lam, tau: decoupling_time_bound(p.epsilon, tau)),
    # a path functional measurable at the stopping time: the same value
    ("path_law", True, "tau", lambda p, lam, tau: decoupling_time_bound(p.epsilon, tau)),
    ("remark_mean_bias", False, "lam", _remark(0)),
    ("remark_second_moment", False, "lam", _remark(1)),
    ("remark_tail", True, "lam", _tail(_remark(2))),
)


def evaluate_report_table(params: BoundParams, lam=None, expected_tau=None) -> list[BoundReport]:
    """Evaluate every bound applicable to ``params`` as a list of reports.

    Bounds whose constants are missing or out of regime appear with
    ``regime_ok=False`` instead of raising, so the table is always complete.
    The tail rows require ``lam``; the decoupling rows require
    ``expected_tau``.  Probability- and TV-valued rows are capped at 1, the
    raw value kept.  The perturbation-route rows use ``params.f_star`` as the
    (centered) sup-norm of the observable.
    """
    if lam is not None:
        _require_lambda(lam)  # a bad lambda is an input error, not a regime failure
    given = {None: True, "lam": lam is not None, "tau": expected_tau is not None}
    rows = []
    for name, cap, needs, value in _ROWS:
        if not given[needs]:
            continue
        try:
            raw = value(params, lam, expected_tau)
        except InvalidRegimeError:
            rows.append(BoundReport(name, None, None, False, False))
            continue
        capped = cap and raw > 1.0
        rows.append(BoundReport(name, 1.0 if capped else raw, raw, capped, True))
    return rows
