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
from dataclasses import dataclass

from .errors import InvalidRegimeError

__all__ = [
    "BoundParams",
    "BoundReport",
    "decay_power",
    "avg_disagreement_bound",
    "averaged_tv_bound",
    "coupled_variance_bound",
    "coupled_concentration_bound",
    "coupled_concentration_threshold",
    "variance_of_time_average_bound",
    "base_concentration_bound",
    "base_concentration_threshold",
    "stationary_gap_bound",
    "decoupling_time_bound",
    "path_law_bound",
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
        Worst-case row perturbation (nonnegative).
    n : int
        Averaging horizon (positive).
    alpha : float or None
        Cross contraction constant in [0, 1); required by the coupled bounds.
    a : float or None
        Doeblin constant in (0, 1]; required by the single-chain bounds.
    p0 : float
        Initial disagreement probability, or the TV distance of the two
        initial laws, in [0, 1].
    f_star : float
        Half-oscillation seminorm of the observable (nonnegative).
    """

    epsilon: float
    n: int
    alpha: float | None = None
    a: float | None = None
    p0: float = 0.0
    f_star: float = 0.0

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise InvalidRegimeError(f"epsilon must be nonnegative, got {self.epsilon!r}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {self.p0!r}")
        if self.f_star < 0.0:
            raise ValueError(f"f_star must be nonnegative, got {self.f_star!r}")
        if self.alpha is not None and not 0.0 <= self.alpha < 1.0:
            raise InvalidRegimeError(f"alpha must be in [0, 1), got {self.alpha!r}")
        if self.a is not None and not 0.0 < self.a <= 1.0:
            raise InvalidRegimeError(f"a must be in (0, 1], got {self.a!r}")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: raw value, value after capping, and regime status."""

    name: str
    value: float | None
    raw: float | None
    capped: bool
    regime_ok: bool
    params: BoundParams


def _require_cross(params):
    if params.alpha is None:
        raise InvalidRegimeError("cross contraction constant alpha is required for this bound")
    s = params.alpha + params.epsilon
    if s <= 0.0:
        raise InvalidRegimeError("alpha + epsilon must be positive")
    if params.epsilon > 1.0 - params.alpha:
        raise InvalidRegimeError(
            f"epsilon={params.epsilon!r} > 1 - alpha={1.0 - params.alpha!r}: "
            "the dominating two-state chain does not contract"
        )
    return s


def _require_doeblin(params):
    if params.a is None:
        raise InvalidRegimeError("Doeblin constant a is required for this bound")
    return params.a


def decay_power(base, n) -> float:
    """``base ** n`` for ``base`` in [0, 1); exp/log route only for huge n."""
    if base <= 0.0:
        return 0.0
    if n > 1_000_000:
        return math.exp(n * math.log(base))
    return base ** int(n)


def avg_disagreement_bound(params: BoundParams) -> float:
    """Exact occupation of the dominating chain: bounds the time-averaged disagreement.

    Value: ``e/s + w * (p0 - e/s)`` with ``s = alpha + epsilon``, ``e = epsilon``
    and the averaging weight ``w = (1 - (1-s)^n) / (n s)``.  Nondecreasing in
    ``p0`` and ``epsilon``, nonincreasing in ``alpha``; equals ``p0`` at n=1
    and tends to ``epsilon / s`` as n grows.
    """
    s = _require_cross(params)
    ratio = params.epsilon / s
    w = (1.0 - decay_power(1.0 - s, params.n)) / (params.n * s)
    return ratio + w * (params.p0 - ratio)


def averaged_tv_bound(params: BoundParams) -> float:
    """TV bound between the two time-averaged laws started from laws at TV distance ``p0``.

    Same expression as :func:`avg_disagreement_bound`, with ``p0`` read as the
    TV distance of the initial laws.  Attained with equality by an explicit
    two-state family (see :mod:`chain_perturb.sharpness`).
    """
    return avg_disagreement_bound(params)


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
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    return math.exp(-0.5 * s * s * lam * lam)


def coupled_concentration_threshold(lam, params: BoundParams, initial_disagreement=False) -> float:
    """Deviation level paired with :func:`coupled_concentration_bound`.

    ``e/s + 1{X0 differs}/(n s) + lambda/sqrt(n)`` -- the disagreement-average
    form; multiply by ``2 |f|_*`` for the f-average form.
    """
    s = _require_cross(params)
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
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    return 2.0 * math.exp(-a * a * lam * lam / 32.0)


def base_concentration_threshold(lam, params: BoundParams) -> float:
    """Deviation level paired with :func:`base_concentration_bound`: ``4|f|_*/(n a) + lambda |f|_*/sqrt(n)``."""
    a = _require_doeblin(params)
    return 4.0 * params.f_star / (params.n * a) + lam * params.f_star / math.sqrt(params.n)


def stationary_gap_bound(epsilon, a) -> float:
    """TV gap between the two stationary measures: ``epsilon / a`` (uncapped)."""
    if a is None or a <= 0.0:
        raise InvalidRegimeError(f"Doeblin constant must be positive, got {a!r}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    return epsilon / a


def decoupling_time_bound(epsilon, expected_tau) -> float:
    """Probability the coupled pair separates before a stopping time: ``min(1, epsilon E[tau])``."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon!r}")
    if expected_tau < 0.0 or not math.isfinite(expected_tau):
        raise ValueError(f"expected_tau must be finite and nonnegative, got {expected_tau!r}")
    return min(1.0, epsilon * expected_tau)


def path_law_bound(epsilon, expected_tau) -> float:
    """TV bound between laws of a path functional measurable at a stopping time.

    Same value as :func:`decoupling_time_bound`; requires equal initial laws
    and a functional determined by the path up to ``tau`` (the caller's
    responsibility -- not checkable here).
    """
    return decoupling_time_bound(epsilon, expected_tau)


def remark_perturbation_bounds(params: BoundParams, f_inf, lam) -> tuple[BoundReport, BoundReport, BoundReport]:
    """Perturbation-route estimates built from the Poisson solution of the base chain.

    Returns three reports: mean bias ``4 f_inf/(a n) + 4 e f_inf / a``, second
    moment ``(3/a^2)(16 e^2 + 16/n^2) f_inf^2 + 12 f_inf^2/(a^2 n)``, and the
    tail value ``2 exp(-a^2 lam^2/32)`` matching
    :func:`remark_tail_threshold`.  All three are invariant under shifting the
    observable, so ``f_inf`` may validly be the half-oscillation ``|f|_*``.
    """
    a = _require_doeblin(params)
    if f_inf < 0.0:
        raise ValueError(f"f_inf must be nonnegative, got {f_inf!r}")
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    e, n = params.epsilon, params.n
    mean_bias = 4.0 * f_inf / (a * n) + 4.0 * e * f_inf / a
    second_moment = 3.0 / (a * a) * (16.0 * e * e + 16.0 / (n * n)) * f_inf ** 2 \
        + 12.0 / (a * a * n) * f_inf ** 2
    tail = 2.0 * math.exp(-a * a * lam * lam / 32.0)
    return (
        _report("remark_mean_bias", mean_bias, params, cap=False),
        _report("remark_second_moment", second_moment, params, cap=False),
        _report("remark_tail", tail, params, cap=True),
    )


def remark_tail_threshold(lam, params: BoundParams, f_inf) -> float:
    """Deviation level paired with the perturbation-route tail: ``(4/a)(e + 1/n) f_inf + lam f_inf/sqrt(n)``."""
    a = _require_doeblin(params)
    return 4.0 / a * (params.epsilon + 1.0 / params.n) * f_inf + lam * f_inf / math.sqrt(params.n)


def _report(name, raw, params, cap):
    # Probability/TV-valued entries are capped at 1; the raw value is kept.
    if cap and raw > 1.0:
        return BoundReport(name, 1.0, raw, True, True, params)
    return BoundReport(name, raw, raw, False, True, params)


def _failed(name, params):
    return BoundReport(name, None, None, False, False, params)


def evaluate_report_table(params: BoundParams, lam=None, expected_tau=None) -> list[BoundReport]:
    """Evaluate every bound applicable to ``params`` as a list of reports.

    Bounds whose constants are missing or out of regime appear with
    ``regime_ok=False`` instead of raising, so the table is always complete.
    The tail rows require ``lam``; the decoupling rows require
    ``expected_tau``.  The perturbation-route rows use ``params.f_star`` as the (centered)
    sup-norm of the observable.
    """
    rows = []

    def attempt(name, fn, cap):
        try:
            rows.append(_report(name, fn(), params, cap))
        except InvalidRegimeError:
            rows.append(_failed(name, params))

    attempt("avg_disagreement", lambda: avg_disagreement_bound(params), cap=True)
    attempt("averaged_tv", lambda: averaged_tv_bound(params), cap=True)
    attempt("coupled_variance", lambda: coupled_variance_bound(params), cap=False)
    attempt("variance_of_time_average", lambda: variance_of_time_average_bound(params), cap=False)
    if lam is not None:
        attempt("coupled_concentration", lambda: coupled_concentration_bound(lam, params), cap=True)
        attempt("base_concentration", lambda: base_concentration_bound(lam, params), cap=True)
    attempt("stationary_gap", lambda: stationary_gap_bound(params.epsilon, params.a), cap=True)
    if expected_tau is not None:
        attempt("decoupling_time", lambda: decoupling_time_bound(params.epsilon, expected_tau), cap=True)
        attempt("path_law", lambda: path_law_bound(params.epsilon, expected_tau), cap=True)
    if lam is not None:
        try:
            rows.extend(remark_perturbation_bounds(params, params.f_star, lam))
        except InvalidRegimeError:
            rows.extend(_failed(n, params) for n in
                        ("remark_mean_bias", "remark_second_moment", "remark_tail"))
    return rows
