"""Growth of the maximum coefficient and the Sudler constant.

The largest absolute coefficient of prod_{a<=n} (1-q^a)^s grows like
exp(s*K*n) up to a log-size correction, where

    K = log 2 + max_{1/2 < w < 1} (1/w) * integral_0^w log sin(pi t) dt
      ~ 0.19861.

This module computes exact maximum coefficients, the sup of |T(q)| on the
unit circle (via the product of 2|sin(a*theta/2)| factors, never the
coefficient vector), the constant K by quadrature plus golden-section search,
and least-squares slope fits of log max-coefficient against n.
scipy is imported on the first call of log_sin_integral, so only K loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .poly import ProductSpec, _require_under_cap, expand_restricted_product, iter_expansions

K_REFERENCE = 0.19861

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Integrable log singularity at t = 0: the head of the integral is handled in
# closed form below this split point.
_HEAD_SPLIT = 1e-3


@dataclass(frozen=True)
class SudlerConstant:
    """Computed growth constant with its maximizer and quadrature error bound."""

    value: float
    argmax_w: float
    quadrature_error: float


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of log max-coefficient against n."""

    s: int
    n_values: tuple[int, ...]
    log_max: tuple[float, ...]
    slope: float
    intercept: float
    residual_bound: float


def max_abs_coefficient(spec: ProductSpec) -> int:
    """Largest |t_j| over the exact expansion."""
    coeffs = expand_restricted_product(spec).coeffs
    return max(max(coeffs), -min(coeffs))


def max_abs_profile(s: int, n_values: Sequence[int]) -> dict[int, int]:
    """Exact max |t_j| for each n in n_values, from one incremental pass."""
    return {
        n: max(max(p.coeffs), -min(p.coeffs)) for n, p in iter_expansions(s, n_values)
    }


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> tuple[float, float]:
    """Deterministic golden-section maximization of a unimodal f on [lo, hi].

    Stops once the bracket is at most tol wide, or once a step leaves it no
    narrower, as it does at float spacing.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _log_abs_on_circle(spec: ProductSpec, thetas: np.ndarray) -> np.ndarray:
    """log |T(e^(i*theta))| = s * sum_a log(2 |sin(a*theta/2)|) per theta; -inf at zeros."""
    a = np.arange(1, spec.n + 1)
    with np.errstate(divide="ignore"):
        return spec.s * np.log(2.0 * np.abs(np.sin(np.outer(a, thetas) / 2.0))).sum(axis=0)


def unit_circle_max(spec: ProductSpec) -> float:
    """Max of |T(e^(i*theta))| over a theta grid with golden-section refinement.

    Works through the factored form in log space (never the coefficients), so
    it cannot overflow for large n.  The returned value is a lower bound on
    the true maximum that the refinement makes sharp.  The grid has
    4 * degree samples, which must be within the coefficient cap.
    """
    samples = 4 * spec.degree
    _require_under_cap("circle grid", samples, "samples")
    thetas = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    step = max(1, 4_000_000 // spec.n)  # chunk the (n x samples) grid to bound memory
    log_total = np.concatenate(
        [_log_abs_on_circle(spec, thetas[i : i + step]) for i in range(0, samples, step)]
    )
    best = int(np.argmax(log_total))
    spacing = 2.0 * np.pi / samples
    _, log_peak = golden_section_max(
        lambda t: float(_log_abs_on_circle(spec, np.array([t]))[0]),
        thetas[best] - spacing, thetas[best] + spacing, tol=1e-13,
    )
    return math.exp(max(log_peak, float(log_total[best])))


def log_sin_integral(w: float, *, epsabs: float = 1e-12) -> tuple[float, float]:
    """integral_0^w log sin(pi t) dt with its absolute error estimate.

    The head [0, split] uses the closed form of integral log(pi t) dt plus the
    series correction for log(sin x / x); the tail uses adaptive
    Gauss-Kronrod quadrature.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("w must lie in (0, 1]")
    from scipy.integrate import quad  # deferred: only K needs scipy

    eps = min(_HEAD_SPLIT, w / 2.0)
    head = eps * (math.log(math.pi * eps) - 1.0)
    head -= (math.pi**2) * eps**3 / 18.0 + (math.pi**4) * eps**5 / 900.0
    head_err = (math.pi**6) * eps**7 / 2835.0
    tail, tail_err = quad(
        lambda t: math.log(math.sin(math.pi * t)), eps, w, epsabs=epsabs, limit=200
    )
    return head + tail, head_err + tail_err


def sudler_constant(rel_tol: float = 1e-6) -> SudlerConstant:
    """The growth constant K = log 2 + max_w (1/w) integral_0^w log sin(pi t) dt.

    Golden-section maximization over w in [0.5 + 1e-6, 1 - 1e-6]; the
    integrand's log singularity at 0 is handled by log_sin_integral.  Raises
    if the requested relative tolerance cannot be certified.
    """
    if not 0.0 < rel_tol <= 1e-3:
        raise ValueError("rel_tol must lie in (0, 1e-3]")
    epsabs = rel_tol * 1e-4

    def g(w: float) -> float:
        return math.log(2.0) + log_sin_integral(w, epsabs=epsabs)[0] / w

    w_best, g_best = golden_section_max(g, 0.5 + 1e-6, 1.0 - 1e-6, tol=1e-10)
    _, quad_err = log_sin_integral(w_best, epsabs=epsabs)
    total_err = quad_err / w_best + 1e-12
    if total_err > rel_tol * abs(g_best):
        raise ArithmeticError(
            f"quadrature error {total_err:.3g} cannot certify rel_tol {rel_tol:.3g}"
        )
    return SudlerConstant(value=g_best, argmax_w=w_best, quadrature_error=total_err)


def asymptotic_fit(s: int, n_min: int, n_max: int, step: int = 1) -> AsymptoticFit:
    """Least-squares slope of log max-coefficient over an n grid.

    The slope divided by s estimates the growth constant K; residuals against
    the fitted line are reported, not hidden.  Needs at least three grid
    points.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    n_values = list(range(n_min, n_max + 1, step))
    if len(n_values) < 3:
        raise ValueError("fit needs at least 3 grid points")
    profile = max_abs_profile(s, n_values)
    logs = [math.log(profile[n]) for n in n_values]
    slope, intercept = np.polyfit(np.array(n_values, dtype=float), np.array(logs), 1)
    residuals = [abs(y - (slope * n + intercept)) for n, y in zip(n_values, logs)]
    return AsymptoticFit(
        s=s,
        n_values=tuple(n_values),
        log_max=tuple(logs),
        slope=float(slope),
        intercept=float(intercept),
        residual_bound=max(residuals),
    )


def sandwich_inequality_check(spec: ProductSpec) -> bool:
    """max|t_j| <= sup-circle <= sum|t_j| <= (degree+1) * max|t_j|.

    The middle quantity is unit_circle_max, a lower bound on the true circle
    maximum, so the first comparison allows a relative slack of 1e-6; the
    outer comparisons are exact integer against float and integer against
    integer.
    """
    coeffs = expand_restricted_product(spec).coeffs  # one expansion for both sums
    m = max(max(coeffs), -min(coeffs))
    circle = unit_circle_max(spec)
    abs_sum = sum(abs(c) for c in coeffs)
    return (
        m <= circle * (1.0 + 1e-6)
        and circle <= abs_sum * (1.0 + 1e-12)
        and abs_sum <= (spec.degree + 1) * m
    )
