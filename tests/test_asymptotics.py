"""Maximum-coefficient growth, the unit-circle sup, and the Sudler constant."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproduct.errors import ResourceLimitError
from qproduct.asymptotics import (
    K_REFERENCE,
    asymptotic_fit,
    golden_section_max,
    log_sin_integral,
    max_abs_coefficient,
    max_abs_profile,
    sandwich_inequality_check,
    sudler_constant,
    unit_circle_max,
)
from qproduct.poly import ProductSpec, expand_restricted_product


def test_max_abs_examples():
    assert max_abs_coefficient(ProductSpec(1, 3)) == 1
    assert max_abs_coefficient(ProductSpec(2, 1)) == 2
    direct = max(abs(c) for c in expand_restricted_product(ProductSpec(1, 10)).coeffs)
    assert max_abs_coefficient(ProductSpec(1, 10)) == direct


def test_max_abs_profile_matches_pointwise():
    profile = max_abs_profile(1, [3, 5, 8])
    for n in (3, 5, 8):
        assert profile[n] == max_abs_coefficient(ProductSpec(1, n))


def test_monotone_in_s():
    for n in range(1, 9):
        values = [max_abs_coefficient(ProductSpec(s, n)) for s in (1, 2, 3)]
        assert values == sorted(values)


def test_unit_circle_examples():
    assert abs(unit_circle_max(ProductSpec(1, 1)) - 2.0) < 1e-9
    assert abs(unit_circle_max(ProductSpec(2, 1)) - 4.0) < 1e-9
    spec = ProductSpec(1, 5)
    assert unit_circle_max(spec) >= max_abs_coefficient(spec)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.builds(ProductSpec, st.integers(1, 3), st.integers(1, 12)))
def test_unit_circle_refinement_against_cmath_sampling(spec):
    coeffs = expand_restricted_product(spec).coeffs
    circle = unit_circle_max(spec)
    assert max(map(abs, coeffs)) <= circle <= sum(map(abs, coeffs))
    # an independent, four times finer sampling never beats the refined sup
    points = 16 * spec.degree
    sampled = 0.0
    for k in range(points):
        z = cmath.exp(2j * math.pi * k / points)
        value = 1
        for a in range(1, spec.n + 1):
            value *= (1 - z**a) ** spec.s
        sampled = max(sampled, abs(value))
    assert circle >= sampled * (1 - 1e-9)


def test_golden_section_max():
    x, fx = golden_section_max(lambda t: -(t - 0.3) ** 2 + 1.0, 0.0, 1.0, tol=1e-12)
    assert abs(x - 0.3) < 1e-6 and abs(fx - 1.0) < 1e-12


def test_golden_section_stops_at_float_spacing():
    # a bracket at float spacing stops shrinking, so a tolerance below it
    # looped forever; a tolerance that is not positive is rejected
    script = (
        "from qproduct.asymptotics import golden_section_max\n"
        "f = lambda t: -(t - 0.3) ** 2\n"
        "for tol in (0.0, -1.0, float('nan')):\n"
        "    try:\n"
        "        golden_section_max(f, 0.0, 1.0, tol=tol)\n"
        "    except ValueError:\n"
        "        print('rejected')\n"
        "print(repr(golden_section_max(f, 0.0, 1.0, tol=1e-300)[0]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=10,
    )
    *rejected, x = proc.stdout.split()
    assert rejected == ["rejected"] * 3 and abs(float(x) - 0.3) < 1e-6


def test_circle_grid_follows_the_coefficient_cap(monkeypatch):
    # 4 * degree samples: 220 at (1, 10), checked before the grid is built
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "220")
    assert unit_circle_max(ProductSpec(1, 10)) >= max_abs_coefficient(ProductSpec(1, 10))
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "100")
    with pytest.raises(ResourceLimitError) as caught:
        unit_circle_max(ProductSpec(1, 10))
    assert str(caught.value) == "circle grid needs 220 samples, cap is 100"


def test_log_sin_integral_known_values():
    # integral over a full half-period: log sin is -log 2 on average
    val, err = log_sin_integral(1.0)
    assert abs(val + math.log(2.0)) < 1e-9
    half, _ = log_sin_integral(0.5)
    assert abs(half + math.log(2.0) / 2) < 1e-9
    assert err < 1e-8


def test_log_sin_integral_self_consistency():
    for w in (0.6, 0.79, 0.95):
        coarse, _ = log_sin_integral(w, epsabs=1e-9)
        fine, _ = log_sin_integral(w, epsabs=1e-13)
        assert abs(coarse - fine) < 1e-8


def test_sudler_constant_anchor():
    result = sudler_constant()
    assert abs(result.value - K_REFERENCE) < 5e-5
    assert 0.5 < result.argmax_w < 1.0
    assert result.quadrature_error < 1e-8


def test_sudler_endpoint_sanity():
    result = sudler_constant()

    def g(w):
        return math.log(2.0) + log_sin_integral(w)[0] / w

    assert g(0.55) < result.value
    assert g(0.95) < result.value


def test_sudler_rel_tol_validation():
    with pytest.raises(ValueError):
        sudler_constant(0.5)
    with pytest.raises(ValueError):
        sudler_constant(-1e-6)


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        asymptotic_fit(1, 100, 100, 25)
    with pytest.raises(ValueError):
        asymptotic_fit(1, 100, 130, 25)


def test_fit_small_grid_sanity():
    fit = asymptotic_fit(1, 40, 80, 10)
    assert fit.n_values == (40, 50, 60, 70, 80)
    assert abs(fit.slope - K_REFERENCE) < 0.05
    assert fit.residual_bound < 1.0


@pytest.mark.parametrize("s,n", [(1, 1), (1, 5), (2, 4), (1, 10), (2, 8), (3, 6)])
def test_sandwich_inequalities(s, n):
    assert sandwich_inequality_check(ProductSpec(s, n))


@pytest.mark.parametrize("s", [1, 2, 3])
def test_sandwich_full_grid(s):
    for n in range(1, 31):
        assert sandwich_inequality_check(ProductSpec(s, n)), (s, n)


def test_log_max_stays_in_log_band():
    # |log M_n - K n| grows no faster than C log n; report the fitted C
    profile = max_abs_profile(1, range(25, 301, 25))
    c_fit = max(
        abs(math.log(profile[n]) - K_REFERENCE * n) / math.log(n) for n in profile
    )
    print(f"\n[asymptotics] fitted log-band constant C = {c_fit:.3f}")
    assert c_fit < 2.0
