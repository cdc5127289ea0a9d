"""Exact expansion, cyclic reduction, and serialization of the core polynomials."""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poly_mul
from qproduct.errors import ResourceLimitError
from qproduct.poly import (
    IntPolynomial,
    ProductSpec,
    ProgressionQuery,
    _multiply_in_place,
    cyclic_reduce,
    expand_restricted_product,
    iter_expansions,
    progression_row,
    progression_sum_oracle,
    reverse_negate_check,
)


def reference_expand(s, n):
    """Independent oracle: plain schoolbook product of the literal factors."""
    out = [1]
    for a in range(1, n + 1):
        factor = [0] * (a + 1)
        factor[0], factor[a] = 1, -1
        for _ in range(s):
            out = poly_mul(out, factor)
    return out


def test_expand_hand_examples():
    assert expand_restricted_product(ProductSpec(1, 2)).coeffs == [1, -1, -1, 1]
    assert expand_restricted_product(ProductSpec(2, 1)).coeffs == [1, -2, 1]
    # schoolbook multiply of the three binomials, frozen:
    assert reference_expand(1, 3) == [1, -1, -1, 0, 1, 1, -1]
    assert expand_restricted_product(ProductSpec(1, 3)).coeffs == [1, -1, -1, 0, 1, 1, -1]


@pytest.mark.parametrize("s", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_expand_bit_identical_to_schoolbook(s, n):
    fast = expand_restricted_product(ProductSpec(s, n)).coeffs
    assert fast == reference_expand(s, n)


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 4), range(1, 9))))
def test_degree_and_endpoints(s, n):
    spec = ProductSpec(s, n)
    p = expand_restricted_product(spec)
    assert p.degree == s * n * (n + 1) // 2 == spec.degree
    assert len(p.coeffs) == spec.degree + 1
    assert p.coeffs[0] == 1
    assert p.coeffs[-1] == (-1) ** (s * n)


def test_factor_order_invariance():
    # multiplying the factors in any order gives identical coefficients
    s, n = 2, 5
    expected = expand_restricted_product(ProductSpec(s, n)).coeffs
    for order in ([5, 1, 4, 2, 3], [3, 5, 1, 2, 4]):
        out = [1]
        for a in order:
            factor = [0] * (a + 1)
            factor[0], factor[a] = 1, -1
            for _ in range(s):
                out = poly_mul(out, factor)
        assert out == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=12),
    st.integers(1, 15),
    st.integers(0, 4),
)
@example([1, -1], 2, 1)
@example([3, 0, -7], 5, 2)  # a >= len(p)
def test_multiply_in_place_matches_schoolbook(coeffs, a, s):
    # (1 - q^a)^s by the in-place kernel on a zero-padded array, against poly_mul
    arr = np.array(coeffs + [0] * (a * s), dtype=object)
    end = _multiply_in_place(arr, a, s, len(coeffs))
    expected = coeffs
    for _ in range(s):
        expected = poly_mul(expected, [1] + [0] * (a - 1) + [-1])
    assert arr.tolist() == expected
    assert end == len(coeffs) + a * s


def test_cyclic_reduce_examples():
    assert cyclic_reduce(IntPolynomial([1, -1, -1, 1]), 2).coeffs == [0, 0]
    assert cyclic_reduce(IntPolynomial([1, -1, -1, 0, 1, 1, -1]), 3).coeffs == [0, 0, 0]
    p = IntPolynomial([3, -5, 7])
    assert cyclic_reduce(p, 1).coeffs == [5]
    with pytest.raises(ValueError):
        cyclic_reduce(p, 0)


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 3), range(1, 7))))
def test_cyclic_reduce_consistency(s, n):
    p = expand_restricted_product(ProductSpec(s, n))
    total = sum(p.coeffs)
    for modulus in range(1, p.degree + 3):
        row = cyclic_reduce(p, modulus)
        assert sum(row.coeffs) == total
        assert len(row.coeffs) == modulus


def test_progression_sum_examples():
    assert progression_sum_oracle(ProductSpec(1, 4), ProgressionQuery(5, 0)) == 4
    assert progression_sum_oracle(ProductSpec(1, 4), ProgressionQuery(5, 1)) == -1
    assert progression_sum_oracle(ProductSpec(1, 3), ProgressionQuery(1, 0)) == 0


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 4), range(1, 8))))
def test_coefficient_sum_is_zero(s, n):
    # the factor (1 - q) vanishes at q = 1
    assert progression_sum_oracle(ProductSpec(s, n), ProgressionQuery(1, 0)) == 0


@pytest.mark.parametrize("s,n", list(itertools.product(range(1, 4), range(1, 9))))
def test_reverse_negate(s, n):
    spec = ProductSpec(s, n)
    assert reverse_negate_check(expand_restricted_product(spec), spec)


def test_reverse_negate_examples():
    for s, n in [(1, 3), (2, 1), (1, 2)]:
        spec = ProductSpec(s, n)
        assert reverse_negate_check(expand_restricted_product(spec), spec)
    # a perturbed vector must fail
    broken = IntPolynomial([1, -1, -1, 1, 1, 1, -1])
    assert not reverse_negate_check(broken, ProductSpec(1, 3))


def test_iter_expansions_snapshots():
    snaps = dict(
        (n, p.coeffs) for n, p in iter_expansions(1, [2, 3])
    )
    assert snaps[2] == [1, -1, -1, 1]
    assert snaps[3] == [1, -1, -1, 0, 1, 1, -1]


def test_resource_cap_env(monkeypatch):
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "8")
    with pytest.raises(ResourceLimitError):
        expand_restricted_product(ProductSpec(1, 10))
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "not-a-number")
    with pytest.raises(ValueError):
        expand_restricted_product(ProductSpec(1, 10))


def test_spec_and_query_validation():
    with pytest.raises(ValueError):
        ProductSpec(0, 3)
    with pytest.raises(ValueError):
        ProductSpec(1, 0)
    with pytest.raises(ValueError):
        ProgressionQuery(0, 0)
    with pytest.raises(ValueError):
        ProgressionQuery(5, 5)
    with pytest.raises(ValueError):
        ProgressionQuery(5, -1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ProductSpec(2.5, 3),
        lambda: ProductSpec(2, 3.0),
        lambda: ProductSpec(True, 3),
        lambda: ProgressionQuery(True, 0),
        lambda: ProgressionQuery(4, False),
    ],
)
def test_spec_and_query_reject_non_int(make):
    with pytest.raises(ValueError, match="must be an int"):
        make()


def test_cyclic_reduce_follows_the_coefficient_cap(monkeypatch):
    # the reduced list holds N entries whatever the degree: checked before allocating
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", "100")
    p = IntPolynomial([1, -1])
    assert cyclic_reduce(p, 100).coeffs == [1, -1] + [0] * 98
    with pytest.raises(ResourceLimitError) as caught:
        cyclic_reduce(p, 10**6)
    assert str(caught.value) == "cyclic reduction needs 1000000 coefficients, cap is 100"


def test_polynomial_degree_and_zero():
    assert IntPolynomial([0, 0, 0]).degree == -1
    assert IntPolynomial([]).is_zero()
    assert IntPolynomial([1, 0, 2, 0]).degree == 2
    assert IntPolynomial([1, 0]) == IntPolynomial([1])


def test_json_roundtrip_uses_decimal_strings():
    import json

    p = expand_restricted_product(ProductSpec(24, 2))  # coefficients beyond 64 bits appear for larger specs
    text = p.to_json()
    decoded = json.loads(text)
    assert all(isinstance(c, str) for c in decoded)
    assert IntPolynomial.from_json(text) == p
    big = IntPolynomial([2**100, -(3**80)])
    assert IntPolynomial.from_json(big.to_json()).coeffs == big.coeffs


def test_csv_roundtrip():
    p = expand_restricted_product(ProductSpec(1, 3))
    text = p.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "exponent,coefficient"
    assert lines[1] == "0,1"
    assert len(lines) == len(p.coeffs) + 1


# ---------------------------------------------------------------------------
# differential tests of the exact kernel in both rings against a poly_mul fold


@functools.lru_cache(maxsize=None)
def _fold(s, n):
    """Expansions for n' = 0..n by a plain poly_mul fold of the literal factors."""
    out = [[1]]
    for a in range(1, n + 1):
        factor = [1] + [0] * (a - 1) + [-1]
        p = out[-1]
        for _ in range(s):
            p = poly_mul(p, factor)
        out.append(p)
    return tuple(out)


_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=25)
_S, _N = st.integers(1, 7), st.integers(1, 16)


@_SETTINGS
@given(_S, _N)
@example(7, 16)
@example(1, 1)
@example(35, 6)  # 115-bit coefficients: 4 limbs, a carry inside one factor
@example(64, 4)  # 161-bit coefficients: 6 limbs
def test_expansion_matches_fold(s, n):
    # the upper half comes from the reversal law, so compare every coefficient
    assert expand_restricted_product(ProductSpec(s, n)).coeffs == _fold(s, n)[n]


def test_fold_examples_span_several_limbs():
    # the s > 30 examples above reach past two 32-bit limbs
    assert max(map(abs, _fold(64, 4)[4])) >= 2**64


@_SETTINGS
@given(_S, st.lists(_N, min_size=1, max_size=6))
@example(3, [9, 2, 9, 1, 5])
def test_iter_expansions_unsorted_and_repeated(s, n_values):
    snaps = [(n, p.coeffs) for n, p in iter_expansions(s, n_values)]
    folds = _fold(s, max(n_values))
    assert snaps == [(n, folds[n]) for n in sorted(set(n_values))]


@_SETTINGS
@given(_S, _N)
@example(1, 16)  # N = n divides a = n in the cyclic ring
@example(7, 16)
@example(1, 2)
@example(35, 6)
@example(64, 4)
def test_oracle_matches_reduced_fold(s, n):
    spec = ProductSpec(s, n)
    p = IntPolynomial(_fold(s, n)[n])
    degree = spec.degree
    for modulus in sorted({1, 2, n, n + 1, degree, degree + 1, degree + 3}):
        reduced = cyclic_reduce(p, modulus).coeffs
        row = progression_row(spec, modulus)
        # past degree + 1 the row holds the product itself and reads 0 beyond it
        assert len(row) == min(modulus, degree + 1) and row == IntPolynomial(reduced)
        for j in range(modulus):
            assert progression_sum_oracle(spec, ProgressionQuery(modulus, j)) == reduced[j]


def test_oracle_huge_modulus_keeps_row_short():
    spec = ProductSpec(1, 3)
    assert progression_row(spec, 10**7).coeffs == [1, -1, -1, 0, 1, 1, -1]
    assert progression_sum_oracle(spec, ProgressionQuery(10**7, 6)) == -1
    assert progression_sum_oracle(spec, ProgressionQuery(10**7, 10**7 - 1)) == 0
    with pytest.raises(ValueError):
        progression_row(spec, 0)


def test_row_cache_memory_stays_bounded():
    # forty distinct rows of about 1,800 ints each: a cache of 256 rows keeps
    # all of them (1.9 MB traced), one of 8 rows keeps the last few (0.4 MB)
    script = (
        "import tracemalloc\n"
        "from qproduct.poly import ProductSpec, progression_row\n"
        "tracemalloc.start()\n"
        "for i in range(40):\n"
        "    progression_row(ProductSpec(1, 60), 1791 + i)\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    assert int(proc.stdout) < 2**20


@pytest.mark.parametrize("s,n,modulus", [(3, 10, 13), (3, 10, 166), (1, 5, 16)])
def test_oracle_cap_matches_expansion_cap(monkeypatch, s, n, modulus):
    # the cap is the expansion's at every modulus, past degree + 1 too, and
    # also when the row is already cached
    spec, query = ProductSpec(s, n), ProgressionQuery(modulus, 1)
    size = spec.degree + 1
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", str(size))
    value = progression_sum_oracle(spec, query)
    assert value == cyclic_reduce(IntPolynomial(_fold(s, n)[n]), modulus)[1]
    monkeypatch.setenv("QPRODUCT_COEFF_CAP", str(size - 1))
    message = f"expansion needs {size} coefficients, cap is {size - 1}"
    with pytest.raises(ResourceLimitError) as caught:
        progression_sum_oracle(spec, query)
    assert str(caught.value) == message
