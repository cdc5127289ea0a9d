"""Exact expansion, cyclic reduction, and serialization of the core polynomials."""

import itertools
import math

import pytest

from qproduct.errors import ResourceLimitError
from qproduct.poly import (
    IntPolynomial,
    ProductSpec,
    ProgressionQuery,
    binomial_power,
    cyclic_reduce,
    expand_restricted_product,
    iter_expansions,
    multiply_by_binomial_power,
    poly_mul,
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


def test_binomial_power_matches_comb():
    for s in (0, 1, 2, 7, 64, 65, 200):
        assert list(binomial_power(s)) == [
            (-1) ** k * math.comb(s, k) for k in range(s + 1)
        ]


def test_multiply_by_binomial_power():
    p = IntPolynomial([1, -1])
    q = multiply_by_binomial_power(p, 2, 1)
    assert q.coeffs == [1, -1, -1, 1]
    stepped = multiply_by_binomial_power(expand_restricted_product(ProductSpec(1, 3)), 2, 2)
    direct = poly_mul(reference_expand(1, 3), poly_mul([1, 0, -1], [1, 0, -1]))
    assert stepped.coeffs == direct


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


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        expand_restricted_product(ProductSpec(1, 10), cap=10)


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


def test_csv_rejects_negative_and_repeated_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        IntPolynomial.from_csv("0,1\n-1,5\n")
    with pytest.raises(ValueError, match="twice"):
        IntPolynomial.from_csv("exponent,coefficient\n0,1\n1,2\n1,3\n")


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
    assert IntPolynomial.from_csv(text) == p
