"""Independent combinatorial ground truth for the product coefficients.

The coefficient of q^j in prod_{a=1..n} (1 - q^a)^s is the signed count of
bounded partitions: tuples (V_1..V_s) of subsets of {1..n} whose elements sum
to j, weighted +1 for an even and -1 for an odd total number of parts.  This
module counts those directly by dynamic programming, builds Gaussian binomial
coefficients, and generates the classical series (pentagonal, the cube
identity, the two-variable s = 2 expansion, and the 24th-power truncation
behind the tau coefficients) whose prefixes the truncated products must
reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .poly import (
    IntPolynomial,
    ProductSpec,
    _require_under_cap,
    expand_restricted_product,
)


@dataclass(frozen=True)
class ParityCounts:
    """Subset-tuple counts with even and odd total part count.

    A part a used by m of the s subsets carries weight C(s, m); the difference
    even - odd is exactly the product coefficient t_j.
    """

    even: int
    odd: int

    @property
    def difference(self) -> int:
        return self.even - self.odd


@dataclass(frozen=True)
class SeriesTerm:
    """One nonzero term coefficient * q^exponent of a sparse series."""

    exponent: int
    coefficient: int


def parity_counts(s: int, n: int, j: int) -> ParityCounts:
    """Count partitions of j into parts <= n, each part in at most s of the
    subsets, split by parity of the total number of parts.

    DP state is (current part, remaining sum, parity); O(n * s * j) time.
    """
    spec = ProductSpec(s, n)
    if not 0 <= j <= spec.degree:
        raise ValueError(f"j must lie in [0, {spec.degree}], got {j}")
    _require_under_cap("parity DP", j + 1, "sums")
    weights = [math.comb(s, m) for m in range(s + 1)]
    even = [0] * (j + 1)
    odd = [0] * (j + 1)
    even[0] = 1
    for a in range(1, n + 1):
        new_even = [0] * (j + 1)
        new_odd = [0] * (j + 1)
        for total in range(j + 1):
            m = 0
            while a * m <= total and m <= s:
                w = weights[m]
                src = total - a * m
                if m % 2 == 0:
                    new_even[total] += w * even[src]
                    new_odd[total] += w * odd[src]
                else:
                    new_even[total] += w * odd[src]
                    new_odd[total] += w * even[src]
                m += 1
        even, odd = new_even, new_odd
    return ParityCounts(even[j], odd[j])


@lru_cache(maxsize=4096)
def _q_binomial_coeffs(m: int, r: int) -> tuple[int, ...]:
    if r < 0 or m < 0:
        raise ValueError("q-binomial arguments must be non-negative")
    if r > m:
        return (0,)
    if r == 0 or r == m:
        return (1,)
    # Pascal-type recurrence [m r] = [m-1 r-1] + q^r [m-1 r]; integers only.
    left = _q_binomial_coeffs(m - 1, r - 1)
    right = _q_binomial_coeffs(m - 1, r)
    out = [0] * (r * (m - r) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + r] += c
    return tuple(out)


def q_binomial(m: int, r: int) -> IntPolynomial:
    """Gaussian binomial coefficient as an exact integer polynomial.

    Zero polynomial when r > m; otherwise degree r(m-r) with a symmetric,
    non-negative coefficient vector.
    """
    return IntPolynomial(_q_binomial_coeffs(m, r))


def cauchy_identity_check(n: int) -> bool:
    """prod_{a<=n}(1-q^a) = sum_k [n k]_q (-1)^k q^(k(k+1)/2), exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lhs = expand_restricted_product(ProductSpec(1, n))
    size = n * (n + 1) // 2 + 1
    rhs = [0] * size
    for k in range(n + 1):
        shift = k * (k + 1) // 2
        sign = -1 if k % 2 else 1
        for i, c in enumerate(_q_binomial_coeffs(n, k)):
            if c:
                rhs[shift + i] += sign * c
    return lhs == IntPolynomial(rhs)


# ---------------------------------------------------------------------------
# classical series


def _merge_terms(acc: dict[int, int]) -> list[SeriesTerm]:
    return [
        SeriesTerm(e, c) for e, c in sorted(acc.items()) if c != 0
    ]


def pentagonal_series(max_exponent: int) -> list[SeriesTerm]:
    """Terms (-1)^k q^(k(3k-1)/2) over all integers k, up to max_exponent."""
    if max_exponent < 0:
        raise ValueError("max_exponent must be >= 0")
    acc: dict[int, int] = {0: 1}
    k = 1
    while True:
        e_pos = k * (3 * k - 1) // 2
        e_neg = k * (3 * k + 1) // 2
        if e_pos > max_exponent and e_neg > max_exponent:
            break
        sign = -1 if k % 2 else 1
        if e_pos <= max_exponent:
            acc[e_pos] = acc.get(e_pos, 0) + sign
        if e_neg <= max_exponent:
            acc[e_neg] = acc.get(e_neg, 0) + sign
        k += 1
    return _merge_terms(acc)


JACOBI_CONVENTIONS = ("standard", "as-printed")


def jacobi_series(max_exponent: int, exponent_convention: str = "standard") -> list[SeriesTerm]:
    """Terms (-1)^k (2k+1) q^e for k >= 0, under a selectable exponent rule.

    ``standard`` uses e = k(k+1)/2, which reproduces the cube product
    prod (1-q^a)^3.  ``as-printed`` uses e = k(k-1)/2, under which k = 0 and
    k = 1 collide at q^0 (coefficient 1 - 3 = -2) and the match fails; the
    verification harness records which convention validates.
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be >= 0")
    if exponent_convention not in JACOBI_CONVENTIONS:
        raise ValueError(f"convention must be one of {JACOBI_CONVENTIONS}")
    acc: dict[int, int] = {}
    k = 0
    while True:
        if exponent_convention == "standard":
            e = k * (k + 1) // 2
        else:
            e = k * (k - 1) // 2
        if e > max_exponent and k > 1:
            break
        if e <= max_exponent:
            acc[e] = acc.get(e, 0) + (-1) ** k * (2 * k + 1)
        k += 1
    return _merge_terms(acc)


def hecke_rogers_series(max_exponent: int) -> list[SeriesTerm]:
    """Double series for the squared product: (-1)^(n+m) q^((n^2-3m^2)/2+(n+m)/2).

    Accumulates over all n >= 0 and -n/2 <= m <= n/2 with exponent at most
    max_exponent; the outer index is bounded by n^2/8 <= max_exponent since
    the exponent is at least n^2/8 on the admissible strip.
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be >= 0")
    _require_under_cap("series", max_exponent + 1)
    acc: dict[int, int] = {}
    outer = 0
    while outer * outer <= 8 * max_exponent:
        for m in range(-(outer // 2), outer // 2 + 1):
            e = (outer * outer - 3 * m * m + outer + m) // 2
            if 0 <= e <= max_exponent:
                acc[e] = acc.get(e, 0) + (-1) ** (outer + m)
        outer += 1
    return _merge_terms(acc)


def series_to_coeffs(terms: list[SeriesTerm], max_exponent: int) -> list[int]:
    """Densify a sparse term list into a coefficient vector up to max_exponent."""
    _require_under_cap("series", max_exponent + 1)
    out = [0] * (max_exponent + 1)
    for term in terms:
        if term.exponent <= max_exponent:
            out[term.exponent] += term.coefficient
    return out


def series_to_csv(terms: list[SeriesTerm]) -> str:
    lines = ["exponent,coefficient"]
    lines.extend(f"{t.exponent},{t.coefficient}" for t in terms)
    return "\n".join(lines) + "\n"


def stable_prefix_check(s: int, n: int, terms: list[SeriesTerm]) -> bool:
    """Truncated-product coefficients agree with the series up to exponent n.

    Factors with index above n cannot touch exponents <= n, so the truncation
    and the matching full series share that prefix.
    """
    dense = series_to_coeffs(terms, n)
    product = expand_restricted_product(ProductSpec(s, n))
    return all(product[i] == dense[i] for i in range(n + 1))


def truncated_tau(n: int) -> IntPolynomial:
    """Coefficients tau_n(j) of prod_{a<=n} (1-q^a)^24.

    For j <= n these agree with the classical tau values shifted by one
    (tau_n(j) = tau(j+1)) because the full series carries a leading factor q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return expand_restricted_product(ProductSpec(24, n))
