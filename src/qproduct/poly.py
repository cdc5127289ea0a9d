"""Exact integer polynomial arithmetic for truncated q-products.

The central object is the dense coefficient vector of

    prod_{a=1..n} (1 - q^a)^s

over arbitrary-precision integers, built by multiplying by (1 - q^a) in place
over two rings: Z[q]/(q^L) for the vector, Z[q]/(q^N - 1) for its sums over
arithmetic progressions of exponents mod N.  These exact integers are the
ground truth that every formula elsewhere in the package is checked against.

Both rings hold an element as int64 limbs D, entry i = sum_k D[k, i] * 2^(32k).
A pass subtracts the shifted array from every limb alike; a carry at least
every 30 passes keeps each limb below 2^62 and adds a limb when the top one
reaches 2^31.  Each snapshot is decoded once: coefficients stay Python ints.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

DEFAULT_COEFFICIENT_CAP = 10**7
CAP_ENV_VAR = "QPRODUCT_COEFF_CAP"


def coefficient_cap() -> int:
    """Cap on dense coefficient-vector length; override with QPRODUCT_COEFF_CAP."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_COEFFICIENT_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


def _require_under_cap(what: str, size: int, unit: str = "coefficients") -> None:
    """Raise ResourceLimitError before allocating size entries above the cap."""
    limit = coefficient_cap()
    if size > limit:
        raise ResourceLimitError(f"{what} needs {size} {unit}, cap is {limit}")


def _require_int(name: str, value) -> None:
    # bool is an int subclass; a float would make the degree a float.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class ProductSpec:
    """The pair (s, n) describing prod_{a=1..n} (1 - q^a)^s."""

    s: int
    n: int

    def __post_init__(self):
        _require_int("multiplicity s", self.s)
        _require_int("largest part n", self.n)
        if self.s < 1:
            raise ValueError(f"multiplicity s must be >= 1, got {self.s}")
        if self.n < 1:
            raise ValueError(f"largest part n must be >= 1, got {self.n}")

    @property
    def degree(self) -> int:
        """Exact degree s*n*(n+1)/2 of the expanded product."""
        return self.s * self.n * (self.n + 1) // 2


@dataclass(frozen=True)
class ProgressionQuery:
    """Residue class {N*m + j} of exponents: modulus N, residue j."""

    modulus: int
    residue: int

    def __post_init__(self):
        _require_int("modulus", self.modulus)
        _require_int("residue", self.residue)
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must lie in [0, {self.modulus - 1}], got {self.residue}"
            )


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of q^i.

    Trailing zeros are permitted; ``degree`` reports the last nonzero index
    (-1 for the zero polynomial).  All coefficients are Python ints, never
    floats.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            self.coeffs = [0]

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def is_zero(self) -> bool:
        return self.degree == -1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        d = max(len(self.coeffs), len(other.coeffs))
        return all(self[i] == other[i] for i in range(d))

    def __hash__(self):
        return hash(tuple(self.coeffs[: self.degree + 1]))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"IntPolynomial([{head}{tail}], degree={self.degree})"

    # -- serialization ------------------------------------------------------
    # Coefficients overflow 64 bits for moderate n*s, so JSON carries decimal
    # strings, little-endian by exponent.

    def to_json(self) -> str:
        return json.dumps([str(c) for c in self.coeffs])

    @classmethod
    def from_json(cls, text: str) -> "IntPolynomial":
        return cls(int(c) for c in json.loads(text))

    def to_csv(self) -> str:
        lines = ["exponent,coefficient"]
        lines.extend(f"{i},{c}" for i, c in enumerate(self.coeffs))
        return "\n".join(lines) + "\n"


def _multiply_in_place(arr: np.ndarray, a: int, s: int, end: int) -> int:
    # arr *= (1 - q^a)^s in Z[q]/(q^len) along the last axis, arr[..., end:] zero on
    # entry; returns the new end, one past the degree.  numpy buffers overlapping operands.
    for _ in range(s):
        end = min(end + a, arr.shape[-1])
        if a < end:
            np.subtract(arr[..., a:end], arr[..., : end - a], out=arr[..., a:end])
    return end


# A pass at most doubles a limb and a carry leaves every limb below 2^32, so a
# carry every _CARRY_EVERY passes keeps limbs below 2^62: int64 stays exact.
_CARRY_EVERY = 30


def _carry(limbs: np.ndarray, end: int) -> np.ndarray:
    # Leaves columns :end in [0, 2^32) on every limb but the top, in (-2^31, 2^31).
    k = 0
    while k < len(limbs) - 1 or np.abs(limbs[-1, :end]).max() >= 2**31:
        if k == len(limbs) - 1:
            limbs = np.concatenate((limbs, np.zeros_like(limbs[:1])))
        limbs[k + 1, :end] += limbs[k, :end] >> 32
        limbs[k, :end] &= 2**32 - 1
        k += 1
    return limbs


def _decode(raw: bytes, count: int) -> list[int]:
    # raw holds each column's count carried limbs as 4 little-endian bytes each:
    # the two's-complement digits of its integer.
    w = 4 * count
    return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)]


def expand_restricted_product(spec: ProductSpec) -> IntPolynomial:
    """Exact coefficients of prod_{a=1..n} (1 - q^a)^s.

    Fails fast with ResourceLimitError when the vector would exceed the
    coefficient cap.
    """
    return next(iter_expansions(spec.s, [spec.n]))[1]


def iter_expansions(s: int, n_values: Sequence[int]) -> Iterator[tuple[int, IntPolynomial]]:
    """Yield (n, expansion of prod_{a<=n} (1-q^a)^s) for each requested n.

    One incremental pass; snapshots are taken at the requested n values in
    increasing order.  The largest snapshot is cap-checked up front.
    """
    # Z[q]/(q^L) with L = top//2 + 1: t_0 up to t_{degree//2}, and the reversal
    # law t[deg-i] = (-1)^(sn) t[i] for the rest.
    targets = sorted(set(n_values))
    if not targets or targets[0] < 1:
        raise ValueError("n values must be positive")
    top = ProductSpec(s, targets[-1]).degree
    _require_under_cap("expansion", top + 1)
    limbs = np.zeros((1, top // 2 + 1), dtype=np.int64)
    limbs[0, 0] = 1
    end, passes = 1, 0
    for a in range(1, targets[-1] + 1):
        for _ in range(s):
            end = _multiply_in_place(limbs, a, 1, end)
            passes += 1
            if passes % _CARRY_EVERY == 0:
                limbs = _carry(limbs, end)
        if a in targets:
            degree = s * a * (a + 1) // 2
            limbs = _carry(limbs, end)
            raw, count = limbs[:, : degree // 2 + 1].T.astype("<u4").tobytes(), len(limbs)
            if a == targets[-1]:
                del limbs  # free the limbs before building the ints
            low = _decode(raw, count)
            high = low[(degree - 1) // 2 :: -1]
            yield a, IntPolynomial(low + ([-c for c in high] if s * a % 2 else high))


def cyclic_reduce(p: IntPolynomial, modulus: int) -> IntPolynomial:
    """Reduce p mod q^N - 1: entry j is the sum of coeffs over exponents = j mod N."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    _require_under_cap("cyclic reduction", modulus)
    out = [0] * modulus
    for i, c in enumerate(p.coeffs):
        if c:
            out[i % modulus] += c
    return IntPolynomial(out)


# A row holds up to N ints, and every measured reuse came within 4 other rows.
@lru_cache(maxsize=8)
def _cyclic_row(s: int, n: int, modulus: int) -> IntPolynomial:
    # Shared read-only rows: Z[q]/(q^N - 1), where a pass is the truncated pass by
    # r = a mod N plus the wrap of what it pushes past N; at r = 0 it leaves 0.
    limbs = np.zeros((1, modulus), dtype=np.int64)
    limbs[0, 0] = 1
    passes = 0
    for a in range(1, n + 1):
        r = a % modulus
        for _ in range(s):
            tail = limbs[:, modulus - r :].copy()
            _multiply_in_place(limbs, r, 1, modulus)
            limbs[:, :r] -= tail
            passes += 1
            if passes % _CARRY_EVERY == 0:
                limbs = _carry(limbs, modulus)
    limbs = _carry(limbs, modulus)
    return IntPolynomial(_decode(limbs.T.astype("<u4").tobytes(), len(limbs)))


def progression_row(spec: ProductSpec, modulus: int) -> IntPolynomial:
    """Cached read-only row of progression sums mod N, from Z[q]/(q^N - 1).

    Past N = degree + 1 the row is the product itself and reads 0 beyond it.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    _require_under_cap("expansion", spec.degree + 1)  # before the cache
    return _cyclic_row(spec.s, spec.n, min(modulus, spec.degree + 1))


def progression_sum_oracle(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Exact progression sum: sum of t_i over exponents i = j (mod N).

    The exact evaluator for every closed-form route: an entry of progression_row,
    from the ring Z[q]/(q^N - 1) instead of the Z[q]/(q^L) expansion.
    """
    return progression_row(spec, query.modulus)[query.residue]


def reverse_negate_check(p: IntPolynomial, spec: ProductSpec) -> bool:
    """True iff coeffs[N - i] == (-1)^(s*n) * coeffs[i] for all i, N = degree.

    The expanded product always satisfies this reversal law: palindromic when
    s*n is even, anti-palindromic when s*n is odd.
    """
    big_n = spec.degree
    sign = -1 if (spec.s * spec.n) % 2 else 1
    if p.degree > big_n:
        raise ValueError("polynomial degree exceeds the product degree")
    return all(p[big_n - i] == sign * p[i] for i in range(big_n + 1))
