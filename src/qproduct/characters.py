"""Character-sum formulas for coefficients of the truncated product.

For the cyclic group Z_N with characters psi_r(m) = exp(2*pi*i*m*r/N), the
progression sum M(j) = sum of t_i over exponents i = j (mod N) satisfies

    M(j) = (1/N) * sum_{r=1..N-1} psi_r^{-1}(j) * prod_{a=1..n} (1 - psi_r(a))^s,

which is a plain roots-of-unity filter applied to T(q) = prod (1 - q^a)^s:
the r-th summand is psi_r^{-1}(j) * T(psi_r(1)).  An equivalent all-real form
pairs r with N - r and evaluates sine/cosine products.  Both routes return
integers: one evaluator sums either form, from a vectorized double-precision
pass up through exact integer arithmetic at 64 to 1024 bits, until the result
sits within 0.25 of an integer with the error estimate also below 0.25.  Both
routes climb one ladder: they skip the double pass past s*n = 900, start at
the first precision whose estimate, computed once per (s, n, N) from
|T(psi_r(1))|, passes, and raise at once if none does.  Above 53 bits one
fixed-point table of the roots of unity per (N, precision) feeds every factor
and phase, each product truncates once, the sum is exact, and a stated
first-order bound keeps that arithmetic error far below the estimate.  The
estimate is first-order, not a proven bound, so the integer is not certified;
it matches the exact oracle on every input tested.

Special moduli give closed forms with no floating point at all: N = degree+1
isolates one coefficient per residue, and N = n+1 collapses to a totient
formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import PrecisionError
from .poly import (
    ProductSpec,
    ProgressionQuery,
    _require_int,
    _require_under_cap,
    expand_restricted_product,
    progression_row,
)

RESIDUAL_THRESHOLD = 0.25
FAST_PRECISION_BITS = 53
MP_PRECISION_LADDER = (64, 128, 256, 512, 1024)
# Both routes skip the double rung past this s*n (2^(s*n) overflows): one ladder.
_FAST_SN_LIMIT = 900
_LOG2_THRESHOLD = math.log2(RESIDUAL_THRESHOLD)


@dataclass(frozen=True)
class CharacterIndex:
    """Character psi(m) = exp(2*pi*i*m*r/modulus) of Z_modulus; r = 0 is trivial."""

    r: int
    modulus: int

    def __post_init__(self):
        _require_int("index r", self.r)
        _require_int("modulus", self.modulus)
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.r < self.modulus:
            raise ValueError(f"index r must lie in [0, {self.modulus - 1}], got {self.r}")

    @property
    def is_trivial(self) -> bool:
        return self.r == 0

    @property
    def order(self) -> int:
        return self.modulus // math.gcd(self.r, self.modulus)

    def value(self, m: int) -> complex:
        """psi(m) as a double-precision complex number."""
        return cmath.exp(2j * cmath.pi * ((m * self.r) % self.modulus) / self.modulus)


def character_group(modulus: int, *, include_trivial: bool = False):
    """All characters of Z_modulus, in index order."""
    start = 0 if include_trivial else 1
    return [CharacterIndex(r, modulus) for r in range(start, modulus)]


def _factorize(m: int, name: str) -> dict[int, int]:
    """{p: e} with m = prod p^e, by trial division."""
    _require_int(f"{name} argument", m)
    if m < 1:
        raise ValueError(f"{name} argument must be >= 1, got {m}")
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(m: int) -> int:
    """Euler totient by trial-division factorization."""
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factorize(m, "totient").items())


def mobius(m: int) -> int:
    """Moebius function by trial-division factorization."""
    exponents = _factorize(m, "Moebius").values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def ramanujan_sum(modulus: int, j: int) -> int:
    """Sum of psi^{-1}(j) over the full-order characters of Z_modulus.

    Exactly mu(d) * phi(N) / phi(d) with d = N / gcd(j, N); equals phi(N) at
    j = 0 and equals -1 for every j != 0 when N is prime.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    d = modulus // math.gcd(j, modulus)
    mu = mobius(d)
    if mu == 0:
        return 0
    return mu * (euler_phi(modulus) // euler_phi(d))


# ---------------------------------------------------------------------------
# rounding to an integer, shared by both routes

# Both routes sum lead/N * w_r * Re(phase(x*r) * table_r) over r = 1..N/2 with
# table_r = prod_a factor(a*r)^s, where r stands for the conjugate pair
# {r, N-r} (w_r = 2) or, for even N, the self-paired r = N/2 (w_r = 1).  The
# tables do not depend on the residue, so they are cached per (s, n, N) at
# double precision and per (s, n, N, P) in fixed point.
#
# A fixed-point rung at prec bits holds each value v as an integer near 2^P * v,
# P = prec + guard from _ladder, read from one table of the roots e^(i*pi*k/N)
# per (N, P).  A product is (x*y) >> P, the sum over r is exact, and only the
# rounding divides.  The trig factor is 2 sin there, so each table entry is
# lead * table_r up to sign, as for 1 - psi_r(a).  Error bound, with u = 2^-P:
# each factor and phase is within 2u, each product truncates by under 2u, and
# zero factors are exact.  To first order, term r then has relative error at
# most the sum of 2u/|v| over the factors, phase, partial products and powers v
# it is built from, each counted as often as the power s uses it.  A nonzero
# factor has |f_a| >= 2 sin(pi/N) >= 4/N, so the factors add at most
# u*s*n*N/2, and the products at most 4u*s*n / min(1, |v|) over the least v,
# which for n near N/2 is about 2^(-0.23 N).  The guard, 32 bits plus log2 of
# sum_r w_r |lead * table_r| / min(1, |v|) over the estimate's scale
# sum_r w_r |lead * table_r|, keeps the error below (2^-33 + 2^-36 N) times
# the estimate.


class _Form(NamedTuple):
    """A factor or phase of k: numpy (k, N); fixed point (k, N, cos, sin) -> (re, im|None)."""

    f64: Callable
    fixed: Callable


def _column_blocks(n: int, modulus: int):
    # k = a*r (a <= n, r <= N/2) in column blocks of at most 2^20 entries, which
    # bounds a table's temporaries; reductions are per column, so values match.
    a = np.arange(1, n + 1)[:, None]
    step = max(1, 2**20 // n)
    for lo in range(1, modulus // 2 + 1, step):
        yield a * np.arange(lo, min(lo + step, modulus // 2 + 1))


# A table holds N/2 complex doubles, so the cache keeps only a few: the two
# routes of one (s, n, N) alternate, and no caller reuses a table further back.
@lru_cache(maxsize=4)
def _table_f64(factor, s: int, n: int, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        columns = [factor(k, modulus).prod(axis=0) for k in _column_blocks(n, modulus)]
        return np.concatenate(columns) ** s


_GUARD_BITS = 32


def _arctan_inv(x: int, bits: int) -> int:
    # 2^bits * arctan(1/x) by its alternating series, within a unit per term
    total, term, k = 0, (1 << bits) // x, 1
    while term:
        total, term, k = total + (-1) ** (k // 2) * (term // k), term // (x * x), k + 2
    return total


@lru_cache(maxsize=4)
def _roots(modulus: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Integers within 0.52 of 2^bits * (cos, sin)(pi*k/N) for k in [0, 2N).

    pi (Machin's formula) and z = e^(i*pi/N) (its Taylor series) carry 16 bits
    more than q = bits + bitlen(2N) + 8.  Doubling chains of products at q bits
    give z^k for k < N within 4k units of 2^-q, and z^(k+N) = -z^k.  Values
    that are 0 or +-1 are exact, so a factor that vanishes is exactly zero.
    """
    q = bits + (2 * modulus).bit_length() + 8
    pi = 4 * (4 * _arctan_inv(5, q + 16) - _arctan_inv(239, q + 16))
    terms = [1 << (q + 16)]  # (pi/N)^k / k!
    while terms[-1]:
        terms.append(terms[-1] * pi // (len(terms) * modulus << (q + 16)))
    zr, zi = (sum(terms[i::4]) - sum(terms[i + 2 :: 4]) >> 16 for i in (0, 1))
    re, im = np.array([1 << q], dtype=object), np.array([0], dtype=object)
    while len(re) < modulus:  # append z^len times the powers so far; square z^len
        re, im = np.append(re, (re * zr - im * zi) >> q), np.append(im, (re * zi + im * zr) >> q)
        zr, zi = (zr * zr - zi * zi) >> q, (2 * zr * zi) >> q
    cos, sin = ((v[:modulus] + (1 << (q - bits - 1))) >> (q - bits) for v in (re, im))
    cos[0], sin[0] = 1 << bits, 0
    if modulus % 2 == 0:
        cos[modulus // 2], sin[modulus // 2] = 0, 1 << bits
    return np.append(cos, -cos), np.append(sin, -sin)


def _mul(x: tuple, y: tuple, bits: int) -> tuple:
    # (x * y) >> bits for fixed-point (re, im) pairs, im None when both are real
    (a, b), (c, d) = x, y
    if b is None:
        return (a * c) >> bits, None
    return (a * c - b * d) >> bits, (a * d + b * c) >> bits


@lru_cache(maxsize=4)
def _table_fixed(factor, s: int, n: int, modulus: int, bits: int) -> tuple:
    # every r at once: the product over a, then its power s by squaring
    roots, r = _roots(modulus, bits), np.arange(1, modulus // 2 + 1)
    base = factor(r, modulus, *roots)
    for a in range(2, n + 1):
        base = _mul(base, factor(a * r, modulus, *roots), bits)
    table = base
    for bit in bin(s)[3:]:
        table = _mul(table, table, bits)
        if bit == "1":
            table = _mul(table, base, bits)
    return table


@lru_cache(maxsize=16384)
def _ladder(spec: ProductSpec, modulus: int) -> tuple[tuple, float, int]:
    """The rungs of _rounded_sum, log2_err and the guard bits stated above _Form.

    The error estimate 2^(log2_err - prec) = scale * 2^(1-prec) * (4sn+16),
    scale = |lead|/N * sum_r w_r |table_r|, is computed only here:
    log2|lead * table_r| is s * sum_a log2|2 sin(pi*a*r/N)| in both routes,
    which cannot overflow or underflow, and which agrees with every table at
    every rung because each factor with a*r = 0 (mod N) is exactly zero in all
    of them.  Rungs start
    at the first whose estimate is below 0.25, or at the last.
    """
    s, n, sn = spec.s, spec.n, spec.s * spec.n
    ladder = (FAST_PRECISION_BITS,) * (sn <= _FAST_SN_LIMIT) + MP_PRECISION_LADDER
    finals, lows = [], []  # log2 |prod_{a <= n}| and log2 of its least prefix product
    with np.errstate(divide="ignore"):
        for k in _column_blocks(n, modulus):
            prefix = np.log2(abs(2 * _SIN.f64(k, modulus))).cumsum(axis=0)
            finals.append(prefix[-1])
            lows.append(prefix.min(axis=0))
    logs = s * np.concatenate(finals)
    finite = logs > -np.inf  # the other terms are exactly zero
    dips = np.minimum(np.minimum(np.concatenate(lows), logs), 0)[finite]
    logs[-1] -= modulus % 2 == 0  # so that logs + 1 adds log2 w_r, 0 for r = N/2
    log2_scale = np.logaddexp2.reduce(logs + 1)
    log2_err = log2_scale - math.log2(modulus) + 1 + math.log2(4 * sn + 16)
    extra = np.logaddexp2.reduce(logs[finite] + 1 - dips) - log2_scale if finite.any() else 0
    skip = sum(log2_err - prec >= _LOG2_THRESHOLD for prec in ladder[:-1])
    return ladder[skip:], float(log2_err), _GUARD_BITS + math.ceil(extra)


def _unrounded_sum(
    factor: _Form, phase: _Form, x: int, lead: int, spec: ProductSpec, modulus: int, prec: int
) -> tuple:
    """The sum _rounded_sum rounds, at one rung: float num, den 1, or exact integers."""
    if prec == FAST_PRECISION_BITS:
        table = _table_f64(factor.f64, spec.s, spec.n, modulus)
        phases = phase.f64(x * np.arange(1, modulus // 2 + 1), modulus)
        w = np.full(modulus // 2, 2.0)  # the pair weights: 2, or 1 at r = N/2
        if modulus % 2 == 0:
            w[-1] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            return lead * float((w * (phases * table).real).sum()) / modulus, 1
    bits = prec + _ladder(spec, modulus)[2]
    tr, ti = _table_fixed(factor.fixed, spec.s, spec.n, modulus, bits)
    pr, pi = phase.fixed(x * np.arange(1, modulus // 2 + 1), modulus, *_roots(modulus, bits))
    terms = pr * tr if pi is None else pr * tr - pi * ti
    total = 2 * terms.sum() - (terms[-1] if modulus % 2 == 0 else 0)
    return (-total if lead < 0 else total), modulus << (2 * bits)


def _rounded_sum(
    factor: _Form, phase: _Form, x: int, lead: int, spec: ProductSpec, modulus: int
) -> tuple[int, int]:
    """Round lead/N * sum_r w_r * Re(phase(x*r) * table_r) to an integer.

    Accepts the nearest integer at the first rung of _ladder (where the error
    estimate is below 0.25) whose residual is below 0.25; the double rung (numpy,
    only when s*n <= 900) states no error bound, the fixed-point rungs the one
    stated above _Form.  Raises PrecisionError at once if even 1024 bits fail
    the estimate, and ResourceLimitError, before any table is built or looked
    up, if the n * floor(N/2) entries exceed the cap.
    """
    _require_under_cap("character table", spec.n * (modulus // 2), "entries")
    if modulus == 1:
        return 0, 0  # no nontrivial characters; the sum is empty
    ladder, log2_err, _ = _ladder(spec, modulus)
    if log2_err - ladder[-1] >= _LOG2_THRESHOLD:
        raise PrecisionError(
            f"certified rounding failed at 1024 bits (error estimate 2^{log2_err - 1024:.1f})"
        )
    for prec in ladder:
        num, den = _unrounded_sum(factor, phase, x, lead, spec, modulus, prec)
        if prec == FAST_PRECISION_BITS and not math.isfinite(num):
            continue
        nearest = round(num) if prec == FAST_PRECISION_BITS else (2 * num + den) // (2 * den)
        residual = abs(num - nearest * den) / den
        if residual < RESIDUAL_THRESHOLD:
            return nearest, prec
    raise PrecisionError(f"certified rounding failed at 1024 bits (last residual {residual:.3g})")


# ---------------------------------------------------------------------------
# character-sum route (label main00)

# factor 1 - psi_r(a) and phase psi_r^{-1}(j), with k = a*r and k = j*r
_CHAR_FACTOR = _Form(
    lambda k, N: 1.0 - np.exp((2j * np.pi / N) * (k % N)),
    lambda k, N, cos, sin: (cos[0] - cos[2 * k % (2 * N)], -sin[2 * k % (2 * N)]),
)
_CHAR_PHASE = _Form(
    lambda k, N: np.exp(-2j * np.pi * (k % N) / N),
    lambda k, N, cos, sin: (cos[2 * k % (2 * N)], -sin[2 * k % (2 * N)]),
)


def character_sum_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as character_sum_main00, also reporting the precision bits used."""
    return _rounded_sum(_CHAR_FACTOR, _CHAR_PHASE, query.residue, 1, spec, query.modulus)


def character_sum_main00(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the character filter over Z_N (label main00).

    Evaluates (1/N) * sum_{r != 0} psi_r^{-1}(j) * prod_a (1 - psi_r(a))^s
    and rounds it once the first-order error estimate allows; equals
    progression_sum_oracle on all inputs tested.
    """
    return character_sum_with_precision(spec, query)[0]


# ---------------------------------------------------------------------------
# trigonometric route (label main0000)

# sin(pi*k/N) is the factor (k = a*r) and, for odd s*n, the phase
# (k = (2j - degree)*r); cos(pi*k/N) is the phase for even s*n.  The numpy
# sine is set to exactly zero at k = 0 (mod N), as the root table is, where
# np.sin(pi) is 1.2e-16: a stray factor times 2^(s*n) is not small.  The
# fixed-point factor is 2 sin, which folds the lead's 2^(s*n) into the table.
_SIN = _Form(
    lambda k, N: np.where(k % N, np.sin(np.pi * (k % (2 * N)) / N), 0.0),
    lambda k, N, cos, sin: (sin[k % (2 * N)], None),
)
_COS = _Form(
    lambda k, N: np.cos(np.pi * (k % (2 * N)) / N),
    lambda k, N, cos, sin: (cos[k % (2 * N)], None),
)
_TRIG_FACTOR = _Form(_SIN.f64, lambda k, N, cos, sin: (2 * sin[k % (2 * N)], None))


def trig_form_with_precision(
    spec: ProductSpec, query: ProgressionQuery
) -> tuple[int, int]:
    """Same as trig_form_main0000, also reporting the precision bits used."""
    sn = spec.s * spec.n
    # The printed lead is (2i)^(sn+1) for odd sn and 2*(2i)^sn for even sn,
    # and the printed sum weighs the self-paired r = N/2 by 1/2 against 1 for
    # the pairs.  The shared weights are 1 and 2, so the lead is halved:
    # (-1)^ceil(sn/2) * 2^sn, an exact power of two.
    lead = (-1) ** ((sn + 1) // 2) * 2**sn
    delta = 2 * query.residue - spec.degree
    return _rounded_sum(_TRIG_FACTOR, _SIN if sn % 2 else _COS, delta, lead, spec, query.modulus)


def trig_form_main0000(spec: ProductSpec, query: ProgressionQuery) -> int:
    """Progression sum via the all-real sine/cosine form (label main0000).

    Uses the sine branch when s*n is odd and the cosine branch otherwise;
    rounded like character_sum_main00, and equal to it everywhere tested.
    """
    return trig_form_with_precision(spec, query)[0]


# ---------------------------------------------------------------------------
# special moduli


def single_coefficient_main0(spec: ProductSpec, j: int) -> int:
    """Coefficient t_j recovered by the filter at modulus degree+1 (label main0).

    With N = degree + 1 each residue class holds exactly one exponent, so the
    progression sum collapses to the single coefficient.
    """
    if not 0 <= j <= spec.degree:
        raise ValueError(f"coefficient index must lie in [0, {spec.degree}], got {j}")
    return character_sum_main00(spec, ProgressionQuery(spec.degree + 1, j))


def closed_form_main1(spec: ProductSpec, j: int) -> int:
    """Progression sum at modulus n+1 in closed form (label main1).

    Only the full-order characters of Z_{n+1} survive the product, each
    contributing (n+1)^s, so the sum is (n+1)^(s-1) times their character sum
    at j, i.e. (n+1)^(s-1) * ramanujan_sum(n+1, j).  This is
    (n+1)^(s-1) * phi(n+1) at j = 0 for every n, and -(n+1)^(s-1) for all
    j != 0 exactly when n+1 is prime.  Integer arithmetic only, and verified
    against the exact oracle on the acceptance grid.
    """
    if not 0 <= j <= spec.n:
        raise ValueError(f"residue must lie in [0, {spec.n}], got {j}")
    return (spec.n + 1) ** (spec.s - 1) * ramanujan_sum(spec.n + 1, j)


def vanishing_predicate_main000(spec: ProductSpec, query: ProgressionQuery) -> bool:
    """For odd s*n: does 2j = degree (mod N), forcing a zero progression sum?

    Label main000; `qproduct verify` checks that the exact sum vanishes
    wherever the congruence holds.
    """
    if (spec.s * spec.n) % 2 == 0:
        raise ValueError("vanishing predicate requires odd s*n")
    return (2 * query.residue - spec.degree) % query.modulus == 0


def small_modulus_vanishing(spec: ProductSpec, modulus: int) -> bool:
    """All progression sums vanish for moduli 1 <= N <= n-1 (label main00cor).

    Every nontrivial character of Z_N has order d with 2 <= d <= N < n, so the
    factor (1 - psi(d)) kills its product term.  Returns whether the exact
    row of progression sums mod N is all zero.
    """
    if not 1 <= modulus <= spec.n - 1:
        raise ValueError(
            f"modulus must lie in [1, {spec.n - 1}] for this identity, got {modulus}"
        )
    return progression_row(spec, modulus).is_zero()


def divisor_coefficients_div1(spec: ProductSpec) -> tuple[int, int]:
    """(t_D, t_{degree-D}) for D = degree, the only divisor in (degree/2, degree].

    Label div1; requires s and n odd, where the paper's pair is (-1, +1).  Read
    off the exact expansion; `qproduct verify` checks the value.  Every proper
    divisor of the degree is at most degree/2, so the paper's range admits
    D = degree alone.
    """
    if spec.s % 2 == 0 or spec.n % 2 == 0:
        raise ValueError("divisor-coefficient identity requires s and n odd")
    p = expand_restricted_product(spec)
    return p[spec.degree], p[0]


def midpoint_zero_peak1(spec: ProductSpec) -> int:
    """The middle coefficient t_{degree/2}, which vanishes for n = 3 (mod 4), s odd.

    Label peak1; read off the exact expansion, and `qproduct verify` checks
    that it is zero.
    """
    if spec.n % 4 != 3:
        raise ValueError("midpoint identity requires n = 3 (mod 4)")
    if spec.s % 2 == 0:
        raise ValueError("midpoint identity requires odd s")
    return expand_restricted_product(spec)[spec.degree // 2]


def tau_progression(n: int, j: int) -> int:
    """Progression sums of the 24th-power truncation mod n+1, in closed form.

    The s = 24 case of closed_form_main1: exactly (n+1)^23 * phi(n+1) for
    j = 0, and -(n+1)^23 for every j != 0 when n+1 is prime.  Exact
    big-integer arithmetic with no expansion; `qproduct verify --theorem tau`
    checks it against the exact oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return closed_form_main1(ProductSpec(24, n), j)
