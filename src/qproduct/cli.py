"""Batch command-line front end.

Subcommands: expand, progsum, coeff, verify, series, tau, kconst, maxfit.
Reports are JSON (default) or CSV; coefficient-sized integers always
serialize as decimal strings so downstream tools cannot truncate them at 64
bits.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource or precision failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import asymptotics, characters, partitions, poly
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# plain commands


def _cmd_expand(args) -> int:
    p = poly.expand_restricted_product(poly.ProductSpec(args.s, args.n))
    if args.format == "csv":
        _emit(p.to_csv(), args.output)
    else:
        payload = {
            "command": "expand",
            "s": args.s,
            "n": args.n,
            "degree": p.degree,
            "coefficients": [str(c) for c in p.coeffs],
        }
        _emit(_json(payload), args.output)
    return EXIT_OK


def _progsum_record(s, n, modulus, j, method) -> dict:
    spec = poly.ProductSpec(s, n)
    query = poly.ProgressionQuery(modulus, j)
    if method == "character":
        value, bits = characters.character_sum_with_precision(spec, query)
    elif method == "trig":
        value, bits = characters.trig_form_with_precision(spec, query)
    else:
        value, bits = poly.progression_sum_oracle(spec, query), 0
    return {
        "s": s,
        "n": n,
        "N": modulus,
        "j": j,
        "value": str(value),
        "method": method,
        "precision_bits": bits,
    }


def _cmd_progsum(args) -> int:
    record = _progsum_record(args.s, args.n, args.N, args.j, args.method)
    if args.format == "csv":
        keys = list(record)
        text = ",".join(keys) + "\n" + ",".join(str(record[k]) for k in keys) + "\n"
        _emit(text, args.output)
    else:
        _emit(_json(record), args.output)
    return EXIT_OK


def _cmd_coeff(args) -> int:
    spec = poly.ProductSpec(args.s, args.n)
    if not 0 <= args.j <= spec.degree:
        raise ValueError(f"coefficient index must lie in [0, {spec.degree}]")
    record = _progsum_record(args.s, args.n, spec.degree + 1, args.j, args.method)
    record["command"] = "coeff"
    _emit(_json(record), args.output)
    return EXIT_OK


# name -> (s, series(limit, args)), whose prefix is the product's s-th power
_SERIES = {
    "pentagonal": (1, lambda limit, args: partitions.pentagonal_series(limit)),
    "jacobi": (3, lambda limit, args: partitions.jacobi_series(limit, args.convention)),
    "hecke-rogers": (2, lambda limit, args: partitions.hecke_rogers_series(limit)),
}


def _cmd_series(args) -> int:
    name = args.name
    terms = _SERIES[name][1](args.max, args)
    if args.format == "csv":
        _emit(partitions.series_to_csv(terms), args.output)
    else:
        payload = {
            "command": "series",
            "name": name,
            "max_exponent": args.max,
            "terms": [
                {"exponent": t.exponent, "coefficient": str(t.coefficient)}
                for t in terms
            ],
        }
        if name == "jacobi":
            payload["convention"] = args.convention
        _emit(_json(payload), args.output)
    return EXIT_OK


def _cmd_tau(args) -> int:
    residues = [args.j] if args.j is not None else list(range(args.n + 1))
    rows = [
        {"j": j, "value": str(characters.tau_progression(args.n, j))}
        for j in residues
    ]
    _emit(_json({"command": "tau", "n": args.n, "rows": rows}), args.output)
    return EXIT_OK


def _cmd_kconst(args) -> int:
    result = asymptotics.sudler_constant(args.rel_tol)
    payload = {
        "command": "kconst",
        "value": result.value,
        "argmax_w": result.argmax_w,
        "quadrature_error": result.quadrature_error,
        "K_ref": asymptotics.K_REFERENCE,
    }
    _emit(_json(payload), args.output)
    return EXIT_OK


def _cmd_maxfit(args) -> int:
    fit = asymptotics.asymptotic_fit(args.s, args.nmin, args.nmax, args.step)
    payload = {
        "command": "maxfit",
        "s": fit.s,
        "n_range": [args.nmin, args.nmax, args.step],
        "slope": fit.slope,
        "slope_over_s": fit.slope / fit.s,
        "intercept": fit.intercept,
        "residual_bound": fit.residual_bound,
        "K_ref": asymptotics.K_REFERENCE,
    }
    _emit(_json(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification table
#
# Each label maps to a generator of (case fields, expected, got) triples over
# the requested bounds, and to the two keys under which a failure record shows
# expected and got (None leaves that value out).  A case fails when got !=
# expected; exit code 1 when any enabled check fails.


def _specs(smax, nmax):
    for s in range(1, smax + 1):
        for n in range(1, nmax + 1):
            yield poly.ProductSpec(s, n)


def _progression_sums(spec):
    """Every (N, j, exact progression sum) of spec for 1 <= N <= degree+1."""
    p = poly.expand_restricted_product(spec)
    for modulus in range(1, spec.degree + 2):
        row = poly.cyclic_reduce(p, modulus).coeffs
        for j in range(modulus):
            yield modulus, j, row[j]


def _formula_cases(evaluate):
    def cases(args):
        for spec in _specs(args.smax, args.nmax):
            for modulus, j, exact in _progression_sums(spec):
                got = evaluate(spec, poly.ProgressionQuery(modulus, j))
                yield {"s": spec.s, "n": spec.n, "N": modulus, "j": j}, exact, got
    return cases


def _vanishing_cases(args):
    for spec in _specs(args.smax, args.nmax):
        if (spec.s * spec.n) % 2 == 0:
            continue
        for modulus, j, exact in _progression_sums(spec):
            if characters.vanishing_predicate_main000(spec, poly.ProgressionQuery(modulus, j)):
                yield {"s": spec.s, "n": spec.n, "N": modulus, "j": j}, 0, exact


def _main0_cases(args):
    for spec in _specs(args.smax, min(args.nmax, 8)):
        p = poly.expand_restricted_product(spec)
        for j in range(spec.degree + 1):
            got = characters.single_coefficient_main0(spec, j)
            yield {"s": spec.s, "n": spec.n, "j": j}, p[j], got


def _main1_cases(args):
    for spec in _specs(args.smax, args.nmax):
        row = poly.progression_row(spec, spec.n + 1)
        for j in range(spec.n + 1):
            got = characters.closed_form_main1(spec, j)
            yield {"s": spec.s, "n": spec.n, "j": j}, row[j], got


def _small_modulus_cases(args):
    for spec in _specs(args.smax, args.nmax):
        for modulus in range(1, spec.n):
            got = characters.small_modulus_vanishing(spec, modulus)
            yield {"s": spec.s, "n": spec.n, "N": modulus}, True, got


def _corollary_cases(admits, read, expected):
    """One case per admitted spec: the value read against the paper's."""
    def cases(args):
        for spec in _specs(args.smax, args.nmax):
            if admits(spec):
                yield {"s": spec.s, "n": spec.n}, expected, read(spec)
    return cases


def _tau_cases(args):
    for n in range(1, min(args.nmax, 6) + 1):
        row = poly.cyclic_reduce(partitions.truncated_tau(n), n + 1).coeffs
        for j in range(n + 1):
            yield {"n": n, "j": j}, row[j], characters.tau_progression(n, j)


def _maxpeak_cases(args):
    k = asymptotics.sudler_constant().value
    off = not abs(k - asymptotics.K_REFERENCE) <= 5e-5  # NaN is off too
    yield {"check": "K", "value": k}, False, off
    for spec in _specs(min(args.smax, 2), min(args.nmax, 8)):
        got = asymptotics.sandwich_inequality_check(spec)
        yield {"check": "sandwich", "s": spec.s, "n": spec.n}, True, got


def _series_cases(s, series):
    """Prefix of series(limit, args) against the expansion of the s-th power."""
    def cases(args):
        limit = args.max if args.max is not None else args.nmax
        terms = series(limit, args)
        product = poly.expand_restricted_product(poly.ProductSpec(s, max(limit, 1)))
        dense = partitions.series_to_coeffs(terms, limit)
        for e in range(limit + 1):
            yield {"exponent": e}, product[e], dense[e]
    return cases


_VALUES = ("expected", "got")
_PREFIXES = ("product", "series")

_CHECKS = {
    "main00": (_formula_cases(characters.character_sum_main00), _VALUES),
    "main0000": (_formula_cases(characters.trig_form_main0000), _VALUES),
    "main000": (_vanishing_cases, (None, "got")),
    "main0": (_main0_cases, _VALUES),
    "main1": (_main1_cases, _VALUES),
    "main00cor": (_small_modulus_cases, (None, None)),
    "div1": (
        _corollary_cases(
            lambda spec: spec.s % 2 and spec.n % 2,
            characters.divisor_coefficients_div1,
            (-1, 1),
        ),
        _VALUES,
    ),
    "peak1": (
        _corollary_cases(
            lambda spec: spec.n % 4 == 3 and spec.s % 2,
            characters.midpoint_zero_peak1,
            0,
        ),
        _VALUES,
    ),
    "tau": (_tau_cases, _VALUES),
    "maxpeak": (_maxpeak_cases, (None, None)),
    **{name: (_series_cases(*entry), _PREFIXES) for name, entry in _SERIES.items()},
}

VERIFY_LABELS = tuple(_CHECKS)


def _run_check(label, args) -> dict:
    cases_of, keys = _CHECKS[label]
    cases = 0
    failures = []
    for fields, expected, got in cases_of(args):
        cases += 1
        if got != expected:
            shown = {key: str(v) for key, v in zip(keys, (expected, got)) if key}
            failures.append({**fields, **shown})
    return {
        "label": label,
        "cases": cases,
        "failures": failures[:10],
        "failure_count": len(failures),
        "passed": not failures,
    }


def _cmd_verify(args) -> int:
    if not args.all and args.theorem is None:
        raise ValueError("verify needs --theorem LABEL or --all")
    if min(args.smax, args.nmax) < 1:
        raise ValueError(f"--smax and --nmax must be >= 1, got {args.smax}, {args.nmax}")
    labels = VERIFY_LABELS if args.all else [args.theorem]
    checks = [_run_check(label, args) for label in labels]
    passed = all(c["passed"] for c in checks)
    payload = {
        "command": "verify",
        "bounds": {"smax": args.smax, "nmax": args.nmax},
        "checks": checks,
        "passed": passed,
    }
    _emit(_json(payload), args.output)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qproduct",
        description="Exact coefficients and progression sums of (1-q)^s...(1-q^n)^s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", "-o", default=None, help="write report to a file")

    p = sub.add_parser("expand", help="exact coefficient vector of the product")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("progsum", help="progression sum of coefficients mod N")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True, help="modulus")
    p.add_argument("--j", type=int, required=True, help="residue")
    p.add_argument("--method", choices=("oracle", "character", "trig"), default="oracle")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    p.set_defaults(func=_cmd_progsum)

    p = sub.add_parser("coeff", help="single coefficient t_j")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=("oracle", "character"), default="oracle")
    add_output(p)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("verify", help="run identity checks against the exact oracle")
    p.add_argument("--theorem", choices=VERIFY_LABELS, default=None)
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--max", type=int, default=None,
                   help="series prefix length for the series checks")
    p.add_argument("--convention", choices=partitions.JACOBI_CONVENTIONS,
                   default="standard")
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("series", help="classical series terms")
    p.add_argument("--name", choices=tuple(_SERIES), required=True)
    p.add_argument("--max", type=int, required=True, help="largest exponent")
    p.add_argument("--convention", choices=partitions.JACOBI_CONVENTIONS,
                   default="standard")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_output(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tau", help="progression sums of the 24th-power truncation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=None)
    add_output(p)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("kconst", help="growth constant K by quadrature")
    p.add_argument("--rel-tol", type=float, default=1e-6)
    add_output(p)
    p.set_defaults(func=_cmd_kconst)

    p = sub.add_parser("maxfit", help="slope fit of log max-coefficient vs n")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--step", type=int, default=25)
    add_output(p)
    p.set_defaults(func=_cmd_maxfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors as exit 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ResourceLimitError, ArithmeticError) as exc:
        # PrecisionError and quadrature convergence failures land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
