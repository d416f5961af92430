"""Command-line interface: verification, classification, expansions, oracle runs.

Exit status 0 on a full pass, 1 when a mathematical check fails, 2 on usage
or schema errors.  Reports go to stdout, diagnostics to stderr.  Rationals
are printed canonically; text mode appends a decimal approximation that is
explicitly marked as approximate.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import builtin, oracle
from .certificate import (
    SchemaError,
    builtin_certificate,
    expand_in_classes,
    flag_product,
    format_rational,
    load_certificate,
    save_certificate,
    verify_certificate,
)

_BUILTIN_NAMES = ("c6a",)


def _approx(x: Fraction) -> str:
    return f"{format_rational(x)} (approx. {float(x):.6g})"


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcert",
        description="Exact verifier for the alternating-6-cycle density certificate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a certificate")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--builtin", choices=_BUILTIN_NAMES, default="c6a")
    src.add_argument("--cert", help="path to a certificate file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="classify the template colourings")
    p.add_argument("--template", choices=("k33",), default="k33")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="expansion of one flag product")
    p.add_argument("--family", choices=("R", "B"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("export-cert", help="write the built-in certificate")
    p.add_argument("--builtin", choices=_BUILTIN_NAMES, default="c6a")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("oracle", help="brute-force confirmation runs")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("identities", help="identity checks on one random clique")
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=("text", "json"), default="text")

    q = osub.add_parser("inequality", help="bound check on random cliques")
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=1, help="consecutive seeds to run, at least 1")
    q.add_argument("--format", choices=("text", "json"), default="text")

    q = osub.add_parser("exhaustive", help="sweep all 32768 colourings of the 6-clique")
    q.add_argument("--format", choices=("text", "json"), default="text")

    q = osub.add_parser("montecarlo", help="sample mean of the target density")
    q.add_argument("--n", type=int, default=150)
    q.add_argument("--trials", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _cmd_verify(args) -> int:
    if args.cert:
        with open(args.cert, "r", encoding="utf-8") as fh:
            cert = load_certificate(fh.read())
    else:
        cert = builtin_certificate()
    report = verify_certificate(cert)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(f"certificate: {report.certificate_name}")
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"  [{status}] {check.name}: {check.detail}")
        print(f"  bound: {_approx(report.bound)}")
        coeffs = ", ".join(
            f"J{k}={format_rational(v)}" for k, v in sorted(report.coefficients.items())
        )
        print(f"  coefficients: {coeffs}")
        print(f"verdict: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    table = builtin.class_table()
    total = sum(e.multiplicity for e in table.classes)
    if args.format == "json":
        _emit_json(
            {
                "template": args.template,
                "colourings": total,
                "classes": len(table),
                "table": [
                    {
                        "index": e.index,
                        "aut": e.aut_count,
                        "multiplicity": e.multiplicity,
                    }
                    for e in table.classes
                ],
            }
        )
    else:
        print(f"{total} colourings, {len(table)} classes")
        for e in table.classes:
            print(f"  J{e.index}: aut={e.aut_count}, multiplicity={e.multiplicity}")
    return 0


def _cmd_expand(args) -> int:
    if not (1 <= args.i <= 8 and 1 <= args.j <= 8):
        print("flag indices must be between 1 and 8", file=sys.stderr)
        return 2
    flags = builtin.red_flags() if args.family == "R" else builtin.blue_flags()
    table = builtin.class_table()
    expansion = expand_in_classes(
        flag_product(flags[args.i - 1], flags[args.j - 1]), table
    )
    if args.format == "json":
        _emit_json(
            {
                "family": args.family,
                "i": args.i,
                "j": args.j,
                "expansion": {
                    str(k): format_rational(v) for k, v in expansion.items() if v
                },
            }
        )
    else:
        # numerators over the 72 template embeddings, as published
        parts = [
            f"J{k}: {int(72 * v)}/72" for k, v in sorted(expansion.items()) if v
        ]
        print(", ".join(parts))
    return 0


def _cmd_export(args) -> int:
    text = save_certificate(builtin_certificate())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _print_oracle_text(report: oracle.OracleReport) -> None:
    counts = report.counts
    print(
        f"{counts['checks']} checks: {counts['passed']} passed, "
        f"{counts['failed']} failed"
    )
    for rec in report.records:
        if not rec.holds:
            print(
                f"  FAIL {rec.check} on {rec.instance}: "
                f"lhs {_approx(rec.lhs)}, rhs {_approx(rec.rhs)}"
            )


def _cmd_oracle(args) -> int:
    if args.oracle_command in ("identities", "inequality"):
        oracle.check_host_size(args.n)  # before drawing an n x n colouring

    if args.oracle_command == "identities":
        report = oracle.check_identities(
            oracle.random_clique_coloring(args.n, args.seed)
        )
        if args.format == "json":
            _emit_json(report.to_dict())
        else:
            print(f"identities on random clique n={args.n} seed={args.seed}")
            _print_oracle_text(report)
        return 0 if report.passed else 1

    if args.oracle_command == "inequality":
        if args.count < 1:
            raise ValueError(f"--count must be at least 1, got {args.count}")
        reports = []
        for offset in range(args.count):
            seed = args.seed + offset
            reports.append(
                (
                    seed,
                    oracle.check_flagged_inequality(
                        oracle.random_clique_coloring(args.n, seed)
                    ),
                )
            )
        passed = all(rep.passed for _, rep in reports)
        if args.format == "json":
            _emit_json(
                {
                    "passed": passed,
                    "runs": [
                        dict(rep.to_dict(), seed=seed) for seed, rep in reports
                    ],
                }
            )
        else:
            for seed, rep in reports:
                main = rep.records[0]
                status = "pass" if rep.passed else "FAIL"
                print(
                    f"[{status}] n={args.n} seed={seed}: "
                    f"lhs {_approx(main.lhs)} <= rhs {_approx(main.rhs)}"
                )
        return 0 if passed else 1

    if args.oracle_command == "exhaustive":
        report = oracle.exhaustive_k6_sweep()
        if args.format == "json":
            _emit_json(report.to_dict())
        else:
            print(
                f"swept {report.hosts} colourings of the 6-clique, "
                f"{report.checks} checks"
            )
            for name, bad in report.failures.items():
                status = "pass" if bad == 0 else "FAIL"
                print(f"  [{status}] {name}: {bad} failures")
            print(
                "  minimum inequality slack: "
                f"{_approx(report.min_inequality_slack)}"
            )
        return 0 if report.passed else 1

    if args.oracle_command == "montecarlo":
        result = oracle.monte_carlo_mean(args.n, args.trials, args.seed)
        if args.format == "json":
            _emit_json(result.to_dict())
        else:
            print(
                f"n={result.n}, trials={result.trials}, seed={result.seed}"
            )
            print(f"  mean {_approx(result.mean)}")
            print(f"  min  {_approx(result.minimum)}")
            print(f"  max  {_approx(result.maximum)}")
        return 0

    raise AssertionError("unreachable")


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "export-cert":
            return _cmd_export(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
