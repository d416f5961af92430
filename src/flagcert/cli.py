"""Command-line interface: verification, classification, expansions, oracle runs.

Exit status 0 on a full pass, 1 when a mathematical check fails, 2 on usage
or schema errors.  Reports go to stdout, diagnostics to stderr.  Rationals
are printed canonically; text mode appends a decimal approximation that is
explicitly marked as approximate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

_BUILTIN_NAMES = ("c6a",)


def _approx(x: Fraction) -> str:
    return f"{x} (approx. {float(x):.6g})"


def _status(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _write(text: str) -> None:
    """Write ``text`` to stdout; a reader that closed the pipe early gets no more."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the buffer is flushed again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, obj, lines: list[str], passed: bool) -> int:
    """Print one report as JSON or text lines; exit status 0 if it passed, else 1."""
    _write((json.dumps(obj, indent=2) if args.format == "json" else "\n".join(lines)) + "\n")
    return 0 if passed else 1


def _cmd_verify(args) -> int:
    from .certificate import SchemaError, builtin_certificate, load_certificate, verify_certificate

    if args.cert:
        with open(args.cert, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SchemaError("$", f"not UTF-8 text: {exc}") from exc
        cert = load_certificate(text)
    else:
        cert = builtin_certificate()
    report = verify_certificate(cert)
    coeffs = ", ".join(f"J{k}={v}" for k, v in sorted(report.coefficients.items()))
    lines = [
        f"certificate: {report.certificate_name}",
        *(f"  [{_status(c.passed)}] {c.name}: {c.detail}" for c in report.checks),
        f"  bound: {_approx(report.bound)}",
        f"  coefficients: {coeffs}",
        f"verdict: {_status(report.passed)}",
    ]
    return _emit(args, report.to_dict(), lines, report.passed)


def _cmd_classify(args) -> int:
    from . import builtin

    table = builtin.class_table()
    total = sum(e.multiplicity for e in table.classes)
    obj = {
        "template": args.template,
        "colourings": total,
        "classes": len(table),
        "table": [
            {"index": e.index, "aut": e.aut_count, "multiplicity": e.multiplicity}
            for e in table.classes
        ],
    }
    lines = [f"{total} colourings, {len(table)} classes"] + [
        f"  J{e.index}: aut={e.aut_count}, multiplicity={e.multiplicity}"
        for e in table.classes
    ]
    return _emit(args, obj, lines, True)


def _cmd_expand(args) -> int:
    from . import builtin

    flags = builtin.red_flags() if args.family == "R" else builtin.blue_flags()
    if not (1 <= args.i <= len(flags) and 1 <= args.j <= len(flags)):
        raise ValueError(f"flag indices must be between 1 and {len(flags)}")
    from .certificate import expand_in_classes, flag_product

    table = builtin.class_table()
    expansion = expand_in_classes(
        flag_product(flags[args.i - 1], flags[args.j - 1]), table
    )
    obj = {
        "family": args.family,
        "i": args.i,
        "j": args.j,
        "expansion": {str(k): str(v) for k, v in expansion.items() if v},
    }
    # numerators over the template's symmetries, as published
    order = builtin.GROUP_ORDER
    parts = [f"J{k}: {int(order * v)}/{order}" for k, v in sorted(expansion.items()) if v]
    return _emit(args, obj, [", ".join(parts)], True)


def _cmd_export(args) -> int:
    from .certificate import builtin_certificate, save_certificate

    text = save_certificate(builtin_certificate())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _write(text)
    return 0


def _oracle_lines(report) -> list[str]:
    """Summary line and one line per failed record of an ``oracle.OracleReport``."""
    counts = report.counts
    return [
        f"{counts['checks']} checks: {counts['passed']} passed, {counts['failed']} failed"
    ] + [
        f"  FAIL {rec.check} on {rec.instance}: "
        f"lhs {_approx(rec.lhs)}, rhs {_approx(rec.rhs)}"
        for rec in report.records
        if not rec.holds
    ]


def _cmd_identities(args) -> int:
    from . import oracle

    oracle.check_host_size(args.n)  # before drawing an n x n colouring
    report = oracle.check_identities(oracle.random_clique_coloring(args.n, args.seed))
    lines = [f"identities on random clique n={args.n} seed={args.seed}"]
    return _emit(args, report.to_dict(), lines + _oracle_lines(report), report.passed)


def _cmd_inequality(args) -> int:
    from . import oracle

    oracle.check_host_size(args.n)  # before drawing an n x n colouring
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    runs = [
        (seed, oracle.check_flagged_inequality(oracle.random_clique_coloring(args.n, seed)))
        for seed in range(args.seed, args.seed + args.count)
    ]
    passed = all(rep.passed for _, rep in runs)
    obj = {"passed": passed, "runs": [dict(rep.to_dict(), seed=seed) for seed, rep in runs]}
    lines = [
        f"[{_status(rep.passed)}] n={args.n} seed={seed}: "
        f"lhs {_approx(rep.records[0].lhs)} <= rhs {_approx(rep.records[0].rhs)}"
        for seed, rep in runs
    ]
    return _emit(args, obj, lines, passed)


def _cmd_exhaustive(args) -> int:
    from . import oracle

    report = oracle.exhaustive_k6_sweep()
    lines = [
        f"swept {report.hosts} colourings of the 6-clique, {report.checks} checks",
        *(f"  [{_status(bad == 0)}] {name}: {bad} failures"
          for name, bad in report.failures.items()),
        f"  minimum inequality slack: {_approx(report.min_inequality_slack)}",
    ]
    return _emit(args, report.to_dict(), lines, report.passed)


def _cmd_montecarlo(args) -> int:
    from . import oracle

    result = oracle.monte_carlo_mean(args.n, args.trials, args.seed)
    lines = [
        f"n={result.n}, trials={result.trials}, seed={result.seed}",
        f"  mean {_approx(result.mean)}",
        f"  min  {_approx(result.minimum)}",
        f"  max  {_approx(result.maximum)}",
    ]
    return _emit(args, result.to_dict(), lines, True)


def _reporting(p: argparse.ArgumentParser, handler) -> None:
    """Register a report command's handler and its --format, after its own options."""
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=handler)


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
    _reporting(p, _cmd_verify)

    p = sub.add_parser("classify", help="classify the template colourings")
    p.add_argument("--template", choices=("k33",), default="k33")
    _reporting(p, _cmd_classify)

    p = sub.add_parser("expand", help="expansion of one flag product")
    p.add_argument("--family", choices=("R", "B"), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    _reporting(p, _cmd_expand)

    p = sub.add_parser("export-cert", help="write the built-in certificate")
    p.add_argument("--builtin", choices=_BUILTIN_NAMES, default="c6a")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("oracle", help="brute-force confirmation runs")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("identities", help="identity checks on one random clique")
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    _reporting(q, _cmd_identities)

    q = osub.add_parser("inequality", help="bound check on random cliques")
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--count", type=int, default=1, help="consecutive seeds to run, at least 1")
    _reporting(q, _cmd_inequality)

    q = osub.add_parser("exhaustive", help="sweep all 32768 colourings of the 6-clique")
    _reporting(q, _cmd_exhaustive)

    q = osub.add_parser("montecarlo", help="sample mean of the target density")
    q.add_argument("--n", type=int, default=150)
    q.add_argument("--trials", type=int, default=50)
    q.add_argument("--seed", type=int, default=0)
    _reporting(q, _cmd_montecarlo)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        from .certificate import SchemaError

        kind = "schema error" if isinstance(exc, SchemaError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
