#!/usr/bin/env python3
"""Average the certificate over its root swap and verify the result.

The proof sums the quadratic form over every ordered root pair, so swapping
the two roots of every flag maps a valid certificate to a valid one.  Each
family's flags are permuted by that swap; the permutation pi is found here by
searching, for each flag with its roots swapped, the vertex maps onto the
other flags.  The average (M + PMP)/2 is then pi-invariant: in the basis
e1, e2, e7, e8, e3+e5, e4+e6 | e3-e5, e4-e6 it splits into a 6x6 block and a
2x2 block.  The averaged certificate passes every check, and its exported
text is the one pinned in tests/fixtures/cert_rootswap.json.  Nothing is
written to disk.
"""

from itertools import permutations
from pathlib import Path

from flagcert.certificate import (
    Certificate,
    FlagFamily,
    SymMatrix,
    builtin_certificate,
    psd_check,
    save_certificate,
    verify_certificate,
)
from flagcert.graphs import ColoredGraph

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "cert_rootswap.json"


def swapped_onto(f, g):
    """Whether some vertex map sends f's roots, swapped, to g's and f's edges onto g's."""
    return any(
        (sigma[f.roots[1]], sigma[f.roots[0]]) == g.roots
        and ColoredGraph(g.graph.n, ((sigma[u], sigma[v], c) for u, v, c in f.graph.edges)) == g.graph
        for sigma in permutations(range(f.graph.n))
    )


def cycles(pi):
    """The 1-based cycle notation of a permutation, fixed points left out."""
    seen, out = set(), []
    for start in range(len(pi)):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start + 1)
            start = pi[start]
        if len(cycle) > 1:
            out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out)


cert = builtin_certificate()
families = []
for family in cert.families:
    flags = family.flags
    pi = [next(j for j, g in enumerate(flags) if swapped_onto(f, g)) for f in flags]
    print(f"family {family.root_edge_color.value}: root swap permutes the flags by {cycles(pi)}")
    rows = family.matrix.rows
    mean = SymMatrix([[(rows[i][j] + rows[pi[i]][pi[j]]) / 2 for j in range(len(pi))] for i in range(len(pi))])
    print(f"  PMP == M: {SymMatrix([[rows[i][j] for j in pi] for i in pi]) == family.matrix}")
    families.append(FlagFamily(family.root_edge_color, family.flags, mean))

# the symmetric basis: flags that pi fixes, then the sums and differences of its 2-cycles
basis = [{0: 1}, {1: 1}, {6: 1}, {7: 1}, {2: 1, 4: 1}, {3: 1, 5: 1}, {2: 1, 4: -1}, {3: 1, 5: -1}]
assert families[0].matrix == families[1].matrix
rows = families[0].matrix.rows
b = [[sum(x * y * rows[i][j] for i, x in u.items() for j, y in v.items()) for v in basis] for u in basis]
print("\nM-bar, shared by both families, in the basis e1, e2, e7, e8, e3+e5, e4+e6 | e3-e5, e4-e6 (times 256):")
for k, row in enumerate(b):
    cells = [f"{str(x * 256):>5}" for x in row]
    print("  " + " ".join(cells[:6]) + "  |" + " ".join(cells[6:]))
    if k == 5:
        print("  " + "-" * 36 + "--+" + "-" * 12)
assert all(b[i][j] == 0 for i in range(6) for j in range(6, 8)), "cross block"
for name, block in (("6x6", [row[:6] for row in b[:6]]), ("2x2", [row[6:] for row in b[6:]])):
    report = psd_check(SymMatrix(block))
    print(f"  {name} block: psd {report.is_psd}, kernel dimension {len(report.kernel_basis)}")

averaged = Certificate(
    cert.name, cert.template_parts, cert.target, cert.base, tuple(families), cert.bound, cert.classes
)
report = verify_certificate(averaged)
print("\nverify_certificate on the averaged certificate:")
for check in report.checks:
    print(f"  [{'pass' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
print(f"verdict: {'pass' if report.passed else 'FAIL'}")

assert report.passed
assert save_certificate(averaged) == FIXTURE.read_text(encoding="utf-8"), "differs from the pinned fixture"
print(f"\nexported text equals {FIXTURE.relative_to(FIXTURE.parents[2])} byte for byte")
