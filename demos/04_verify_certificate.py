#!/usr/bin/env python3
"""Run the full certificate verification pipeline.

The shipped certificate claims every class coefficient of its bound
expression equals exactly 1/64.  Verification recomputes the
classification, the base vector, positive semidefiniteness of the matrix
(with its kernel), all 26 coefficients, and the golden expansion table.
A perturbed copy of the matrix is then shown to fail loudly.
"""

from fractions import Fraction

from flagcert.certificate import (
    Certificate,
    FlagFamily,
    SymMatrix,
    builtin_certificate,
    psd_check,
    verify_certificate,
)

cert = builtin_certificate()
report = verify_certificate(cert)

print(f"certificate: {report.certificate_name}")
for check in report.checks:
    print(f"  [{'pass' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
print(f"verdict: {'pass' if report.passed else 'FAIL'}")

psd = psd_check(cert.families[0].matrix)
print(f"\npositive pivots: {sum(1 for p in psd.pivot_sequence if p > 0)} of 8")
print(f"kernel basis (normalized): {[str(x) for x in psd.kernel_basis[0]]}")

# one wrong entry in the matrix must surface in the coefficient check: the
# diagonal entry (1,1) moves by 1/128, so only the first row changes
rows = cert.families[0].matrix.rows
matrix = SymMatrix(((rows[0][0] + Fraction(1, 128), *rows[0][1:]), *rows[1:]))
tampered = Certificate(
    name=cert.name + " (tampered)",
    template_parts=cert.template_parts,
    target=cert.target,
    base=cert.base,
    families=tuple(FlagFamily(f.root_edge_color, f.flags, matrix) for f in cert.families),
    bound=cert.bound,
)
bad = verify_certificate(tampered)
print(f"\ntampered matrix entry (1,1): verdict {'pass' if bad.passed else 'FAIL'}")
for check in bad.checks:
    if not check.passed:
        print(f"  failing check: {check.name} ({check.detail})")
