"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from flagcert import builtin, oracle
from flagcert.certificate import (
    Certificate,
    FlagFamily,
    SymMatrix,
    builtin_certificate,
    certificate_coefficients,
    expand_in_classes,
    flag_product,
    load_certificate,
    psd_check,
    save_certificate,
    verify_certificate,
)
from flagcert.counting import t_bip
from flagcert.graphs import classify, enumerate_template_colorings

from test_certificate import _entry, _with_entry

BOUND = Fraction(1, 64)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_classification():
    with criterion(1, "template classification"):
        start = time.monotonic()
        colorings = enumerate_template_colorings(builtin.template())
        table = classify(
            colorings, builtin.template_group(), builtin.class_representatives()
        )
        elapsed = time.monotonic() - start
        assert len(colorings) == 512
        assert len(table) == 26
        for entry in table.classes:
            assert entry.multiplicity == 72 // entry.aut_count
            assert 72 % entry.aut_count == 0
        assert sum(e.multiplicity for e in table.classes) == 512
        assert elapsed < 5.0, f"classification took {elapsed:.2f}s"


def test_criterion_2_target_expansion_values():
    with criterion(2, "target conditional densities"):
        table = builtin.class_table()
        expected = {
            4: Fraction(12, 72),
            9: Fraction(6, 72),
            11: Fraction(6, 72),
            12: Fraction(12, 72),
        }
        for index in table.indices:
            value = t_bip(builtin.target(), table.representative(index))
            assert value == expected.get(index, Fraction(0)), index


def test_criterion_3_golden_expansions():
    with criterion(3, "72 golden product expansions"):
        table = builtin.class_table()
        families = {"R": builtin.red_flags(), "B": builtin.blue_flags()}
        pairs = builtin.golden_pairs()
        assert len(pairs) == 72
        for fam, i, j in pairs:
            flags = families[fam]
            computed = expand_in_classes(
                flag_product(flags[i - 1], flags[j - 1]), table
            )
            shipped = builtin.golden_numerators(fam, i, j)
            assert computed == {k: Fraction(num, 72) for k, num in enumerate(shipped, 1)}, (fam, i, j)


def test_criterion_4_psd_certificate():
    with criterion(4, "PSD check with all-ones kernel"):
        report = psd_check(SymMatrix(builtin.matrix_rows()))
        assert report.is_psd
        assert all(p >= 0 for p in report.pivot_sequence)
        assert len(report.kernel_basis) == 1
        assert report.kernel_basis[0] == (Fraction(1),) * 8


def test_criterion_5_coefficients_and_mutation():
    with criterion(5, "26 coefficients equal 1/64, mutations break"):
        cert = builtin_certificate()
        table = builtin.class_table()
        coefficients = certificate_coefficients(cert, table)
        assert len(coefficients) == 26
        assert all(value == BOUND for value in coefficients.values())

        matrix = cert.families[0].matrix
        delta = Fraction(1, 128)
        for i in range(1, 9):
            for j in range(i, 9):
                mutated = Certificate(
                    name=cert.name,
                    template_parts=cert.template_parts,
                    target=cert.target,
                    base=cert.base,
                    families=tuple(
                        FlagFamily(
                            fam.root_edge_color,
                            fam.flags,
                            _with_entry(matrix, i, j, _entry(matrix, i, j) + delta),
                        )
                        for fam in cert.families
                    ),
                    bound=cert.bound,
                )
                broken = certificate_coefficients(mutated, table)
                assert any(value != BOUND for value in broken.values()), (i, j)


def test_criterion_6_exhaustive_k6_sweep():
    with criterion(6, "exhaustive 6-clique sweep"):
        start = time.monotonic()
        report = oracle.exhaustive_k6_sweep()
        elapsed = time.monotonic() - start
        assert report.hosts == 32768
        assert report.failures["sum_to_one"] == 0
        assert report.failures["double_count"] == 0
        assert report.failures["expansions"] == 0
        assert report.failures["flagged_inequality"] == 0
        assert report.min_inequality_slack >= 0
        assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"


def test_criterion_7_randomized_inequality():
    with criterion(7, "randomized flagged inequality"):
        for n in (8, 10, 12):
            for seed in range(20):
                host = oracle.random_clique_coloring(n, seed)
                report = oracle.check_flagged_inequality(host)
                main = report.records[0]
                assert main.check == "flagged_inequality"
                assert main.holds, (n, seed)
                assert report.passed, (n, seed)


def test_criterion_8_monte_carlo_tightness():
    with criterion(8, "Monte Carlo mean near 1/64"):
        result = oracle.monte_carlo_mean(n=150, trials=50, seed=2024)
        assert abs(result.mean - BOUND) < Fraction(1, 1000)


def test_criterion_9_export_round_trip():
    with criterion(9, "export and re-verify round trip"):
        cert = builtin_certificate()
        text = save_certificate(cert)
        loaded = load_certificate(text)
        assert loaded == cert
        assert save_certificate(loaded) == text

        original = verify_certificate(cert)
        reloaded = verify_certificate(loaded)
        assert reloaded.coefficients == original.coefficients
        assert all(value == BOUND for value in reloaded.coefficients.values())
        assert reloaded == original
        assert loaded == cert  # both now hold their glued flag pairs
