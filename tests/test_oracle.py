"""Deterministic randomness, identity checks, the sweep, Monte Carlo."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcert import builtin, certificate, oracle
from flagcert.certificate import builtin_certificate, expand_in_classes, load_certificate
from flagcert.counting import (
    color_adjacency,
    falling_factorial,
    hom_inj_batch,
    hom_inj_count,
    subcube_count_table,
    t_inj,
)
from flagcert.graphs import (
    ClassTable,
    Color,
    ColoredGraph,
    alternating_cycle,
    enumerate_template_colorings,
)

from test_certificate import _edited, _shifted
from test_graphs import complete_graph


class TestRandomness:
    def test_mix64_reference_vectors(self):
        # published splitmix64 stream for seed 1234567
        assert [oracle.stream_value(1234567, k) for k in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    @pytest.mark.parametrize("seed", [0, -1, 2**64 + 5, 1234567])
    @pytest.mark.parametrize("k", [0, 1, 15, 1000])
    def test_array_stream_matches_scalar_stream(self, seed, k):
        values = oracle.stream_value(seed, np.arange(k, dtype=np.uint64))
        assert values.dtype == np.uint64 and values.shape == (k,)
        assert values.tolist() == [oracle.stream_value(seed, i) for i in range(k)]

    def test_trial_seeds_of_negative_and_oversized_seeds(self):
        assert [oracle.trial_seed(-1, t) for t in range(3)] == [
            11632374133438027796,
            3328964719279880879,
            6768671320747118054,
        ]
        assert [oracle.trial_seed(2**64 + 5, t) for t in range(3)] == [
            15540687011558237927,
            3888337174722989342,
            11993426100953392830,
        ]

    def test_same_seed_same_graph(self):
        assert oracle.random_clique_coloring(9, 42) == oracle.random_clique_coloring(9, 42)

    def test_different_seeds_differ(self):
        assert oracle.random_clique_coloring(9, 0) != oracle.random_clique_coloring(9, 1)

    def test_single_vertex(self):
        g = oracle.random_clique_coloring(1, 5)
        assert g.n == 1
        assert g.edge_count == 0

    def test_no_vertex_is_refused(self):
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            oracle.random_clique_coloring(0, 5)

    def test_output_is_a_clique(self):
        assert oracle.random_clique_coloring(7, 3).is_clique()

    def test_pairs_follow_scalar_stream(self):
        # pair k in sorted order is blue exactly when stream value k is odd;
        # negative and oversized seeds reduce mod 2**64 as in stream_value
        for n, seed in ((1, 5), (9, 42), (13, 77), (10, -1), (10, 2**64 + 5)):
            g = oracle.random_clique_coloring(n, seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert g.pairs == tuple(pairs)
            for k, (u, v) in enumerate(pairs):
                blue = oracle.stream_value(seed, k) & 1 == 1
                assert (g.edge_color(u, v) is Color.BLUE) == blue


GUARD_MESSAGE = "host with 65 vertices rejected: oracle host checks are limited to n <= 64"
SMALL_HOST_MESSAGE = "host with {n} vertices rejected: oracle host checks need at least 6 vertices"


def _no_counting(*args):
    raise AssertionError("counting reached")


class TestIdentityChecks:
    def test_all_red_k7(self):
        report = oracle.check_identities(complete_graph(7, Color.RED))
        assert report.passed
        by_name = {r.check: r for r in report.records}
        assert by_name["sum_to_one"].lhs == 1
        assert by_name["double_count"].lhs == 0
        assert by_name["double_count"].rhs == 0

    def test_random_k9_seed_42(self):
        report = oracle.check_identities(oracle.random_clique_coloring(9, 42))
        assert report.passed
        expansions = [r for r in report.records if r.check.startswith("expansion_")]
        assert len(expansions) == 128

    def test_small_host_degenerates(self):
        # below six vertices no density is defined, so nothing is checked
        with pytest.raises(ValueError, match=SMALL_HOST_MESSAGE.format(n=4)):
            oracle.check_identities(oracle.random_clique_coloring(4, 0))

    def test_rejects_non_clique(self):
        with pytest.raises(ValueError):
            oracle.check_identities(alternating_cycle(6))

    def test_deterministic_records(self):
        g = oracle.random_clique_coloring(7, 12)
        assert oracle.check_identities(g) == oracle.check_identities(g)

    def test_cost_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "hom_inj_batch", _no_counting)
        with pytest.raises(ValueError, match=GUARD_MESSAGE):
            oracle.check_identities(complete_graph(65, Color.RED))


class TestFlaggedInequality:
    def test_all_red_k8_value(self):
        # only the all-red flag is ever embeddable; each of the 56 ordered
        # root pairs admits 6*5 placements, so the quadratic part is
        # 56 * 900 * (2/128) / (8)_6 = 5/128
        report = oracle.check_flagged_inequality(complete_graph(8, Color.RED))
        main = report.records[0]
        assert main.check == "flagged_inequality"
        assert main.lhs == 0
        assert main.rhs == Fraction(5, 128)
        assert main.holds

    def test_random_instances_hold(self):
        for seed in (0, 1):
            g = oracle.random_clique_coloring(8, seed)
            report = oracle.check_flagged_inequality(g)
            assert report.passed

    @pytest.mark.parametrize(
        "n, seed, rhs, surplus",
        [(8, 0, Fraction(2869, 46080), 30240), (10, 3, Fraction(11087, 268800), 131040)],
    )
    def test_pinned_values(self, n, seed, rhs, surplus):
        report = oracle.check_flagged_inequality(oracle.random_clique_coloring(n, seed))
        assert report.records[0].rhs == rhs
        assert sum(r.lhs for r in report.records[1:]) == surplus

    def test_surplus_records_present_and_nonnegative(self):
        report = oracle.check_flagged_inequality(oracle.random_clique_coloring(7, 5))
        surpluses = [r for r in report.records if r.check.startswith("overlap_surplus_")]
        assert len(surpluses) == 128
        assert all(r.lhs >= 0 and r.holds for r in surpluses)

    def test_cost_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "hom_inj_batch", _no_counting)
        with pytest.raises(ValueError, match=GUARD_MESSAGE):
            oracle.check_flagged_inequality(complete_graph(65, Color.RED))

    def test_small_host_rejected(self):
        with pytest.raises(ValueError, match=SMALL_HOST_MESSAGE.format(n=5)):
            oracle.check_flagged_inequality(complete_graph(5, Color.RED))

    def test_rejects_non_clique(self):
        with pytest.raises(ValueError):
            oracle.check_flagged_inequality(alternating_cycle(6))


def _reference_records(g: ColoredGraph, cert):
    """Identity and inequality records of ``g`` under ``cert`` built as rational sums.

    Class densities are multiplicity times ``t_inj``, each pattern's rhs is
    its class expansion against them, and the quadratic form is the sum of
    Gram sums of the flags' rooted count tables over (n)_6.
    """
    table = builtin.class_table()
    name = f"clique n={g.n}"
    d = {l: table.multiplicity(l) * t_inj(table.representative(l), g) for l in table.indices}

    def expanded(pattern):
        expansion = expand_in_classes(pattern, table)
        return sum((expansion[l] * d[l] for l in table.indices), Fraction(0))

    def record(check, lhs, rhs, holds):
        return oracle.OracleRecord(check, name, lhs, rhs, holds)

    target = t_inj(cert.target, g)
    identities = [
        record("sum_to_one", sum(d.values()), Fraction(1), sum(d.values()) == 1),
        record("double_count", target, expanded(cert.target), target == expanded(cert.target)),
    ]
    red, blue = color_adjacency(g)
    quad = Fraction(0)
    surpluses = []
    for family, i, j, labels, _, product in cert.flag_pairs:
        lhs, rhs = t_inj(product, g), expanded(product)
        identities += [record(f"expansion_{label}", lhs, rhs, lhs == rhs) for label in labels]
        x_i, x_j = (
            hom_inj_batch([(family.flags[k].graph, family.flags[k].roots)], red, blue)[0]
            for k in (i, j)
        )
        gram = int((x_i * x_j).sum())
        quad += len(labels) * family.matrix.rows[i][j] * gram
        surplus = Fraction(gram - hom_inj_count(product, g))
        surpluses += [
            record(f"overlap_surplus_{label}", surplus, Fraction(0), surplus >= 0)
            for label in labels
        ]
    rhs = sum((c * d[l] for l, c in cert.base.items()), Fraction(0))
    rhs += quad / falling_factorial(g.n, 6)
    return identities, [record("flagged_inequality", target, rhs, target <= rhs), *surpluses]


@st.composite
def cliques(draw, min_n=4, max_n=9):
    """Red/blue cliques on min_n..max_n vertices, every pair drawn."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    blue = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v, Color.BLUE if b else Color.RED) for (u, v), b in zip(pairs, blue)]
    return ColoredGraph(n, edges)


class TestEvaluator:
    @settings(max_examples=12, deadline=None)
    @given(cliques())
    def test_records_match_rational_reference(self, g):
        if g.n < 6:
            for check in (oracle.check_identities, oracle.check_flagged_inequality):
                with pytest.raises(ValueError, match=SMALL_HOST_MESSAGE.format(n=g.n)):
                    check(g)
            return
        identities, inequality = _reference_records(g, builtin_certificate())
        assert list(oracle.check_identities(g).records) == identities
        assert list(oracle.check_flagged_inequality(g).records) == inequality

    @pytest.mark.parametrize(
        "edit",
        [_shifted(0, 2, 3, Fraction(1, 5)), _shifted(1, 4, 4, Fraction(-3, 128))],
        ids=["red_2_3_plus_1_5", "blue_4_4_minus_3_128"],
    )
    @pytest.mark.parametrize("n, seed", [(6, 1), (7, 1), (8, 2)])
    def test_records_match_rational_reference_on_shifted_certificates(
        self, monkeypatch, edit, n, seed
    ):
        # a 1/5 shift puts weights over 5 * 128, outside the builtin's lcm, and
        # the -3/128 one takes a diagonal entry from 3/32 to 9/128
        cert = load_certificate(_edited(edit))
        monkeypatch.setattr(certificate, "builtin_certificate", lambda: cert)
        g = oracle.random_clique_coloring(n, seed)
        identities, inequality = _reference_records(g, cert)
        assert inequality[0].rhs != _reference_records(g, builtin_certificate())[1][0].rhs
        assert list(oracle.check_identities(g).records) == identities
        assert list(oracle.check_flagged_inequality(g).records) == inequality

    def test_sweep_minimum_slack_is_at_the_monochromatic_cliques(self):
        # colourings 0 and 32767 of the sweep are the all-red and all-blue
        # 6-cliques; the per-host check gives them the sweep's least slack
        hosts = enumerate_template_colorings(complete_graph(6, Color.RED))
        assert hosts[0] == complete_graph(6, Color.RED)
        assert hosts[32767] == complete_graph(6, Color.BLUE)
        for g in (hosts[0], hosts[32767]):
            main = oracle.check_flagged_inequality(g).records[0]
            assert main.rhs - main.lhs == Fraction(3, 32)
        assert oracle.exhaustive_k6_sweep().min_inequality_slack == Fraction(3, 32)


class TestExhaustiveSweep:
    def test_sweep_clean(self):
        report = oracle.exhaustive_k6_sweep()
        assert report.passed
        assert report.hosts == 32768
        assert report.failures == {
            "sum_to_one": 0,
            "double_count": 0,
            "expansions": 0,
            "flagged_inequality": 0,
        }
        assert report.min_inequality_slack == Fraction(3, 32)
        assert report.checks == 4292608

    def test_colour_swapped_tables_are_reversed(self):
        # the sweep reads a blue product's or flag's table as its red mirror's reversed
        cert = builtin_certificate()
        pairs = oracle._K6_PAIRS
        rooted = [(f.graph, dict(zip(f.roots, (0, 1)))) for family in cert.families for f in family.flags]
        patterns = [(p, None) for *_, p in cert.flag_pairs] + rooted
        assert len(patterns) == 88
        for p, roots in patterns:
            direct = subcube_count_table(p.swap_colors(), 6, pairs, roots)
            assert np.array_equal(direct, subcube_count_table(p, 6, pairs, roots)[::-1]), p

    def test_counts_each_table_once(self, monkeypatch):
        # the 26 class representatives, the target, the 36 red products and the
        # 8 red flags pinned at (0, 1); every blue table is a red one reversed
        cert, table = builtin_certificate(), builtin.class_table()
        calls = []

        def recorded(h, n, pairs, root_images=None):
            calls.append((h, tuple(sorted((root_images or {}).items()))))
            return subcube_count_table(h, n, pairs, root_images)

        def tables(colour):
            families = [family for family in cert.families if family.root_edge_color is colour]
            flags = {(f.graph, tuple(sorted(zip(f.roots, (0, 1))))) for family in families for f in family.flags}
            return flags | {(p, ()) for family, *_, p in cert.flag_pairs if family in families}

        monkeypatch.setattr(oracle, "subcube_count_table", recorded)
        assert oracle.exhaustive_k6_sweep().passed
        assert len(calls) == len(set(calls)) == 71
        classes = {(table.representative(l), ()) for l in table.indices}
        assert set(calls) == classes | {(cert.target, ())} | tables(Color.RED)
        assert not set(calls) & tables(Color.BLUE)

    def test_a_miscounted_blue_expansion_fails(self, monkeypatch):
        # a blue product's table is read from its red mirror, but still checked
        # against the blue product's own class expansion
        cert = builtin_certificate()
        reds = {p for family, *_, p in cert.flag_pairs if family.root_edge_color is Color.RED}
        blue = next(p for family, *_, p in cert.flag_pairs if family.root_edge_color is Color.BLUE)
        assert blue.swap_colors() in reds
        expansion = ClassTable.expansion

        def shifted(table, p):
            maps, counts = expansion(table, p)
            if p == blue:
                (l, c), *rest = counts
                counts = ((l, c + 1), *rest)
            return maps, counts

        monkeypatch.setattr(ClassTable, "expansion", shifted)
        report = oracle.exhaustive_k6_sweep()
        assert report.failures["expansions"] > 0
        assert report.failures["sum_to_one"] == report.failures["double_count"] == 0

    def test_count_tables_match_brute_force(self):
        # the subcube engine and the backtracking counter must agree host
        # by host; spot-check the extreme and a few scattered colourings
        hosts = enumerate_template_colorings(complete_graph(6, Color.RED))
        target = builtin.target()
        table = subcube_count_table(target, 6, oracle._K6_PAIRS)
        # 720 maps, each matching the 2^9 colourings that fix its six pairs
        assert table.sum() == 720 << 9
        for m in (0, 1, 4097, 77, 30000, 32767):
            assert table[m] == hom_inj_count(target, hosts[m])

    def test_relabelled_tables_match_directly_pinned_tables(self):
        # the sweep pins each flag once at roots (0, 1); transposing that
        # table's bit axes must give the kernel's table for every root pair
        pairs = oracle._K6_PAIRS
        flags = [f for family in builtin_certificate().families for f in family.flags]
        assert len(flags) == 16
        for f in flags:
            rooted01 = subcube_count_table(f.graph, 6, pairs, dict(zip(f.roots, (0, 1))))
            for u, v in permutations(range(6), 2):
                direct = subcube_count_table(f.graph, 6, pairs, dict(zip(f.roots, (u, v))))
                relabelled = rooted01.reshape((2,) * 15).transpose(oracle._k6_relabel_axes(u, v))
                assert np.array_equal(relabelled.ravel(), direct), (f, u, v)

    def test_host_bit_convention_matches_enumeration(self):
        hosts = enumerate_template_colorings(complete_graph(6, Color.RED))
        pairs = oracle._K6_PAIRS
        m = 0b101000000000001
        for k, (u, v) in enumerate(pairs):
            expected = Color.BLUE if (m >> k) & 1 else Color.RED
            assert hosts[m].edge_color(u, v) is expected


class TestMonteCarlo:
    def test_deterministic(self):
        a = oracle.monte_carlo_mean(10, 3, 7)
        b = oracle.monte_carlo_mean(10, 3, 7)
        assert a == b

    def test_single_trial_n6_denominator(self):
        result = oracle.monte_carlo_mean(6, 1, 123)
        assert (720 * result.mean).denominator == 1
        assert result.mean == result.minimum == result.maximum

    def test_trials_match_direct_counting(self):
        result = oracle.monte_carlo_mean(8, 4, 9)
        values = []
        for t in range(4):
            g = oracle.random_clique_coloring(8, oracle.trial_seed(9, t))
            values.append(t_inj(builtin.target(), g))
        assert result.mean == sum(values, Fraction(0)) / 4
        assert result.minimum == min(values)
        assert result.maximum == max(values)

    def test_schedule_independence(self):
        # each trial is a pure function of (seed, index), so any evaluation
        # order reproduces the same summary
        result = oracle.monte_carlo_mean(9, 6, 4)
        values = []
        for t in reversed(range(6)):
            red, blue = oracle._random_clique_matrices(9, oracle.trial_seed(4, t))
            from flagcert.counting import alternating_hom_inj_from_matrices, falling_factorial

            values.append(
                Fraction(
                    alternating_hom_inj_from_matrices(red, blue),
                    falling_factorial(9, 6),
                )
            )
        assert sum(values, Fraction(0)) / 6 == result.mean
        assert min(values) == result.minimum
        assert max(values) == result.maximum

    def test_guards(self):
        with pytest.raises(ValueError):
            oracle.monte_carlo_mean(5, 1, 0)
        with pytest.raises(ValueError):
            oracle.monte_carlo_mean(8, 0, 0)

    def test_size_guard_runs_before_the_colour_draw(self, monkeypatch):
        def draw(n, seed):
            raise AssertionError("colour draw reached")

        monkeypatch.setattr(oracle, "_random_clique_matrices", draw)
        with pytest.raises(ValueError, match="n <= 6209"):
            oracle.monte_carlo_mean(6210, 1, 0)

    def test_means_straddle_expected_value(self):
        # the sample mean is unbiased for 1/64, so its sign against the
        # expectation must vary across master seeds
        signs = set()
        for seed in range(20):
            mean = oracle.monte_carlo_mean(150, 50, seed).mean
            if mean != Fraction(1, 64):
                signs.add(1 if mean > Fraction(1, 64) else -1)
        assert signs == {1, -1}
