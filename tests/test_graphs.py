"""Graph representation, automorphisms, canonical forms, classification."""

import re
from dataclasses import FrozenInstanceError
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcert import builtin
from flagcert.graphs import (
    ClassEntry,
    Color,
    ColoredGraph,
    Flag,
    alternating_cycle,
    canonical_form,
    classify,
    enumerate_template_colorings,
    pair_actions,
    shape_maps,
    underlying_automorphisms,
)


def complete_graph(n: int, color: Color) -> ColoredGraph:
    """The clique on n vertices with every pair coloured ``color``."""
    return ColoredGraph(n, ((u, v, color) for u in range(n) for v in range(u + 1, n)))


def relabel(g: ColoredGraph, perm) -> ColoredGraph:
    """Apply the vertex bijection ``u -> perm[u]``."""
    return ColoredGraph(g.n, ((perm[u], perm[v], c) for u, v, c in g.edges))


def naive_color_automorphism_count(g: ColoredGraph) -> int:
    """Independent oracle: filter all n! permutations directly."""
    count = 0
    for perm in permutations(range(g.n)):
        ok = True
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.edge_color(u, v) != g.edge_color(perm[u], perm[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


@st.composite
def partial_graphs(draw, max_n=6):
    """Coloured graphs on at most ``max_n`` vertices, each pair red, blue or absent."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colour = st.sampled_from([None, *Color])
    colours = draw(st.lists(colour, min_size=len(pairs), max_size=len(pairs)))
    return ColoredGraph(n, [(u, v, c) for (u, v), c in zip(pairs, colours) if c is not None])


# Everything that is not a plain int: a vertex count, endpoint or root must be one.
NOT_INTS = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=3), st.none(), st.integers(0, 5).map(np.int64)
)

PATH4 = ColoredGraph(4, [(0, 1, Color.RED), (1, 2, Color.BLUE), (2, 3, Color.RED)])


# The colour-swap involution on class indices, computed once from the shipped
# table and frozen here; note it is not l <-> 27 - l.
SWAP_INVOLUTION = {
    1: 26, 2: 25, 3: 22, 4: 12, 5: 24, 6: 20, 7: 14, 8: 21, 9: 11, 10: 17,
    11: 9, 12: 4, 13: 18, 14: 7, 15: 23, 16: 19, 17: 10, 18: 13, 19: 16,
    20: 6, 21: 8, 22: 3, 23: 15, 24: 5, 25: 2, 26: 1,
}


class TestColor:
    def test_two_values(self):
        assert len(Color) == 2

    def test_swap_is_involution(self):
        for c in Color:
            assert c.swapped != c
            assert c.swapped.swapped == c


class TestColoredGraph:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            ColoredGraph(3, [(1, 1, Color.RED)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ColoredGraph(3, [(0, 3, Color.RED)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            ColoredGraph(3, [(0, 1, Color.RED), (1, 0, Color.BLUE)])

    def test_rejects_colour_that_is_not_a_color(self):
        with pytest.raises(ValueError, match=r"^edge \(0,1\) colour must be a Color$"):
            ColoredGraph(3, [(0, 1, "R")])

    @pytest.mark.parametrize("length", [5, 2])
    def test_alternating_cycle_needs_an_even_length_of_at_least_four(self, length):
        with pytest.raises(ValueError, match="^alternating cycle length must be even and >= 4$"):
            alternating_cycle(length)

    def test_edge_lookup_symmetric(self):
        g = ColoredGraph(3, [(0, 2, Color.BLUE)])
        assert g.edge_color(0, 2) is Color.BLUE
        assert g.edge_color(2, 0) is Color.BLUE
        assert g.edge_color(0, 1) is None

    def test_relabel_roundtrip(self):
        g = alternating_cycle(6)
        perm = (3, 5, 0, 1, 4, 2)
        inverse = [0] * 6
        for i, p in enumerate(perm):
            inverse[p] = i
        assert relabel(relabel(g, perm), inverse) == g

    def test_alternating_cycle_degrees(self):
        g = alternating_cycle(6)
        for v in range(6):
            colors = [g.edge_color(v, w) for w in range(6) if g.edge_color(v, w)]
            assert sorted(c.value for c in colors) == ["B", "R"]


class TestValueTypes:
    """Graphs and flags are frozen, slotted, and equal exactly when their fields are."""

    @settings(max_examples=60, deadline=None)
    @given(partial_graphs(), st.randoms(use_true_random=False))
    def test_edge_order_and_orientation_do_not_matter(self, g, rnd):
        edges = [(v, u, c) if rnd.random() < 0.5 else (u, v, c) for u, v, c in g.edges]
        rnd.shuffle(edges)
        other = ColoredGraph(g.n, edges)
        assert other == g and hash(other) == hash(g)
        assert other.edges == g.edges

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 8), st.data())
    def test_pairs_and_blue_word_encode_the_edges(self, n, data):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.permutations(all_pairs))[: data.draw(st.integers(0, len(all_pairs)))]
        size = len(chosen)
        colours = data.draw(st.lists(st.sampled_from(Color), min_size=size, max_size=size))
        flips = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        given_edges = [(v, u, c) if f else (u, v, c) for (u, v), c, f in zip(chosen, colours, flips)]
        g = ColoredGraph(n, given_edges)
        expected = tuple(sorted(zip(chosen, colours)))
        assert g.edges == tuple((u, v, c) for (u, v), c in expected)
        assert g.pairs == tuple(p for p, _ in expected)
        assert g.blue == sum(1 << k for k, (_, c) in enumerate(expected) if c is Color.BLUE)
        assert g.swap_colors().blue == g.blue ^ ((1 << g.edge_count) - 1)
        perm = data.draw(st.permutations(range(n)))
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        assert relabel(relabel(g, perm), inverse) == g
        other = ColoredGraph(n, data.draw(st.permutations(given_edges)))
        assert other == g and hash(other) == hash(g)

    def test_equality_reads_every_field(self):
        g = alternating_cycle(6)
        assert g != ColoredGraph(6, g.edges[1:])
        assert g != ColoredGraph(7, g.edges)
        assert g != g.swap_colors()
        flag = Flag(g, (0, 1))
        assert flag == Flag(ColoredGraph(6, reversed(g.edges)), [0, 1])
        assert hash(flag) == hash(Flag(g, [0, 1]))
        assert flag != Flag(g, (1, 0))
        assert flag != Flag(g.swap_colors(), (0, 1))

    def test_fields_are_read_only(self):
        g = alternating_cycle(6)
        flag = Flag(g, (0, 1))
        fields = ((g, "n", 5), (g, "pairs", ()), (g, "blue", 0), (g, "edges", ()), (flag, "roots", (1, 0)))
        for obj, name, value in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
        assert g.n == 6 and g.edge_count == 6 and g.blue and flag.roots == (0, 1)

    def test_no_instance_dict(self):
        g = alternating_cycle(6)
        entry = builtin.class_table().classes[0]
        for obj in (g, Flag(g, (0, 1)), entry):
            assert not hasattr(obj, "__dict__")
        assert isinstance(entry, ClassEntry)

    def test_flag_roots(self):
        g = alternating_cycle(6)
        assert Flag(g, [2, 0]).roots == (2, 0)
        with pytest.raises(ValueError, match="^duplicate root indices$"):
            Flag(g, (0, 0))
        with pytest.raises(ValueError, match="^root 6 is not a vertex of the 6-vertex graph$"):
            Flag(g, (0, 6))

    # the roots the counting kernel and the count tables once checked themselves
    @pytest.mark.parametrize(
        "graph, roots, message",
        [
            (PATH4, (-1, 0), "root -1 is not a vertex of the 4-vertex graph"),
            (PATH4, (0, 5), "root 5 is not a vertex of the 4-vertex graph"),
            (PATH4, (1, 1), "duplicate root indices"),
            (PATH4, (0, 1.0), "root 1.0 is not a vertex of the 4-vertex graph"),
            (builtin.blue_flags()[0].graph, (-1, 1), "root -1 is not a vertex of the 4-vertex graph"),
            (builtin.blue_flags()[0].graph, (6, 1), "root 6 is not a vertex of the 4-vertex graph"),
            (builtin.blue_flags()[0].graph, (1.0, 1), "root 1.0 is not a vertex of the 4-vertex graph"),
        ],
    )
    def test_flag_refuses_roots_outside_its_graph(self, graph, roots, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Flag(graph, roots)

    def test_indices_that_are_not_ints_are_refused(self):
        g = ColoredGraph(6)
        for make in (
            lambda: Flag(g, (0.5, 1)),
            lambda: Flag(g, (0, True)),
            lambda: ColoredGraph(2.5, ()),
            lambda: ColoredGraph(3, [(0, 1.5, Color.RED)]),
            lambda: ColoredGraph(3, [(True, 2, Color.RED)]),
        ):
            with pytest.raises(ValueError):
                make()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_only_plain_ints_index_vertices(self, n, data):
        bad = data.draw(NOT_INTS)
        u, v = data.draw(st.permutations(range(n)))[:2]
        g = ColoredGraph(n, [(u, v, Color.RED)])
        assert g.edges == ((min(u, v), max(u, v), Color.RED),)
        assert Flag(g, (u, v)).roots == (u, v)
        for make in (
            lambda: ColoredGraph(bad),
            lambda: ColoredGraph(n, [(bad, v, Color.RED)]),
            lambda: ColoredGraph(n, [(u, bad, Color.RED)]),
            lambda: Flag(g, (bad,)),
            lambda: Flag(g, (u, bad)),
        ):
            with pytest.raises(ValueError):
                make()

    def test_class_table_is_read_only(self):
        # a write to an entry is refused too (tests/test_certificate.py)
        table = builtin.class_table()
        with pytest.raises(FrozenInstanceError):
            table.lookup = {}
        with pytest.raises(TypeError):
            table.lookup[0] = 2
        assert isinstance(table.classes, tuple)
        assert builtin.class_table() is table and table.multiplicity(1) == 1


class TestUnderlyingAutomorphisms:
    def test_template_group_order(self):
        # 2 * 3! * 3! side-and-part symmetries
        assert len(underlying_automorphisms(builtin.template())) == 72

    def test_complete_graph(self):
        assert len(underlying_automorphisms(complete_graph(6, Color.RED))) == 720

    def test_single_edge(self):
        g = ColoredGraph(2, [(0, 1, Color.RED)])
        assert len(underlying_automorphisms(g)) == 2

    def test_guard_rejects_large(self):
        with pytest.raises(ValueError):
            underlying_automorphisms(complete_graph(9, Color.RED))

    @settings(max_examples=60, deadline=None)
    @given(partial_graphs())
    def test_matches_naive_filter(self, g):
        pairs = set(g.pairs)
        naive = [
            perm
            for perm in permutations(range(g.n))
            if {tuple(sorted((perm[u], perm[v]))) for u, v in pairs} == pairs
        ]
        assert underlying_automorphisms(g) == naive


class TestPairActions:
    @settings(max_examples=60, deadline=None)
    @given(partial_graphs(), st.data())
    def test_rows_exactly_for_maps_onto_pairs(self, g, data):
        # maps need not be injective; a map gets a row exactly when every
        # edge lands on a pair, and the row names that pair
        vertex = st.integers(0, max(g.n - 1, 0))
        maps = data.draw(st.lists(st.tuples(*[vertex] * g.n), max_size=20))
        pairs = g.pairs
        rows = pair_actions(maps, pairs, pairs)
        images = [[tuple(sorted((m[u], m[v]))) for u, v in pairs] for m in maps]
        assert [m for m, _ in rows] == [
            m for m, image in zip(maps, images) if set(image) <= set(pairs)
        ]
        for m, row in rows:
            assert [pairs[k] for k in row] == [tuple(sorted((m[u], m[v]))) for u, v in pairs]


class TestShapeMaps:
    @pytest.mark.parametrize(
        "k, shape, pinned",
        [
            (3, ((0, 1), (0, 2), (1, 2)), ()),  # a triangle in a bipartite template
            (2, ((0, 1),), ((0, 0), (1, 1))),  # an edge pinned inside one part
        ],
    )
    def test_refuses_a_shape_with_no_map(self, k, shape, pinned):
        tmpl = builtin.template()
        with pytest.raises(ValueError, match="^pattern does not embed in the template$"):
            shape_maps(k, shape, tmpl.n, tmpl.pairs, pinned)


class TestAutomorphismCount:
    """The classification's ``aut_count`` against the brute-force count."""

    def test_monochromatic_extremes(self):
        table = builtin.class_table()
        for index in (1, 26):
            assert table.classes[index - 1].aut_count == 72
            assert naive_color_automorphism_count(table.representative(index)) == 72

    def test_blue_perfect_matching(self):
        # stabilizer of a perfect matching inside the template group
        table = builtin.class_table()
        assert table.classes[3].aut_count == 12
        assert naive_color_automorphism_count(table.representative(4)) == 12

    def test_matches_naive_oracle_on_all_representatives(self):
        for entry in builtin.class_table().classes:
            assert entry.aut_count == naive_color_automorphism_count(entry.representative)

    def test_swap_preserves_count(self):
        table = builtin.class_table()
        for entry in table.classes:
            swapped = table.classes[SWAP_INVOLUTION[entry.index] - 1]
            assert entry.aut_count == swapped.aut_count
            assert naive_color_automorphism_count(
                entry.representative.swap_colors()
            ) == entry.aut_count


class TestCanonicalForm:
    def test_identity_group_reproduces_plain_encoding(self):
        # sorted ((u, v), colour bit) entries, red=0, blue=1
        g = alternating_cycle(6)
        assert canonical_form(g, [tuple(range(6))]) == (
            ((0, 1), 0), ((0, 5), 1), ((1, 2), 1), ((2, 3), 0), ((3, 4), 1), ((4, 5), 0),
        )

    def test_constant_on_relabellings(self):
        group = builtin.template_group()
        rep = builtin.class_table().representative(7)
        base = canonical_form(rep, group)
        for perm in list(group)[::7]:
            assert canonical_form(relabel(rep, perm), group) == base

    def test_separates_different_red_counts(self):
        group = builtin.template_group()
        table = builtin.class_table()
        assert canonical_form(table.representative(2), group) != canonical_form(
            table.representative(25), group
        )

    def test_512_colorings_give_26_codes(self):
        group = builtin.template_group()
        codes = {
            canonical_form(g, group)
            for g in enumerate_template_colorings(builtin.template())
        }
        assert len(codes) == 26

    def test_constant_on_orbits_and_separating(self):
        # exhaustively: equal codes exactly when some group element links them
        group = builtin.template_group()
        colorings = enumerate_template_colorings(builtin.template())
        by_code = {}
        for g in colorings:
            by_code.setdefault(canonical_form(g, group), []).append(g)
        for members in by_code.values():
            rep = members[0]
            images = {relabel(rep, perm) for perm in group}
            assert set(members) == images


class TestEnumeration:
    def test_template_has_512(self):
        assert len(enumerate_template_colorings(builtin.template())) == 512

    def test_single_edge(self):
        g = ColoredGraph(2, [(0, 1, Color.RED)])
        assert len(enumerate_template_colorings(g)) == 2

    def test_empty_graph(self):
        assert len(enumerate_template_colorings(ColoredGraph(3))) == 1

    def test_edge_guard(self):
        with pytest.raises(ValueError):
            enumerate_template_colorings(complete_graph(7, Color.RED))

    def test_deterministic_order(self):
        colorings = enumerate_template_colorings(builtin.template())
        assert colorings[0] == relabel(complete_graph(6, Color.RED), range(6)) or all(
            c is Color.RED for _, _, c in colorings[0].edges
        )
        assert all(c is Color.BLUE for _, _, c in colorings[-1].edges)


class TestClassification:
    def test_class_count_and_multiplicities(self):
        table = builtin.class_table()
        assert len(table) == 26
        assert sum(e.multiplicity for e in table.classes) == 512
        for e in table.classes:
            assert e.multiplicity * e.aut_count == 72

    def test_class_table_matches_canonical_form_partition(self):
        # every one of the 512 codes against the canonical-form partition of
        # its colouring graph, with classes aligned to the shipped representatives
        table = builtin.class_table()
        group = builtin.template_group()
        index_of = {
            canonical_form(rep, group): index
            for index, rep in enumerate(builtin.class_representatives(), start=1)
        }
        colorings = enumerate_template_colorings(builtin.template())
        assert sorted(table.lookup) == list(range(512))
        for code, g in enumerate(colorings):
            assert table.lookup[code] == index_of[canonical_form(g, group)]
        classes = list(table.lookup.values())
        for entry in table.classes:
            assert entry.aut_count == naive_color_automorphism_count(entry.representative)
            assert entry.multiplicity == classes.count(entry.index)

    def test_all_red_class_is_singleton(self):
        table = builtin.class_table()
        assert table.multiplicity(1) == 1

    def test_class_of_relabelling(self):
        table = builtin.class_table()
        group = builtin.template_group()
        for index in table.indices:
            rep = table.representative(index)
            for perm in group:
                assert table.class_of(relabel(rep, perm)) == index

    def test_class_of_rejects_other_graphs(self):
        table = builtin.class_table()
        assert table.class_of(complete_graph(6, Color.RED)) is None
        assert table.class_of(alternating_cycle(6)) is None

    @settings(max_examples=10, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_canonical_form_partition(self, rnd):
        # reference representatives drawn from anywhere in their orbits and
        # colourings in any order: same aut and multiplicity per class as the
        # partition by canonical_form and the brute-force automorphism count
        group = builtin.template_group()
        colorings = enumerate_template_colorings(builtin.template())
        rnd.shuffle(colorings)
        reference = [
            relabel(rep, rnd.choice(group)) for rep in builtin.class_representatives()
        ]
        table = classify(colorings, group, reference)
        by_code = {}
        for g in colorings:
            by_code.setdefault(canonical_form(g, group), []).append(g)
        for entry, rep in zip(table.classes, reference):
            assert entry.representative == rep
            assert entry.aut_count == naive_color_automorphism_count(rep)
            assert entry.multiplicity == len(by_code[canonical_form(rep, group)])

    def test_swap_involution_is_recorded_permutation(self):
        computed = builtin.class_table().swap_involution()
        assert computed == SWAP_INVOLUTION
        assert all(computed[computed[k]] == k for k in computed)

    def test_involution_is_not_index_reversal(self):
        assert SWAP_INVOLUTION[3] != 24  # the figure ordering is not palindromic

    def test_classify_rejects_wrong_reference(self):
        group = builtin.template_group()
        colorings = enumerate_template_colorings(builtin.template())
        with pytest.raises(ValueError):
            classify(colorings, group, builtin.class_representatives()[:-1])

    @pytest.mark.parametrize(
        "edit, message",
        [
            # swapping vertices 0 and 3 across the parts sends pair (0, 4) to (3, 4)
            (lambda c, g, r: (c, (*g, (3, 1, 2, 0, 4, 5)), r),
             "group elements must preserve the template pairs"),
            (lambda c, g, r: ((*c, complete_graph(6, Color.RED)), g, r),
             "colourings must share one vertex count and pair set"),
            (lambda c, g, r: (c, g, (*r[:-1], r[0])),
             "reference representatives 0 and 25 are isomorphic"),
            (lambda c, g, r: (c, g, (*r[:-1], complete_graph(6, Color.RED))),
             "reference representatives do not match the computed orbits"),
            # the last colouring, all blue, is the whole orbit of class 26
            (lambda c, g, r: (c[:-1], g, r),
             "reference representatives do not match the computed orbits"),
            (lambda c, g, r: (c, g, r[:-1]),
             "found 26 isomorphism classes, reference lists 25"),
            # one colouring of class 2's orbit of 9: orbit-stabilizer fails, 1 * 8 != 72
            (lambda c, g, r: ((r[1].blue,), g, (r[1],)),
             "orbit of class 1: size 1 * aut 8 != 72"),
        ],
    )
    def test_classify_refusals(self, edit, message):
        colorings, group, reference = edit(
            tuple(enumerate_template_colorings(builtin.template())),
            builtin.template_group(),
            builtin.class_representatives(),
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify(colorings, group, reference)
