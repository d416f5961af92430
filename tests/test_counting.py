"""Counting operations and density functionals against independent oracles."""

import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagcert import builtin, counting, graphs
from flagcert.certificate import builtin_certificate, expand_in_classes
from flagcert.counting import (
    CLOSED_FORM_MAX_N,
    MAX_PATTERN_N,
    _batch_plan,
    _partitions,
    _quotients,
    _side_tensors,
    alternating_hom_inj_count,
    alternating_hom_inj_from_matrices,
    color_adjacency,
    density_vector,
    falling_factorial,
    hom_inj_batch,
    hom_inj_count,
    rising_factorial,
    rooted_hom_inj_count,
    subcube_count_table,
    t_bip,
    t_inj,
)
from flagcert.graphs import (
    Color,
    ColoredGraph,
    Flag,
    alternating_cycle,
    enumerate_template_colorings,
)
from flagcert.oracle import _random_clique_matrices, random_clique_coloring

from test_graphs import PATH4, complete_graph


def naive_hom_count(h: ColoredGraph, g: ColoredGraph, injective: bool) -> int:
    """Independent oracle: enumerate every map without pruning."""
    count = 0
    for image in product(range(g.n), repeat=h.n):
        if injective and len(set(image)) != h.n:
            continue
        if all(g.edge_color(image[u], image[v]) == c for u, v, c in h.edges):
            count += 1
    return count


def blow_up(g: ColoredGraph, size: int) -> ColoredGraph:
    """Replace each vertex by an independent set of ``size`` clones.

    Pairs between two clone classes inherit the colour of the original pair;
    pairs inside a class stay absent.
    """
    return ColoredGraph(
        g.n * size,
        (
            (u * size + s, v * size + t, c)
            for u, v, c in g.edges
            for s in range(size)
            for t in range(size)
        ),
    )


def _search_plan(h: ColoredGraph, pinned: tuple[int, ...] = ()):
    """Visit order and incremental edge constraints for backtracking.

    Pinned vertices come first; the rest are ordered greedily so each new
    vertex has as many already-placed neighbours as possible.
    constraints[k] lists (earlier slot, colour bit) pairs for order[k].
    """
    n = h.n
    nbrs: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, v, c in h.edges:
        bit = 0 if c is Color.RED else 1
        nbrs[u][v] = bit
        nbrs[v][u] = bit

    order = list(pinned)
    placed = set(order)
    remaining = [v for v in range(n) if v not in placed]
    while remaining:
        best = max(
            remaining,
            key=lambda v: (sum(1 for w in nbrs[v] if w in placed), len(nbrs[v])),
        )
        order.append(best)
        placed.add(best)
        remaining.remove(best)

    slot_of = {v: k for k, v in enumerate(order)}
    constraints = []
    for k, v in enumerate(order):
        constraints.append(
            tuple(
                (slot_of[w], bit)
                for w, bit in nbrs[v].items()
                if slot_of[w] < k
            )
        )
    return order, constraints


def _count_maps(
    h: ColoredGraph, g: ColoredGraph, root_images: dict[int, int] | None = None
) -> int:
    """Count injective colour-preserving maps V(h) -> V(g), pruning early.

    The backtracking reference that the quotient kernel is tested against.
    """
    pinned = tuple(root_images) if root_images else ()
    order, constraints = _search_plan(h, pinned)
    matrix = [[None] * g.n for _ in range(g.n)]
    for u, v, c in g.edges:
        matrix[u][v] = matrix[v][u] = 0 if c is Color.RED else 1
    n_g = g.n
    n_h = h.n

    images = [0] * n_h
    used = [False] * n_g
    start = len(pinned)
    for k, v in enumerate(pinned):
        w = root_images[v]
        for slot, bit in constraints[k]:
            if matrix[w][images[slot]] != bit:
                return 0
        if used[w]:
            return 0
        images[k] = w
        used[w] = True

    count = 0

    def extend(k: int) -> None:
        nonlocal count
        if k == n_h:
            count += 1
            return
        cons = constraints[k]
        for w in range(n_g):
            if used[w]:
                continue
            row = matrix[w]
            ok = True
            for slot, bit in cons:
                if row[images[slot]] != bit:
                    ok = False
                    break
            if ok:
                images[k] = w
                used[w] = True
                extend(k + 1)
                used[w] = False

    extend(start)
    return count


def _shadow(g: ColoredGraph) -> ColoredGraph:
    return ColoredGraph(g.n, ((u, v, Color.RED) for u, v, _ in g.edges))


def _backtracking_t_bip(h: ColoredGraph, j: ColoredGraph) -> Fraction:
    """t_bip by backtracking: colour-preserving maps over the shadows' maps."""
    maps = _count_maps(_shadow(h), _shadow(j))
    if not maps:
        raise ValueError("pattern does not embed in the template")
    return Fraction(_count_maps(h, j), maps)


def blown_up_alternating_counts(red, blue, size: int) -> tuple[int, int]:
    """Closed alternating 6-walks of a small host, and injective copies in its blow-up.

    Depth-first search over walks v0 -R- v1 -B- ... -B- v0 in Python ints.
    Each walk lifts to the product of falling_factorial(size, k) over its
    vertices visited k times, the choices of distinct clones in each fibre.
    """
    n = len(red)
    step = [[[w for w in range(n) if m[v][w]] for v in range(n)] for m in (red, blue)]
    walks = injective = 0
    walk = []

    def extend() -> None:
        nonlocal walks, injective
        if len(walk) == 6:
            if walk[0] in step[1][walk[-1]]:
                walks += 1
                weight = 1
                for k in Counter(walk).values():
                    weight *= falling_factorial(size, k)
                injective += weight
            return
        for w in step[(len(walk) - 1) % 2][walk[-1]]:
            walk.append(w)
            extend()
            walk.pop()

    for v in range(n):
        walk.append(v)
        extend()
        walk.pop()
    return walks, injective


RED_EDGE = ColoredGraph(2, [(0, 1, Color.RED)])
TARGET = alternating_cycle(6)


class TestHomCount:
    def test_red_edge_into_red_triangle(self):
        assert hom_inj_count(RED_EDGE, complete_graph(3, Color.RED)) == 6

    def test_alternating_into_monochromatic(self):
        assert hom_inj_count(TARGET, complete_graph(8, Color.RED)) == 0

    def test_matches_naive_on_small_instances(self):
        patterns = [
            RED_EDGE,
            alternating_cycle(4),
            builtin.red_flags()[6].graph,
            builtin.class_table().representative(9),
        ]
        hosts = [
            random_clique_coloring(4, 0),
            random_clique_coloring(5, 1),
            blow_up(random_clique_coloring(2, 3), 2),
        ]
        for h in patterns:
            for g in hosts:
                assert hom_inj_count(h, g) == naive_hom_count(h, g, injective=True)

    def test_density_of_random_large_clique_near_one_over_64(self):
        # asymptotic tightness of the bound under uniform colouring; the
        # ordinary (non-injective) density sits within 1/200 at n = 60
        from flagcert.oracle import _random_clique_matrices

        for seed in (0, 1, 2):
            red, blue = _random_clique_matrices(60, seed)
            rb = red @ blue
            walks = int((rb @ rb @ rb).trace())
            density = Fraction(walks, 60**6)
            assert abs(density - Fraction(1, 64)) < Fraction(1, 200)


class TestHomInjCount:
    def test_cycle_into_template_underlying(self):
        # 2 * 3! * 3! once a bipartition side is chosen
        assert hom_inj_count(_shadow(TARGET), _shadow(builtin.template())) == 72

    def test_zero_when_host_smaller(self):
        assert hom_inj_count(TARGET, complete_graph(5, Color.RED)) == 0
        assert t_inj(TARGET, complete_graph(5, Color.RED)) == 0

    def test_single_edge(self):
        assert hom_inj_count(RED_EDGE, RED_EDGE) == 2


class TestRootedCounts:
    def test_all_red_flag_in_red_k4(self):
        g = complete_graph(4, Color.RED)
        assert rooted_hom_inj_count(builtin.red_flags()[0], g, 0, 1) == 2

    def test_all_red_flag_in_blue_k4(self):
        g = complete_graph(4, Color.BLUE)
        assert rooted_hom_inj_count(builtin.red_flags()[0], g, 0, 1) == 0

    def test_rejects_equal_roots(self):
        g = complete_graph(4, Color.RED)
        with pytest.raises(ValueError):
            rooted_hom_inj_count(builtin.red_flags()[0], g, 2, 2)

    def test_rejects_flags_without_two_roots(self):
        flag = builtin.red_flags()[0]
        with pytest.raises(ValueError, match="^rooted counting expects flags with two roots$"):
            rooted_hom_inj_count(Flag(flag.graph, (0,)), complete_graph(4, Color.RED), 0, 1)

    def test_host_smaller_than_the_flag_has_no_maps(self):
        assert rooted_hom_inj_count(builtin.red_flags()[0], complete_graph(3, Color.RED), 0, 1) == 0

    @pytest.mark.parametrize("bad", [-1, 8, 1.0])
    def test_rejects_roots_outside_the_host(self, bad):
        g = random_clique_coloring(8, 0)
        flag = builtin.blue_flags()[0]
        message = re.escape(f"root {bad!r} is not a vertex of the 8-vertex graph")
        for u, v in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match=message):
                rooted_hom_inj_count(flag, g, u, v)

    def test_root_sum_identity(self):
        # summing rooted counts over ordered root images partitions the
        # unrooted injective count
        for seed in (0, 5):
            g = random_clique_coloring(6, seed)
            for flag in (builtin.red_flags()[3], builtin.blue_flags()[6]):
                total = sum(
                    rooted_hom_inj_count(flag, g, u, v)
                    for u in range(g.n)
                    for v in range(g.n)
                    if u != v
                )
                assert total == hom_inj_count(flag.graph, g)


class TestDensities:
    def test_all_red_clique_density_vector(self):
        table = builtin.class_table()
        vec = density_vector(complete_graph(6, Color.RED), table)
        assert vec[1] == 1
        assert all(vec[l] == 0 for l in table.indices if l != 1)

    def test_density_vector_sums_to_one(self):
        table = builtin.class_table()
        for n, seed in ((6, 2), (7, 9)):
            vec = density_vector(random_clique_coloring(n, seed), table)
            assert sum(vec.values(), Fraction(0)) == 1
            assert all(v >= 0 for v in vec.values())

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_density_vector_is_one_kernel_call(self, n, monkeypatch):
        table = builtin.class_table()
        g = random_clique_coloring(n, n)
        calls = []

        def counted(patterns, red, blue):
            calls.append(len(patterns))
            return hom_inj_batch(patterns, red, blue)

        monkeypatch.setattr(counting, "hom_inj_batch", counted)
        vec = density_vector(g, table)
        assert calls == [26]
        monkeypatch.undo()
        assert vec == {e.index: e.multiplicity * t_inj(e.representative, g) for e in table.classes}

    def test_rejects_non_clique(self):
        table = builtin.class_table()
        with pytest.raises(ValueError, match="defined on cliques only"):
            density_vector(alternating_cycle(6), table)

    def test_alternating_density_zero_on_monochromatic(self):
        assert t_inj(TARGET, complete_graph(10, Color.RED)) == 0

    def test_labelled_colouring_densities_partition_unity(self):
        # every injective template placement lands in exactly one of the 512
        # labelled colourings
        from flagcert.graphs import enumerate_template_colorings

        g = random_clique_coloring(7, 4)
        total = sum(
            (t_inj(h, g) for h in enumerate_template_colorings(builtin.template())),
            Fraction(0),
        )
        assert total == 1


@st.composite
def colored_patterns(draw, min_n=2, max_n=7):
    """Coloured graphs on min_n..max_n vertices; many do not embed in K3,3."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9))
    colours = draw(
        st.lists(st.sampled_from(list(Color)), min_size=len(chosen), max_size=len(chosen))
    )
    return ColoredGraph(n, [(u, v, c) for (u, v), c in zip(chosen, colours)])


class TestTBip:
    def test_published_target_values(self):
        table = builtin.class_table()
        expected = {4: Fraction(12, 72), 9: Fraction(6, 72), 11: Fraction(6, 72), 12: Fraction(12, 72)}
        for l in table.indices:
            value = t_bip(TARGET, table.representative(l))
            assert value == expected.get(l, Fraction(0))

    def test_all_red_pattern_saturates_all_red_class(self):
        table = builtin.class_table()
        path = ColoredGraph(3, [(0, 1, Color.RED), (1, 2, Color.RED)])
        assert t_bip(path, table.representative(1)) == 1

    def test_non_embeddable_pattern_rejected(self):
        triangle = complete_graph(3, Color.RED)
        with pytest.raises(ValueError):
            t_bip(triangle, builtin.class_table().representative(1))

    @settings(max_examples=100, deadline=None)
    @given(colored_patterns(), st.integers(0, 511))
    def test_matches_backtracking_in_every_template_colouring(self, h, code):
        j = enumerate_template_colorings(builtin.template())[code]
        try:
            expected = _backtracking_t_bip(h, j)
        except ValueError:
            with pytest.raises(ValueError, match="^pattern does not embed in the template$"):
                t_bip(h, j)
            return
        assert t_bip(h, j) == expected

    def test_never_reaches_the_quotient_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("t_bip called the quotient kernel")

        monkeypatch.setattr(counting, "hom_inj_batch", refuse)
        self.test_published_target_values()
        self.test_all_red_pattern_saturates_all_red_class()

    def test_templates_up_to_eight_vertices(self):
        path = ColoredGraph(3, [(0, 1, Color.RED), (1, 2, Color.BLUE)])
        j = ColoredGraph(8, [(0, 1, Color.RED), (1, 2, Color.BLUE), (2, 3, Color.RED)])
        # the middle vertex goes to 1 or 2, its ends to that vertex's neighbours
        # in either order; one order per middle keeps the colours
        assert t_bip(path, j) == Fraction(2, 4) == _backtracking_t_bip(path, j)

    def test_refuses_a_large_template_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("maps were enumerated")

        monkeypatch.setattr(graphs, "shape_maps", refuse)
        with pytest.raises(ValueError, match="^host with 40 vertices rejected: limit is 8 vertices$"):
            t_bip(TARGET, complete_graph(40, Color.RED))


class TestSubcubeCountTable:
    @settings(max_examples=80, deadline=None)
    @given(colored_patterns())
    def test_expansion_matches_backtracking(self, h):
        table = builtin.class_table()
        try:
            expected = {l: _backtracking_t_bip(h, table.representative(l)) for l in table.indices}
        except ValueError:
            with pytest.raises(ValueError, match="does not embed"):
                expand_in_classes(h, table)
            with pytest.raises(ValueError, match="does not embed"):
                t_bip(h, table.representative(1))
            return
        assert expand_in_classes(h, table) == expected
        assert {l: t_bip(h, table.representative(l)) for l in table.indices} == expected

    @settings(max_examples=40, deadline=None)
    @given(colored_patterns(max_n=6), st.integers(0, 511))
    def test_every_entry_is_a_host_count(self, h, code):
        tmpl = builtin.template()
        try:
            counts = subcube_count_table(h, tmpl.n, tmpl.pairs)
        except ValueError:
            assert hom_inj_count(_shadow(h), tmpl) == 0
            return
        host = enumerate_template_colorings(tmpl)[code]
        assert counts[code] == hom_inj_count(h, host)
        # each map matches the colourings of one subcube, one per free pair bit
        free = len(tmpl.pairs) - h.edge_count
        assert counts.sum() == hom_inj_count(_shadow(h), tmpl) << free

    @settings(max_examples=40, deadline=None)
    @given(colored_patterns(max_n=6), st.integers(0, 511), st.data())
    def test_pinned_entry_is_a_rooted_host_count(self, h, code, data):
        tmpl = builtin.template()
        a, b = data.draw(st.permutations(range(h.n)))[:2]
        u, v = data.draw(st.permutations(range(tmpl.n)))[:2]
        flag = Flag(h, (a, b))
        try:
            counts = subcube_count_table(h, tmpl.n, tmpl.pairs, {a: u, b: v})
        except ValueError:
            shadow = Flag(_shadow(h), (a, b))
            assert rooted_hom_inj_count(shadow, tmpl, u, v) == 0
            return
        host = enumerate_template_colorings(tmpl)[code]
        assert counts[code] == rooted_hom_inj_count(flag, host, u, v)

    @pytest.mark.parametrize("bad", [-1, 6, 1.0])
    def test_rejects_pinned_vertices_outside_their_graph(self, bad):
        # the pattern side is Flag's rule (tests/test_graphs.py)
        flag = builtin.blue_flags()[0]
        tmpl = builtin.template()
        a, b = flag.roots
        host = re.escape(f"root {bad!r} is not a vertex of the {tmpl.n}-vertex graph")
        with pytest.raises(ValueError, match=host):
            subcube_count_table(flag.graph, tmpl.n, tmpl.pairs, {a: bad, b: 0})

    def test_rejects_repeated_root_images_as_the_rooted_counter_does(self):
        flag = builtin.blue_flags()[0]
        tmpl = builtin.template()
        a, b = flag.roots
        with pytest.raises(ValueError, match="^duplicate root indices$"):
            subcube_count_table(flag.graph, tmpl.n, tmpl.pairs, {a: 1, b: 1})
        with pytest.raises(ValueError, match="^duplicate root indices$"):
            rooted_hom_inj_count(flag, tmpl, 1, 1)

    def test_pattern_roots_are_refused_as_flag_refuses_them(self):
        flag = builtin.blue_flags()[0]
        tmpl = builtin.template()
        with pytest.raises(ValueError, match="^root 6 is not a vertex of the 4-vertex graph$"):
            subcube_count_table(flag.graph, tmpl.n, tmpl.pairs, {6: 1, flag.roots[1]: 0})

    def test_rejects_oversized_hosts(self):
        pairs = tuple((u, v) for u in range(7) for v in range(u + 1, 7))
        with pytest.raises(ValueError):
            subcube_count_table(TARGET, 7, pairs)

    @settings(max_examples=40, deadline=None)
    @given(colored_patterns(max_n=6))
    def test_colour_swap_reverses_the_table(self, h):
        # swapping every colour sends colouring x to 511 - x on the template
        tmpl = builtin.template()
        try:
            counts = subcube_count_table(h, tmpl.n, tmpl.pairs)
        except ValueError:
            with pytest.raises(ValueError, match="does not embed"):
                subcube_count_table(h.swap_colors(), tmpl.n, tmpl.pairs)
            return
        assert np.array_equal(subcube_count_table(h.swap_colors(), tmpl.n, tmpl.pairs), counts[::-1])

    def test_sixteen_pair_host_indexes_every_colouring(self):
        # colourings at and above 2^15 are indexed too (a signed 16-bit index would wrap)
        _assert_sixteen_pair_table(7, (*K6_PAIRS, (0, 6)))

    def test_eight_vertex_host_is_the_largest_accepted(self):
        _assert_sixteen_pair_table(8, (*K6_PAIRS, (6, 7)))
        with pytest.raises(ValueError, match="^count tables are limited to 16 pairs on 8 vertices$"):
            subcube_count_table(PATH4, 9, (*K6_PAIRS, (6, 8)))


def _assert_sixteen_pair_table(n, pairs):
    """Entries of sampled colourings of an n-vertex host equal ``hom_inj_count``."""
    red_path = ColoredGraph(3, [(0, 1, Color.RED), (1, 2, Color.RED)])
    blue_path = red_path.swap_colors()
    codes = (0, 32767, 32768, 40000, 65535)
    hosts = [ColoredGraph(n, [(u, v, (Color.RED, Color.BLUE)[x >> k & 1]) for k, (u, v) in enumerate(pairs)])
             for x in codes]
    rows = []
    for h in (PATH4, red_path, blue_path):
        table = subcube_count_table(h, n, pairs)
        assert table.shape == (1 << 16,)
        rows.append([table[x] for x in codes])
        assert rows[-1] == [hom_inj_count(h, g) for g in hosts], h
    assert all(any(column) for column in zip(*rows))  # every entry checked is nonzero somewhere


@st.composite
def partial_hosts(draw, min_n=0, max_n=9):
    """Hosts on min_n..max_n vertices, each pair red, blue or absent."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(
        st.lists(
            st.sampled_from((None, Color.RED, Color.BLUE)),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return ColoredGraph(n, [(u, v, c) for (u, v), c in zip(pairs, states) if c])


def _oracle_patterns():
    """The target, every class representative, flag product and flag."""
    cert = builtin_certificate()
    table = builtin.class_table()
    flags = [f for family in cert.families for f in family.flags]
    unrooted = [cert.target]
    unrooted += [table.representative(l) for l in table.indices]
    unrooted += [product for *_, product in cert.flag_pairs]
    return unrooted, flags


UNROOTED_PATTERNS, FLAGS = _oracle_patterns()


def assert_rooted_table(h: ColoredGraph, roots: tuple[int, int], g: ColoredGraph) -> None:
    """Every entry of the kernel's rooted table equals a backtracking count."""
    table = hom_inj_batch([(h, roots)], *color_adjacency(g))[0]
    r1, r2 = roots
    expected = [
        [_count_maps(h, g, {r1: u, r2: v}) if u != v else 0 for v in range(g.n)]
        for u in range(g.n)
    ]
    assert table.tolist() == expected


class TestQuotientKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(UNROOTED_PATTERNS), partial_hosts())
    def test_unrooted_counts_match_backtracking(self, h, g):
        assert hom_inj_batch([(h, ())], *color_adjacency(g))[0] == _count_maps(h, g)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FLAGS), partial_hosts(min_n=2))
    def test_rooted_tables_match_backtracking(self, f, g):
        assert_rooted_table(f.graph, f.roots, g)

    @settings(max_examples=40, deadline=None)
    @given(colored_patterns(max_n=6), partial_hosts(min_n=2, max_n=7), st.data())
    def test_arbitrary_rooted_tables_match_backtracking(self, h, g, data):
        # roots need not be adjacent, so the diagonal must be zeroed
        roots = tuple(data.draw(st.permutations(range(h.n)))[:2])
        assert_rooted_table(h, roots, g)

    @settings(max_examples=40, deadline=None)
    @given(colored_patterns(max_n=MAX_PATTERN_N), partial_hosts(max_n=8))
    def test_arbitrary_patterns_match_backtracking(self, h, g):
        assert hom_inj_batch([(h, ())], *color_adjacency(g))[0] == _count_maps(h, g)

    def test_edgeless_patterns_count_injections(self):
        red, blue = color_adjacency(random_clique_coloring(7, 1))
        for k in range(4):
            assert hom_inj_batch([(ColoredGraph(k), ())], red, blue)[0] == falling_factorial(7, k)

    @pytest.mark.parametrize("n", [30, 90])
    def test_target_matches_closed_form(self, n):
        red, blue = color_adjacency(random_clique_coloring(n, n))
        expected = alternating_hom_inj_from_matrices(red, blue)
        assert hom_inj_batch([(TARGET, ())], red, blue)[0] == expected

    def test_target_keeps_the_cycle_and_its_antipodal_identifications(self):
        # the closed form's identity: C6 with weight 1, and each of the three
        # antipodal merges (two triangles sharing a vertex) with weight -1
        quotients = _quotients(TARGET)
        assert len(quotients) == 4
        assert sorted(weight for _, _, weight in quotients) == [-1, -1, -1, 1]
        assert [len(pairs) for (_, pairs, _), _, _ in quotients] == [6, 6, 6, 6]
        assert all(len(bits) == 6 for _, bits, _ in quotients)
        assert sorted(blocks for (blocks, _, _), _, _ in quotients) == [5, 5, 5, 6]

    def test_refuses_patterns_over_eight_vertices(self):
        big = ColoredGraph(MAX_PATTERN_N + 1, [(0, 1, Color.RED)])
        host = complete_graph(10, Color.RED)
        with pytest.raises(ValueError, match="pattern with 9 vertices rejected: limit is 8"):
            hom_inj_count(big, host)
        with pytest.raises(ValueError, match="pattern with 9 vertices rejected"):
            hom_inj_batch([(big, ())], *color_adjacency(host))

    @pytest.mark.parametrize("n", [3, 12])
    def test_refuses_patterns_over_eight_vertices_on_every_host(self, n):
        # the cap holds on hosts smaller than the pattern as on larger ones
        path = ColoredGraph(9, [(i, i + 1, (Color.RED, Color.BLUE)[i % 2]) for i in range(8)])
        host = complete_graph(n, Color.RED)
        message = "^pattern with 9 vertices rejected: limit is 8 vertices$"
        for count in (hom_inj_count, t_inj):
            with pytest.raises(ValueError, match=message):
                count(path, host)
        with pytest.raises(ValueError, match=message):
            rooted_hom_inj_count(Flag(path, (0, 1)), host, 0, 1)

    def test_refuses_hosts_whose_counts_overflow_int64(self):
        # every value formed is at most n(n+1)...(n+5) for a 6-vertex pattern;
        # the broadcast zeros allocate nothing
        assert rising_factorial(1445, 6) <= 2**63 - 1 < rising_factorial(1446, 6)
        zeros = np.broadcast_to(np.int64(0), (1446, 1446))
        with pytest.raises(ValueError, match="6-vertex pattern .* n <= 1445"):
            hom_inj_batch([(TARGET, ())], zeros, zeros)
        assert hom_inj_batch([(TARGET, ())], zeros[:7, :7], zeros[:7, :7])[0] == 0

    def test_refuses_hosts_whose_side_tensors_pass_the_cap(self, monkeypatch):
        # K3,3's own quotient reads the eight three-index side tensors: 8 (2n)^3
        # bytes plus the smaller stacks, 2^28 bytes at most for n <= 161
        def refuse(*args):
            raise AssertionError("side tensors were allocated")

        monkeypatch.setattr(counting, "_side_tensors", refuse)
        k33 = graphs.complete_bipartite(3, 3)
        red, blue = color_adjacency(random_clique_coloring(162, 5))
        message = "^host with 162 vertices rejected: its side tensors would take 272940192 bytes; " \
                  "limit is 268435456 bytes, n <= 161$"
        with pytest.raises(ValueError, match=message):
            hom_inj_batch([(k33, ())], red, blue)
        # a pattern with no three-neighbour block reads no three-index stack
        with pytest.raises(AssertionError, match="side tensors were allocated"):
            hom_inj_batch([(PATH4, ())], red, blue)


def _growth_strings(k: int) -> list[tuple[int, ...]]:
    """Every partition of range(k) as a restricted growth string, unpruned."""
    strings = [()]
    for _ in range(k):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def _coloured_quotient(h: ColoredGraph, labels: tuple[int, ...]):
    """h with vertex v merged into block labels[v], or None if that makes a loop or a two-coloured pair."""
    edges: dict[tuple[int, int], Color] = {}
    for u, v, c in h.edges:
        a, b = sorted((labels[u], labels[v]))
        if a == b or edges.setdefault((a, b), c) is not c:
            return None
    return ColoredGraph(max(labels, default=-1) + 1, [(a, b, c) for (a, b), c in edges.items()])


K33_PAIRS = tuple((a, d) for a in range(3) for d in range(3, 6))
K4_PAIRS = tuple(combinations(range(4), 2))


class TestQuotientRecords:
    @settings(max_examples=60, deadline=None)
    @given(colored_patterns(max_n=6), st.data())
    def test_records_sum_every_partition(self, h, data):
        # the Moebius weights of every partition that keeps roots apart, summed
        # per coloured quotient, with no pruning
        roots = ()
        if h.n >= 2 and data.draw(st.booleans()):
            roots = tuple(data.draw(st.permutations(range(h.n)))[:2])
        expected: Counter = Counter()
        for labels in _growth_strings(h.n):
            q = _coloured_quotient(h, labels)
            if q is None or len({labels[r] for r in roots}) < len(roots):
                continue
            mu = math.prod((-1) ** (c - 1) * math.factorial(c - 1) for c in Counter(labels).values())
            bits = tuple(int(c is Color.BLUE) for _, _, c in q.edges)
            expected[(q.n, q.pairs, tuple(labels[r] for r in roots)), bits] += mu
        records = {(shape, bits): weight for shape, bits, weight in _quotients(h, roots)}
        assert records == {key: mu for key, mu in expected.items() if mu}

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([K33_PAIRS, K4_PAIRS]), st.integers(0, 2**9 - 1), st.integers(6, 12),
           st.integers(0, 2**32 - 1))
    def test_k33_and_k4_rows_match_numpys_own_loop(self, pairs, word, n, seed):
        # hom(P, g) is the sum of inj(P/pi, g) over the partitions pi that keep
        # every edge between blocks and no pair two-coloured; the plan counts
        # each P/pi from K3,3 or K4 rows and their side tensors, numpy's
        # unoptimised loop counts hom(P, g) straight from the edge matrices
        bits = [word >> k & 1 for k in range(len(pairs))]
        h = ColoredGraph(max(map(max, pairs)) + 1,
                         [(u, v, (Color.RED, Color.BLUE)[b]) for (u, v), b in zip(pairs, bits)])
        red, blue = color_adjacency(random_clique_coloring(n, seed))
        spec = ",".join("abcdef"[u] + "abcdef"[v] for u, v in pairs) + "->"
        hom = np.einsum(spec, *((red, blue)[b] for b in bits), optimize=False)
        quotients = [q for labels in _growth_strings(h.n) if (q := _coloured_quotient(h, labels))]
        assert sum(hom_inj_batch([(q, ()) for q in quotients], red, blue)) == hom


@st.composite
def pattern_batches(draw):
    """Lists of (pattern, roots): rooted and unrooted, edgeless, repeated."""
    graphs = st.one_of(
        colored_patterns(max_n=5),
        st.builds(ColoredGraph, st.integers(0, 3)),
        st.sampled_from(UNROOTED_PATTERNS),
        st.sampled_from([f.graph for f in FLAGS]),
    )
    batch = []
    for h in draw(st.lists(graphs, min_size=1, max_size=6)):
        roots = ()
        if h.n >= 2 and draw(st.booleans()):
            roots = tuple(draw(st.permutations(range(h.n)))[:2])
        batch.append((h, roots))
    return batch + draw(st.lists(st.sampled_from(batch), max_size=3))


def expected_count(h: ColoredGraph, roots: tuple[int, ...], g: ColoredGraph):
    """The backtracking count, or rooted table, that the kernel must give."""
    if not roots:
        return _count_maps(h, g)
    r1, r2 = roots
    return [
        [_count_maps(h, g, {r1: u, r2: v}) if u != v else 0 for v in range(g.n)]
        for u in range(g.n)
    ]


def _count_einsum_paths(monkeypatch) -> list:
    """Record the spec of every later ``np.einsum_path`` call."""
    calls = []
    einsum_path = np.einsum_path

    def counted(spec, *operands, **kwargs):
        calls.append(spec)
        return einsum_path(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counted)
    return calls


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(pattern_batches(), partial_hosts(max_n=6))
    def test_batches_match_backtracking(self, batch, g):
        counts = hom_inj_batch(batch, *color_adjacency(g))
        assert len(counts) == len(batch)
        for (h, roots), count in zip(batch, counts):
            got = count.tolist() if roots else count
            assert got == expected_count(h, roots, g)

    @pytest.mark.parametrize("n", [20, 40])
    def test_split_batches_equal_batches_of_one(self, n):
        # from n = 41 every row is a call of its own; at n = 20 a call takes
        # 8 rows, so specs with up to 72 rows split and leave remainders
        red, blue = color_adjacency(random_clique_coloring(n, 3))
        batch = [(h, ()) for h in UNROOTED_PATTERNS] + [(f.graph, f.roots) for f in FLAGS]
        for (h, roots), count in zip(batch, hom_inj_batch(batch, red, blue)):
            alone = hom_inj_batch([(h, roots)], red, blue)[0]
            assert (count == alone).all() if roots else count == alone

    def test_partitions_are_listed_once_per_shape(self):
        # the 115 patterns of both host checks have four edge shapes, with
        # their pinned vertices; at n = 8 a call takes 128 rows, more than any
        # of the 33 quotient shapes of the identity patterns has
        batch = tuple((h, ()) for h in UNROOTED_PATTERNS) + tuple((f.graph, f.roots) for f in FLAGS)
        _batch_plan.cache_clear()
        _partitions.cache_clear()
        hom_inj_batch(batch, *color_adjacency(random_clique_coloring(8, 7)))
        assert _partitions.cache_info().misses == len({(h.n, h.pairs, r) for h, r in batch}) == 4
        calls, _ = _batch_plan(batch[: len(UNROOTED_PATTERNS)], 8)
        shapes = {shape for h in UNROOTED_PATTERNS for shape, _, _ in _quotients(h)}
        assert len(calls) == len(shapes) == 33

    def test_a_second_host_of_the_same_size_builds_nothing(self, monkeypatch):
        batch = [(h, ()) for h in UNROOTED_PATTERNS] + [(f.graph, f.roots) for f in FLAGS]
        _batch_plan.cache_clear()
        paths = _count_einsum_paths(monkeypatch)
        hom_inj_batch(batch, *color_adjacency(random_clique_coloring(12, 1)))
        built = []
        monkeypatch.setattr(counting, "_quotients", lambda *args: built.append(args))
        monkeypatch.setattr(counting, "_contraction", lambda *args: built.append(args))
        second = hom_inj_batch(batch, *color_adjacency(random_clique_coloring(12, 2)))
        assert built == [] and paths == []  # the plan writes its own paths
        monkeypatch.undo()
        _batch_plan.cache_clear()
        expected = hom_inj_batch(batch, *color_adjacency(random_clique_coloring(12, 2)))
        assert [c.tolist() if r else c for (_, r), c in zip(batch, second)] == [
            c.tolist() if r else c for (_, r), c in zip(batch, expected)
        ]

    def test_identity_quotients_merge_into_607_rows(self):
        # at n = 41 every row is a call of its own
        patterns = tuple((h, ()) for h in UNROOTED_PATTERNS)
        assert sum(len(_quotients(h)) for h in UNROOTED_PATTERNS) == 656
        calls, _ = _batch_plan(patterns, 41)
        assert len(calls) == 607
        assert all(picks.ndim == 1 and len(scatter) >= 1 for _, _, picks, _, scatter in calls)

    def test_one_host_builds_at_most_eight_side_tensors(self):
        # a K3,3 row reads three side tensors over its other side, a K4 row
        # one; the 26 K3,3 rows of the identity patterns read only eight
        n = 9
        red, blue = color_adjacency(random_clique_coloring(n, 4))
        calls, needed = _batch_plan(tuple((h, ()) for h in UNROOTED_PATTERNS), n)
        k33 = [picks for spec, kinds, picks, *_ in calls if kinds == ((3, 3),) * 3]
        assert sum(picks.shape[1] for picks in k33) == 26
        assert set(np.concatenate(k33, axis=1).ravel().tolist()) == set(range(8))
        assert [code for k, code in needed if k == 3] == list(range(8))
        sides = _side_tensors(np.stack([red, blue]), needed)
        assert sides[3, 3].shape == (8, n, n, n)
        for code in range(8):
            x, y, z = ((red, blue)[code >> shift & 1] for shift in (2, 1, 0))
            assert (sides[3, 3][code] == np.einsum("ap,aq,ar->pqr", x, y, z)).all()

    # the kernel pins no roots or two; the other root rules are Flag's
    # (tests/test_graphs.py), which the kernel applies to each item
    @pytest.mark.parametrize(
        "roots, message",
        [
            ((0,), "pin no roots or exactly two"),
            ((0, 5), "root 5 is not a vertex of the 4-vertex graph"),
        ],
    )
    def test_rejects_bad_pattern_roots(self, roots, message):
        red, blue = color_adjacency(random_clique_coloring(6, 0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hom_inj_batch([(PATH4, roots)], red, blue)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hom_inj_batch([(TARGET, ()), (PATH4, roots)], red, blue)


K6_PAIRS = tuple((u, v) for u in range(6) for v in range(u + 1, 6))


class TestSixSubsetLinearity:
    """The quotient kernel's host counts against the sweep's subcube tables.

    An injective map of a 6-vertex pattern into a clique host has one 6-set S
    as image, so inj(P, g) is the sum over 6-sets S of inj(P, g[S]): the
    pattern's K6 table read at the colouring code of g[S].  A rooted map of a
    k-vertex flag lies in C(n - k, 6 - k) of the 6-sets holding its roots.
    """

    @settings(max_examples=10, deadline=None)
    @given(st.integers(6, 9), st.integers(0, 2**32 - 1))
    @example(7, 3)
    @example(8, 0)
    @example(9, 5)
    def test_host_counts_are_sums_over_six_sets(self, n, seed):
        g = random_clique_coloring(n, seed)
        batch = [(h, ()) for h in UNROOTED_PATTERNS] + [(f.graph, f.roots) for f in FLAGS]
        counts = hom_inj_batch(batch, *color_adjacency(g))
        subsets = np.array(list(combinations(range(n), 6)))
        # bit k of g[S]'s code: the colour of S's k-th pair, as in the sweep
        codes = sum(
            np.array([g.edge_color(u, v) is Color.BLUE for u, v in subsets[:, [a, b]]]) << k
            for k, (a, b) in enumerate(K6_PAIRS)
        )
        assert len(UNROOTED_PATTERNS) == 99 and all(h.n == 6 for h in UNROOTED_PATTERNS)
        for h, count in zip(UNROOTED_PATTERNS, counts):
            assert count == subcube_count_table(h, 6, K6_PAIRS)[codes].sum(), h
        for f, rooted in zip(FLAGS, counts[len(UNROOTED_PATTERNS):]):
            total = np.zeros((n, n), dtype=np.int64)
            for a, b in permutations(range(6), 2):
                pinned = subcube_count_table(f.graph, 6, K6_PAIRS, dict(zip(f.roots, (a, b))))
                np.add.at(total, (subsets[:, a], subsets[:, b]), pinned[codes])
            k = f.graph.n
            assert np.array_equal(rooted * math.comb(n - k, 6 - k), total), f


class TestWalshSpectrum:
    """The target's K6 table in the Walsh basis: coefficient S sums the table with sign
    (-1)^(blue pairs in S).  Rotating the cycle one step swaps its colours and permutes
    its maps, so every odd level cancels.  Divided by 720 maps times 2^15 colourings,
    the coefficients are those of the target's density on K6, 1/64 at level 0."""

    def test_target_table_has_only_even_levels(self):
        w = subcube_count_table(TARGET, 6, K6_PAIRS).astype(np.int64)
        for k in range(15):  # one butterfly stage per pair (axis 1 is bit k); |w| <= 720 * 2^9
            w = w.reshape(-1, 2, 1 << k)
            w = np.stack([w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]], axis=1).ravel()
        levels = np.array([s.bit_count() for s in range(1 << 15)])
        spectrum = {level: Counter(w[(levels == level) & (w != 0)].tolist()) for level in range(16)}
        assert all(not spectrum[level] for level in range(1, 16, 2))
        nonzero = {level: values for level, values in spectrum.items() if values}
        assert {level: sum(values.values()) for level, values in nonzero.items()} == {0: 1, 2: 105, 4: 630, 6: 60}
        assert spectrum[0].keys() == {368640}
        assert spectrum[2].keys() == {-36864, 24576}
        assert spectrum[4].keys() == {-12288, 6144, 12288}
        assert spectrum[6].keys() == {-6144}
        densities = {level: {Fraction(v, 720 * 2**15) for v in values} for level, values in nonzero.items()}
        assert densities == {0: {Fraction(1, 64)}, 2: {Fraction(-1, 640), Fraction(1, 960)},
                             4: {Fraction(-1, 1920), Fraction(1, 3840), Fraction(1, 1920)},
                             6: {Fraction(-1, 3840)}}


class TestBlowUp:
    def test_size_one_is_identity(self):
        g = random_clique_coloring(5, 8)
        assert blow_up(g, 1) == g

    def test_structure(self):
        g = blow_up(RED_EDGE, 3)
        assert g.n == 6
        # within-class pairs stay absent, between-class pairs inherit colour
        assert g.edge_color(0, 1) is None
        assert g.edge_color(3, 4) is None
        assert g.edge_color(0, 3) is Color.RED

    def test_monochromatic_blowup_has_no_alternating_copies(self):
        for size in (1, 2, 4):
            assert t_inj(TARGET, blow_up(RED_EDGE, size)) == 0

    def test_convergence_toward_plain_density(self):
        # |t_inj(target, blow-up) - t(target, g)| is nonincreasing along
        # doubling sizes, for hosts with a nonzero target density
        for g in (TARGET, builtin.class_table().representative(4)):
            limit = Fraction(naive_hom_count(TARGET, g, injective=False), g.n**TARGET.n)
            diffs = []
            for size in (1, 2, 4, 8):
                host = blow_up(g, size)
                density = Fraction(
                    alternating_hom_inj_count(host), falling_factorial(host.n, 6)
                )
                diffs.append(abs(density - limit))
            assert all(diffs[k + 1] <= diffs[k] for k in range(len(diffs) - 1))
            assert diffs[-1] < diffs[0]


class TestColorSwapEquivariance:
    def test_t_inj_swap_pairs(self):
        for seed in (0, 3):
            g = random_clique_coloring(6, seed)
            for h in (TARGET, builtin.class_table().representative(8)):
                assert t_inj(h, g) == t_inj(h.swap_colors(), g.swap_colors())


class TestOverlapBound:
    def test_rooted_product_never_exceeds_rooted_factor_product(self):
        g = random_clique_coloring(7, 6)
        from flagcert.certificate import flag_product

        flags = builtin.red_flags()
        for i, j in ((0, 0), (1, 6), (3, 7)):
            prod = Flag(flag_product(flags[i], flags[j]), (0, 1))
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    xi = rooted_hom_inj_count(flags[i], g, u, v)
                    xj = rooted_hom_inj_count(flags[j], g, u, v)
                    assert xi * xj >= rooted_hom_inj_count(prod, g, u, v)


class TestFastAlternatingCount:
    def test_matches_backtracking_on_cliques(self):
        for n in (6, 7, 8):
            for seed in (0, 1):
                g = random_clique_coloring(n, seed)
                assert alternating_hom_inj_count(g) == _count_maps(TARGET, g)

    def test_matches_backtracking_on_non_cliques(self):
        hosts = [
            blow_up(random_clique_coloring(3, 2), 2),
            blow_up(TARGET, 1),
            alternating_cycle(8),
            builtin.class_table().representative(11),
        ]
        for g in hosts:
            assert alternating_hom_inj_count(g) == _count_maps(TARGET, g)

    @settings(max_examples=60, deadline=None)
    @given(partial_hosts(max_n=8))
    def test_matches_backtracking_on_partial_colorings(self, g):
        assert alternating_hom_inj_count(g) == _count_maps(TARGET, g)

    def test_size_limit_is_the_int64_walk_bound(self):
        n = CLOSED_FORM_MAX_N
        assert (n - 1) ** 5 <= 2**63 - 1 < n**5
        assert n**3 < 2**53

    def test_refuses_hosts_whose_walks_overflow_int64(self):
        # 6209**5 > 2**63 - 1; the broadcast zeros allocate nothing
        zeros = np.broadcast_to(np.int64(0), (6210, 6210))
        with pytest.raises(ValueError, match="n <= 6209"):
            alternating_hom_inj_from_matrices(zeros, zeros)

    def test_exact_where_int64_walk_totals_wrap(self):
        # the 275-fold blow-up of a 12-vertex clique has n = 3300 and
        # tr((RB)^3) = 275**6 * 22110 > 2**63 - 1
        red, blue = _random_clique_matrices(12, 28)
        size = 275
        walks, injective = blown_up_alternating_counts(red.tolist(), blue.tolist(), size)
        assert walks == 22110
        assert size**6 * walks > 2**63 - 1
        ones = np.ones((size, size))
        count = alternating_hom_inj_from_matrices(np.kron(red, ones), np.kron(blue, ones))
        assert count == injective

    def test_t_inj_wrapper(self):
        # the closed-form count over (n)_6 is the target's injective density
        g = random_clique_coloring(9, 13)
        density = Fraction(alternating_hom_inj_count(g), falling_factorial(9, 6))
        assert density == t_inj(TARGET, g)
        small = complete_graph(5, Color.RED)
        assert alternating_hom_inj_count(small) == 0 == t_inj(TARGET, small)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(6, 6) == 720
        assert falling_factorial(10, 3) == 720
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 6) == 0

    def test_both_factorials_are_the_plain_products(self):
        for n in range(9):
            for k in range(9):
                assert falling_factorial(n, k) == math.prod(n - t for t in range(k))
                assert rising_factorial(n, k) == math.prod(n + t for t in range(k))
        assert falling_factorial(0, 0) == rising_factorial(0, 0) == 1

    def test_t_inj_denominator_divides_720_at_n6(self):
        g = random_clique_coloring(6, 21)
        assert (720 * t_inj(TARGET, g)).denominator == 1
