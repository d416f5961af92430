"""Flag products, expansions, PSD checking, the coefficient engine, file I/O."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagcert import builtin, certificate
from flagcert.certificate import (
    MAX_FLAGS,
    Certificate,
    FlagFamily,
    PsdReport,
    SchemaError,
    SymMatrix,
    builtin_certificate,
    certificate_coefficients,
    expand_in_classes,
    flag_product,
    load_certificate,
    parse_rational,
    psd_check,
    save_certificate,
    verify_certificate,
)
from flagcert.counting import subcube_count_table, t_bip
from flagcert.graphs import Color, ColoredGraph, Flag, pulled_densities

from test_graphs import SWAP_INVOLUTION, complete_graph

BOUND = Fraction(1, 64)


def _edited(edit):
    """Exported builtin certificate text after ``edit`` changes its JSON object."""
    obj = json.loads(save_certificate(builtin_certificate()))
    edit(obj)
    return json.dumps(obj, indent=2)


def _shifted(family: int, i: int, j: int, delta: Fraction):
    """Edit: move matrix entry (i, j), 1-based, of one family and its mirror."""

    def edit(obj):
        matrix = obj["families"][family]["matrix"]
        value = str(Fraction(matrix[i - 1][j - 1]) + delta)
        matrix[i - 1][j - 1] = matrix[j - 1][i - 1] = value

    return edit


def _with_entry(m: SymMatrix, i: int, j: int, value: Fraction) -> SymMatrix:
    """Copy of ``m`` with entry (i, j), 1-based, and its mirror set to ``value``."""
    rows = [list(row) for row in m.rows]
    rows[i - 1][j - 1] = rows[j - 1][i - 1] = value
    return SymMatrix(rows)


# The certificates whose `verify --format json` output is pinned byte for byte
# in tests/fixtures, as the Fraction-based verifier wrote it: the builtin and
# three 1/128 shifts of one entry of the exported certificate
VERIFY_FIXTURES = {
    "verify_builtin.json": None,
    "verify_red_1_1_minus.json": _shifted(0, 1, 1, Fraction(-1, 128)),  # negative pivot
    "verify_blue_2_3_minus.json": _shifted(1, 2, 3, Fraction(-1, 128)),  # negative pivot
    "verify_red_2_3_plus.json": _shifted(0, 2, 3, Fraction(1, 128)),  # stays PSD
}


def _class_on_seven_vertices(obj):
    obj["classes"][0]["n"] = 7
    obj["classes"][0]["edges"][-1][1] = 6


def _duplicate_bound():
    text = save_certificate(builtin_certificate())
    return text.rstrip()[:-1].rstrip() + ',\n  "bound": "1/2"\n}\n'


def _duplicate_nested_key():
    text = save_certificate(builtin_certificate())
    return text.replace('"target": {\n    "n": 6,', '"target": {\n    "n": 6,\n    "n": 6,', 1)


def _repeat_first_family_flags(count):
    def edit(obj):
        flags = obj["families"][0]["flags"]
        obj["families"][0]["flags"] = (flags * count)[:count]

    return edit


def _triangle_in_red_flag_1(obj):
    """Edit: give red flag 1 the edge (0, 2), closing a triangle on 0-1-2."""
    obj["families"][0]["flags"][0]["edges"].insert(1, [0, 2, "R"])


def _set_base_key(key):
    def edit(obj):
        obj["base"][key] = obj["base"].pop("4")

    return edit


# Texts the reader must refuse, with the path (or key) the error names.
MALFORMED = {
    "class_n7": (lambda: _edited(_class_on_seven_vertices), "$.classes[0].n"),
    "duplicate_bound": (_duplicate_bound, "duplicate key 'bound'"),
    "duplicate_nested_key": (_duplicate_nested_key, "duplicate key 'n'"),
    "boolean_roots": (
        lambda: _edited(lambda o: o["families"][0]["flags"][0].update(roots=[False, True])),
        "$.families[0].flags[0].roots",
    ),
    "boolean_n": (lambda: _edited(lambda o: o["target"].update(n=True)), "$.target.n"),
    "boolean_endpoint": (
        lambda: _edited(lambda o: o["target"]["edges"][0].__setitem__(0, False)),
        "$.target.edges[0]",
    ),
    "boolean_part": (
        lambda: _edited(lambda o: o["template"].update(parts=[True, 3])),
        "$.template.parts",
    ),
    "zero_padded_base_key": (lambda: _edited(_set_base_key("04")), "$.base.04"),
    "superscript_base_key": (lambda: _edited(_set_base_key("\u00b2")), "$.base.\u00b2"),
    # an Arabic-Indic digit one: int() would read it, the writer never emits it
    "arabic_indic_bound": (lambda: _edited(lambda o: o.update(bound="\u0661/64")), "$.bound"),
    # zero padding reads as the same integer, but the writer never emits it
    "zero_padded_bound": (
        lambda: _edited(lambda o: o.update(bound="01/64")),
        "$.bound: rational '01/64' is not canonical; write 1/64",
    ),
    # graphs above the counting kernel's 8 vertices are refused where they are read
    "huge_target": (
        lambda: _edited(lambda o: o["target"].update(n=10_000_000)),
        "$.target.n: 10000000 vertices; the limit is 8",
    ),
    "nine_vertex_flag": (
        lambda: _edited(lambda o: o["families"][1]["flags"][3].update(n=9)),
        "$.families[1].flags[3].n: 9 vertices; the limit is 8",
    ),
    "nine_vertex_class": (
        lambda: _edited(lambda o: o["classes"][25].update(n=9)),
        "$.classes[25].n: 9 vertices; the limit is 8",
    ),
    # patterns that fit the kernel but not the six-vertex template
    "seven_vertex_target": (
        lambda: _edited(lambda o: o["target"].update(n=7)),
        "$.target.n: 7 vertices; the template has 6",
    ),
    "five_vertex_flag": (
        lambda: _edited(lambda o: o["families"][0]["flags"][0].update(n=5)),
        "$.families[0].flags[0].n: 5 vertices glue to 8",
    ),
    # 57 + 8 flags; the count is refused before the 8-row matrix is read
    "sixty_five_flags": (
        lambda: _edited(_repeat_first_family_flags(MAX_FLAGS + 1 - 8)),
        "$.families: 65 flags",
    ),
    # rules the value types own, refused at the path the reader was reading
    "edge_out_of_range": (
        lambda: _edited(lambda o: o["target"]["edges"][-1].__setitem__(1, 6)),
        "$.target.edges: edge (4,6) out of range for n=6",
    ),
    "loop": (
        lambda: _edited(lambda o: o["target"]["edges"].__setitem__(2, [2, 2, "R"])),
        "$.target.edges: loop at vertex 2",
    ),
    "repeated_pair": (
        lambda: _edited(lambda o: o["classes"][3]["edges"].insert(1, [0, 3, "B"])),
        "$.classes[3].edges: duplicate edge (0, 3)",
    ),
    "root_out_of_range": (
        lambda: _edited(lambda o: o["families"][1]["flags"][2].update(roots=[0, 4])),
        "$.families[1].flags[2].roots: root 4 is not a vertex of the 4-vertex graph",
    ),
    "short_matrix_row": (
        lambda: _edited(lambda o: o["families"][1]["matrix"][3].pop()),
        "$.families[1]: row 3 has length 7, expected 8",
    ),
    "matrix_row_not_a_list": (
        lambda: _edited(lambda o: o["families"][0]["matrix"].__setitem__(0, "1/64")),
        "$.families[0].matrix[0]: expected 8 entries",
    ),
    # the root edge's colour is named by its letter, as the text writes it
    "root_edge_recoloured": (
        lambda: _edited(lambda o: o["families"][0]["flags"][0]["edges"][0].__setitem__(2, "B")),
        "$.families[0]: flag 0 root edge colour B does not match family",
    ),
    "root_pair_absent": (
        lambda: _edited(lambda o: o["families"][0]["flags"][0]["edges"].pop(0)),
        "$.families[0]: flag 0 root edge colour None does not match family",
    ),
    # a field of the wrong JSON type, an empty list or a value out of range
    "name_not_string": (lambda: _edited(lambda o: o.update(name=7)), "$.name: expected a string"),
    "classes_object": (lambda: _edited(lambda o: o.update(classes={})), "$.classes: expected a list"),
    "base_list": (lambda: _edited(lambda o: o.update(base=[])), "$.base: expected an object"),
    "negative_base_entry": (
        lambda: _edited(lambda o: o["base"].update({"4": "-1/6"})),
        "$.base.4: base entries must be nonnegative",
    ),
    "no_families": (
        lambda: _edited(lambda o: o.update(families=[])),
        "$.families: expected a nonempty list",
    ),
    "families_object": (
        lambda: _edited(lambda o: o.update(families={})),
        "$.families: expected a nonempty list",
    ),
    "root_edge_colour_g": (
        lambda: _edited(lambda o: o["families"][1].update(root_edge_color="G")),
        "$.families[1].root_edge_color: must be 'R' or 'B'",
    ),
    "no_flags": (
        lambda: _edited(lambda o: o["families"][0].update(flags=[])),
        "$.families[0].flags: expected a nonempty list",
    ),
}
# The graph, flag or family whose type refuses each of the entries above.
TYPE_REFUSALS = {
    "edge_out_of_range": "$.target",
    "loop": "$.target",
    "repeated_pair": "$.classes[3]",
    "root_out_of_range": "$.families[1].flags[2]",
    "short_matrix_row": "$.families[1]",
    "root_edge_recoloured": "$.families[0]",
    "root_pair_absent": "$.families[0]",
}


_LONG_DIGITS = "1" * 5000  # past the interpreter's 4300-digit int() limit
_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int digit limit"
)

# Texts past the interpreter's own limits, refused with the path they name.
BEYOND_LIMITS = [
    pytest.param(lambda: "[" * 200_000, "$: unreadable JSON", id="deep_nesting"),
    pytest.param(
        lambda: _edited(lambda o: o["base"].update({"4": _LONG_DIGITS + "/6"})),
        "$.base.4: Exceeds the limit",
        id="long_base_entry",
        marks=_DIGIT_LIMIT,
    ),
    pytest.param(
        lambda: save_certificate(builtin_certificate()).replace(
            '"n": 6', '"n": ' + _LONG_DIGITS, 1
        ),
        "$: unreadable JSON: Exceeds the limit",
        id="long_json_integer",
        marks=_DIGIT_LIMIT,
    ),
]


def frac72(sparse):
    return {
        l: Fraction(sparse.get(l, 0), 72) for l in range(1, 27)
    }


def golden_fractions(family, i, j):
    """The shipped golden row of flag product (i, j) as rationals over all 26 classes."""
    return {k: Fraction(num, 72) for k, num in enumerate(builtin.golden_numerators(family, i, j), 1)}


class TestFlagProduct:
    def test_all_red_product(self):
        p = flag_product(builtin.red_flags()[0], builtin.red_flags()[0])
        assert p.n == 6
        assert p.edge_count == 7
        assert all(c is Color.RED for _, _, c in p.edges)

    def test_cross_family_conflict(self):
        with pytest.raises(ValueError):
            flag_product(builtin.red_flags()[0], builtin.blue_flags()[0])

    def test_root_counts_must_agree(self):
        f = builtin.red_flags()[0]
        with pytest.raises(ValueError, match="^flags must have the same number of roots$"):
            flag_product(f, Flag(f.graph, (0,)))

    def test_vertex_count(self):
        p = flag_product(builtin.red_flags()[1], builtin.red_flags()[6])
        assert p.n == 6


class TestValueTypes:
    """Flags and matrices built from equal data are equal, hash equal and frozen."""

    def test_equal_flags_share_one_cached_product(self):
        f, g = builtin.red_flags()[1], builtin.red_flags()[6]
        copy = Flag(ColoredGraph(f.graph.n, reversed(f.graph.edges)), list(f.roots))
        assert copy == f and hash(copy) == hash(f) and copy is not f
        assert flag_product(copy, g) is flag_product(f, g)

    def test_family_matrix_order_must_match_its_flags(self):
        family = builtin_certificate().families[0]
        with pytest.raises(ValueError, match="^matrix order must match the number of flags$"):
            FlagFamily(family.root_edge_color, family.flags[:-1], family.matrix)

    def test_matrix_equality_and_hash(self):
        rows = builtin.matrix_rows()
        m = SymMatrix(rows)
        same = SymMatrix([[str(x) for x in row] for row in rows])
        assert same == m and hash(same) == hash(m)
        assert m.order == 8 and m.rows == tuple(map(tuple, rows))

    def test_matrix_is_frozen_and_slotted(self):
        m = SymMatrix(builtin.matrix_rows())
        with pytest.raises(AttributeError):
            m.rows = ()
        assert not hasattr(m, "__dict__")

    def test_matrix_keeps_fraction_entries_and_converts_the_rest(self):
        half = Fraction(1, 2)
        m = SymMatrix([[half, 3], [3, "1/4"]])
        assert m.rows[0][0] is half
        assert [type(x) for row in m.rows for x in row] == [Fraction] * 4
        assert m.rows == ((half, Fraction(3)), (Fraction(3), Fraction(1, 4)))

    def test_matrix_rows_must_be_square(self):
        with pytest.raises(ValueError, match=r"^row 1 has length 1, expected 2$"):
            SymMatrix([[Fraction(0), Fraction(1)], [Fraction(1)]])


def _count_table_expansion(p: ColoredGraph, table) -> dict[int, Fraction]:
    """The expansion read off the numpy subcube count table of the sweep."""
    counts = subcube_count_table(p, table.n, table.pairs)
    # each map matches the colourings of one subcube, one per free pair bit
    maps = int(counts.sum()) >> (len(table.pairs) - p.edge_count)
    return {e.index: Fraction(int(counts[e.representative.blue]), maps) for e in table.classes}


def _expansion_paths_agree(p: ColoredGraph) -> None:
    table = builtin.class_table()
    try:
        expected = _count_table_expansion(p, table)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            expand_in_classes(p, table)
        return
    assert expand_in_classes(p, table) == expected


@st.composite
def six_vertex_patterns(draw):
    """Coloured edge subsets of the 6-clique; those over 9 edges never embed."""
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    colours = draw(st.lists(st.sampled_from(list(Color)), min_size=len(chosen), max_size=len(chosen)))
    return ColoredGraph(6, [(u, v, c) for (u, v), c in zip(chosen, colours)])


class TestExpansions:
    @settings(max_examples=150, deadline=None)
    @given(six_vertex_patterns())
    def test_pulled_counts_match_count_table(self, p):
        _expansion_paths_agree(p)

    def test_builtin_patterns_match_count_table(self):
        cert = builtin_certificate()
        patterns = [cert.target] + [product for *_, product in cert.flag_pairs]
        assert len(patterns) == 73
        for p in patterns:
            _expansion_paths_agree(p)

    def test_all_red_product_expansion(self):
        table = builtin.class_table()
        p = flag_product(builtin.red_flags()[0], builtin.red_flags()[0])
        assert expand_in_classes(p, table) == frac72({1: 72, 2: 16, 3: 4})

    def test_published_r2_r7(self):
        table = builtin.class_table()
        p = flag_product(builtin.red_flags()[1], builtin.red_flags()[6])
        assert expand_in_classes(p, table) == frac72({4: 12, 9: 4, 11: 2})

    def test_published_b8_b8(self):
        table = builtin.class_table()
        p = flag_product(builtin.blue_flags()[7], builtin.blue_flags()[7])
        assert expand_in_classes(p, table) == frac72({2: 8, 3: 8, 4: 12})

    def test_product_symmetry(self):
        table = builtin.class_table()
        for flags in (builtin.red_flags(), builtin.blue_flags()):
            for i in range(8):
                for j in range(i + 1, 8):
                    assert expand_in_classes(
                        flag_product(flags[i], flags[j]), table
                    ) == expand_in_classes(flag_product(flags[j], flags[i]), table)

    def test_full_golden_table(self):
        table = builtin.class_table()
        families = {"R": builtin.red_flags(), "B": builtin.blue_flags()}
        for fam, i, j in builtin.golden_pairs():
            flags = families[fam]
            p = flag_product(flags[i - 1], flags[j - 1])
            assert expand_in_classes(p, table) == golden_fractions(fam, i, j), (
                fam,
                i,
                j,
            )

    def test_colour_swap_duality(self):
        # the blue family's expansions are the red family's composed with the
        # class-index involution of the colour swap
        for i in range(1, 9):
            for j in range(i, 9):
                red = golden_fractions("R", i, j)
                blue = golden_fractions("B", i, j)
                assert blue == {SWAP_INVOLUTION[l]: v for l, v in red.items()}


class TestDerivedTables:
    """The certificate owns its glued flag pairs; the class table owns the expansions."""

    def test_flag_pairs_are_glued_once(self):
        cert = builtin_certificate()
        assert cert.flag_pairs is cert.flag_pairs
        assert len(cert.flag_pairs) == 72
        assert [labels for *_, labels, _, _ in cert.flag_pairs][:2] == [("R1.1",), ("R1.2", "R2.1")]

    @pytest.mark.parametrize(
        "edit, sums",
        [(None, [0, 0]), (_shifted(0, 2, 3, Fraction(1, 128)), [Fraction(1, 64), 0])],
    )
    def test_pair_weights_sum_to_the_ordered_double_sum(self, edit, sums):
        # every row of the builtin's matrix sums to 0 (M.1 = 0, its kernel);
        # the shift behind verify_red_2_3_plus.json adds 1/128 at (2, 3) and (3, 2)
        cert = builtin_certificate() if edit is None else load_certificate(_edited(edit))
        for family, total in zip(cert.families, sums):
            weights = [w for f, *_, w, _ in cert.flag_pairs if f is family]
            assert all(type(num) is int and type(d) is int for num, d in weights)
            assert sum(Fraction(num, d) for num, d in weights) == total
            assert sum(sum(row) for row in family.matrix.rows) == total

    def test_loaded_products_are_the_builtin_objects(self):
        # a fresh copy of the builtin glues now, so the product cache holds its products
        cert = dataclasses.replace(builtin_certificate())
        loaded = load_certificate(save_certificate(cert))
        ours = [product for *_, product in cert.flag_pairs]
        theirs = [product for *_, product in loaded.flag_pairs]
        assert len(theirs) == 72 and all(a is b for a, b in zip(ours, theirs))

    def test_equality_ignores_the_cached_pairs(self):
        cert = builtin_certificate()
        loaded = load_certificate(save_certificate(cert))
        stripped = dataclasses.replace(cert, classes=None)
        for c in (cert, loaded, stripped):
            assert c.flag_pairs
        assert "flag_pairs" in vars(loaded)
        assert loaded == cert and stripped != cert

    def test_expansion_is_pulled_densities_at_the_class_codes(self):
        # one record per pattern: the nonzero counts at the class codes, by class index
        table = builtin.class_table()
        cert = builtin_certificate()
        codes = [e.representative.blue for e in table.classes]
        for p in [cert.target] + [product for *_, product in cert.flag_pairs]:
            maps, counts = pulled_densities(p, table.n, table.pairs, codes)
            record = table.expansion(p)
            assert record == (maps, tuple((l, c) for l, c in zip(table.indices, counts) if c))
            indices = [l for l, _ in record[1]]
            assert indices == sorted(set(indices))
            assert all(c for _, c in record[1])
        assert table.expansion(cert.target) is table.expansion(cert.target)


class TestPsdCheck:
    def test_builtin_matrix(self):
        report = psd_check(SymMatrix(builtin.matrix_rows()))
        assert report.is_psd
        assert sum(1 for p in report.pivot_sequence if p > 0) == 7
        assert report.kernel_basis == ((Fraction(1),) * 8,)

    def test_identity(self):
        eye = SymMatrix(
            [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        )
        report = psd_check(eye)
        assert report.is_psd
        assert report.kernel_basis == ()

    def test_negative_scalar(self):
        assert not psd_check(SymMatrix([[Fraction(-1)]])).is_psd

    def test_zero_diagonal_indefinite(self):
        m = SymMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        assert not psd_check(m).is_psd

    def test_negated_builtin(self):
        neg = SymMatrix([[-x for x in row] for row in builtin.matrix_rows()])
        assert not psd_check(neg).is_psd

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SymMatrix([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])

    def test_random_gram_matrices(self):
        rng = random.Random(2024)
        for _ in range(25):
            m = rng.randint(1, 6)
            r = rng.randint(0, m)
            g = [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(r)]
            gram = [
                [sum(g[t][i] * g[t][j] for t in range(r)) for j in range(m)]
                for i in range(m)
            ]
            report = psd_check(SymMatrix(gram))
            assert report.is_psd
            rank = sum(1 for p in report.pivot_sequence if p > 0)
            assert len(report.kernel_basis) == m - rank

    def test_kernel_witness_all_ones(self):
        rows = builtin.matrix_rows()
        for row in rows:
            assert sum(row, Fraction(0)) == 0

    def test_quadratic_form_nonnegative_on_integer_vectors(self):
        rows = builtin.matrix_rows()
        rng = random.Random(7)
        for _ in range(200):
            x = [rng.randint(-9, 9) for _ in range(8)]
            value = sum(
                rows[i][j] * x[i] * x[j] for i in range(8) for j in range(8)
            )
            assert value >= 0


class TestCoefficients:
    def test_all_twenty_six_equal_bound(self):
        cert = builtin_certificate()
        coeffs = certificate_coefficients(cert, builtin.class_table())
        assert set(coeffs) == set(range(1, 27))
        assert all(v == BOUND for v in coeffs.values())

    def test_monochromatic_class_values(self):
        cert = builtin_certificate()
        coeffs = certificate_coefficients(cert, builtin.class_table())
        # only the all-red (resp. all-blue) product contributes there
        assert coeffs[1] == cert.families[0].matrix.entry(1, 1) == Fraction(2, 128)
        assert coeffs[26] == Fraction(1, 64)

    def test_blue_matching_class_assembly(self):
        # reconstruct one published item: base 1/6 plus the ordered-pair
        # matrix terms carried by the class-4 expansion rows
        m = builtin.matrix_rows()
        value = Fraction(1, 6) + Fraction(12, 72) * (
            m[1][6] + m[6][1] + m[2][4] + m[4][2] + m[6][6] + m[7][7]
        )
        assert value == BOUND

    def test_colour_swap_maps_the_red_family_onto_the_blue(self):
        # swapping colours sends red flag k to blue flag k and class l to
        # swap[l], so family B's coefficients are family R's, permuted
        cert = builtin_certificate()
        table = builtin.class_table()
        swap = table.swap_involution()
        red, blue = (
            certificate_coefficients(dataclasses.replace(cert, families=(f,), base={}), table)
            for f in cert.families
        )
        assert [f.root_edge_color for f in cert.families] == [Color.RED, Color.BLUE]
        assert all(blue[swap[l]] == red[l] for l in table.indices)
        assert all(cert.base.get(swap[l], 0) == cert.base.get(l, 0) for l in table.indices)
        # no class is its own swap partner's equal, so a wrong involution fails
        assert all(red[l] != red[swap[l]] for l in table.indices)

    def test_every_single_entry_mutation_breaks_a_coefficient(self):
        cert = builtin_certificate()
        table = builtin.class_table()
        matrix = cert.families[0].matrix
        delta = Fraction(1, 128)
        for i in range(1, 9):
            for j in range(i, 9):
                mutated_matrix = _with_entry(matrix, i, j, matrix.entry(i, j) + delta)
                mutated = Certificate(
                    name=cert.name,
                    template_parts=cert.template_parts,
                    target=cert.target,
                    base=cert.base,
                    families=tuple(
                        FlagFamily(f.root_edge_color, f.flags, mutated_matrix)
                        for f in cert.families
                    ),
                    bound=cert.bound,
                )
                coeffs = certificate_coefficients(mutated, table)
                assert any(v != BOUND for v in coeffs.values()), (i, j)

    def test_perturbed_corner_breaks_monochromatic_classes(self):
        cert = builtin_certificate()
        table = builtin.class_table()
        matrix = _with_entry(cert.families[0].matrix, 1, 1, Fraction(3, 128))
        mutated = Certificate(
            name=cert.name,
            template_parts=cert.template_parts,
            target=cert.target,
            base=cert.base,
            families=tuple(
                FlagFamily(f.root_edge_color, f.flags, matrix)
                for f in cert.families
            ),
            bound=cert.bound,
        )
        coeffs = certificate_coefficients(mutated, table)
        assert coeffs[1] != BOUND
        assert coeffs[26] != BOUND


def ordered_coefficients(cert, table):
    """Reference: base plus the ordered double sum over every flag pair i, j."""
    coeffs = {index: cert.base.get(index, Fraction(0)) for index in table.indices}
    for family in cert.families:
        m = len(family.flags)
        for i in range(m):
            for j in range(m):
                weight = family.matrix.rows[i][j]
                if not weight:
                    continue
                product = flag_product(family.flags[i], family.flags[j])
                for index, value in expand_in_classes(product, table).items():
                    coeffs[index] += weight * value
    return coeffs


# small rationals, zero often, so zero-weight pairs are skipped as well
SMALL_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 128]))


@st.composite
def symmetric_matrices(draw, m=8):
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(SMALL_RATIONALS)
    return SymMatrix(rows)


def fraction_coefficients(cert, table):
    """Reference: the coefficient sum as the verifier ran it over Fraction expansions."""
    base = {index: cert.base.get(index, Fraction(0)) for index in table.indices}
    terms = []  # (class, numerator, denominator) of each nonzero weight * value
    for family, i, j, labels, _, product in cert.flag_pairs:
        weight = len(labels) * family.matrix.rows[i][j]
        if weight:
            terms += (
                (index, weight.numerator * v.numerator, weight.denominator * v.denominator)
                for index, v in expand_in_classes(product, table).items() if v
            )
    den = math.lcm(*(v.denominator for v in base.values()), *(d for *_, d in terms))
    nums = {index: v.numerator * (den // v.denominator) for index, v in base.items()}
    for index, num, d in terms:
        nums[index] += num * (den // d)
    return {index: Fraction(num, den) for index, num in nums.items()}


@st.composite
def shifted_builtins(draw):
    """The builtin with 1-4 entries of one family's matrix, and their mirrors, moved by k/128."""
    cert = builtin_certificate()
    fam = draw(st.integers(0, 1))
    matrix = cert.families[fam].matrix
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        k = draw(st.integers(-16, 16).filter(bool))
        matrix = _with_entry(matrix, i, j, matrix.entry(i, j) + Fraction(k, 128))
    families = list(cert.families)
    families[fam] = FlagFamily(families[fam].root_edge_color, families[fam].flags, matrix)
    return dataclasses.replace(cert, families=tuple(families))


class TestCoefficientReference:
    @settings(max_examples=60, deadline=None)
    @given(shifted_builtins())
    def test_shifted_builtin_matches_the_fraction_sum(self, cert):
        table = builtin.class_table()
        assert certificate_coefficients(cert, table) == fraction_coefficients(cert, table)

    @pytest.mark.parametrize("fixture", sorted(VERIFY_FIXTURES))
    def test_fixture_certificates_match_the_fraction_sum(self, fixture):
        edit = VERIFY_FIXTURES[fixture]
        cert = builtin_certificate() if edit is None else load_certificate(_edited(edit))
        table = builtin.class_table()
        assert certificate_coefficients(cert, table) == fraction_coefficients(cert, table)

    @settings(max_examples=30, deadline=None)
    @given(symmetric_matrices(), symmetric_matrices())
    def test_unordered_pairs_match_the_ordered_double_sum(self, red, blue):
        cert = builtin_certificate()
        drawn = dataclasses.replace(
            cert,
            families=tuple(
                FlagFamily(f.root_edge_color, f.flags, matrix)
                for f, matrix in zip(cert.families, (red, blue))
            ),
        )
        table = builtin.class_table()
        assert certificate_coefficients(drawn, table) == ordered_coefficients(drawn, table)


def fraction_psd_check(m: SymMatrix) -> PsdReport:
    """Reference: the same LDL^T elimination, carried out in Fractions."""
    n = m.order
    s = [list(row) for row in m.rows]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    pivots: list[Fraction] = []

    k = 0
    while k < n:
        p = max(range(k, n), key=lambda i: s[i][i])
        if s[p][p] == 0:
            residual_zero = all(
                s[i][j] == 0 for i in range(k, n) for j in range(k, n)
            )
            if residual_zero:
                pivots.extend([Fraction(0)] * (n - k))
                break
            if all(s[i][i] == 0 for i in range(k, n)):
                return PsdReport(
                    False,
                    tuple(pivots),
                    (),
                    detail="zero diagonal block with nonzero off-diagonal residue",
                )
            p = min(range(k, n), key=lambda i: s[i][i])
        if p != k:
            perm[k], perm[p] = perm[p], perm[k]
            s[k], s[p] = s[p], s[k]
            for row in s:
                row[k], row[p] = row[p], row[k]
            lower[k], lower[p] = lower[p], lower[k]
        pivot = s[k][k]
        pivots.append(pivot)
        row_k = list(s[k])
        for i in range(k + 1, n):
            factor = s[i][k] / pivot
            lower[i][k] = factor
            if factor:
                for j in range(k + 1, n):
                    s[i][j] -= factor * row_k[j]
            s[i][k] = Fraction(0)
            s[k][i] = Fraction(0)
        k += 1

    if any(p < 0 for p in pivots):
        return PsdReport(False, tuple(pivots), (), detail="negative pivot")

    kernel = []
    for k, pivot in enumerate(pivots):
        if pivot != 0:
            continue
        y = [Fraction(0)] * n
        y[k] = Fraction(1)
        for i in range(k - 1, -1, -1):
            y[i] = -sum(lower[j][i] * y[j] for j in range(i + 1, n))
        x = [Fraction(0)] * n
        for i in range(n):
            x[perm[i]] = y[i]
        lead = next(v for v in x if v)
        kernel.append(tuple(v / lead for v in x))
    return PsdReport(True, tuple(pivots), tuple(kernel))


def _gram(g, m):
    return [
        [sum((row[i] * row[j] for row in g), Fraction(0)) for j in range(m)]
        for i in range(m)
    ]


@st.composite
def rank_deficient_grams(draw):
    """G^T G for a drawn r x m rational G with r < m: PSD with a kernel."""
    m = draw(st.integers(1, 8))
    r = draw(st.integers(0, m - 1))
    return SymMatrix(_gram([[draw(SMALL_RATIONALS) for _ in range(m)] for _ in range(r)], m))


@st.composite
def zero_diagonal_residues(draw):
    """A Gram block beside a zero-diagonal block with off-diagonal mass,
    shuffled: once the Gram pivots are spent, every diagonal entry left is
    zero while the residual block is not."""
    m, k = draw(st.integers(0, 6)), draw(st.integers(2, 4))
    r = draw(st.integers(0, m))
    gram = _gram([[draw(SMALL_RATIONALS) for _ in range(m)] for _ in range(r)], m)
    rows = [[Fraction(0)] * (m + k) for _ in range(m + k)]
    for i in range(m):
        rows[i][:m] = gram[i]
    for i in range(m, m + k):
        for j in range(i + 1, m + k):
            rows[i][j] = rows[j][i] = draw(SMALL_RATIONALS)
    rows[m][m + 1] = rows[m + 1][m] = draw(SMALL_RATIONALS.filter(bool))
    order = draw(st.permutations(range(m + k)))
    return SymMatrix([[rows[i][j] for j in order] for i in order])


class TestPsdReference:
    """The integer elimination gives the Fraction reference's report, field by field."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(symmetric_matrices))
    # after the negative first pivot the later diagonal is stored negated
    @example(SymMatrix([[Fraction(-1 - i if i == j else 0) for j in range(3)] for i in range(3)]))
    def test_random_symmetric(self, m):
        assert psd_check(m) == fraction_psd_check(m)

    @settings(max_examples=150, deadline=None)
    @given(rank_deficient_grams())
    def test_rank_deficient_grams(self, m):
        report = psd_check(m)
        assert report.is_psd and report.kernel_basis
        assert report == fraction_psd_check(m)

    @settings(max_examples=100, deadline=None)
    @given(zero_diagonal_residues())
    def test_zero_diagonal_with_residue(self, m):
        report = psd_check(m)
        assert report.detail == "zero diagonal block with nonzero off-diagonal residue"
        assert report == fraction_psd_check(m)

    def test_every_single_entry_mutation_of_the_builtin(self):
        matrix = SymMatrix(builtin.matrix_rows())
        assert psd_check(matrix) == fraction_psd_check(matrix)
        for i in range(1, 9):
            for j in range(i, 9):
                for delta in (Fraction(1, 128), Fraction(-1, 128)):
                    mutated = _with_entry(matrix, i, j, matrix.entry(i, j) + delta)
                    assert psd_check(mutated) == fraction_psd_check(mutated), (i, j, delta)


class TestVerification:
    def test_builtin_passes(self):
        report = verify_certificate(builtin_certificate())
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [
            "classification",
            "base_vector",
            "psd_family_R",
            "psd_family_B",
            "coefficients",
            "golden_expansions",
        ]

    def test_shared_builtins_refuse_writes(self):
        # the class table and certificate serve every later caller in the process
        with pytest.raises(dataclasses.FrozenInstanceError):
            builtin.class_table().classes[0].multiplicity = 0
        with pytest.raises(TypeError):
            builtin_certificate().base[1] = Fraction(5)
        assert 1 not in builtin_certificate().base
        for family in "RB":
            with pytest.raises(TypeError):
                builtin.golden_numerators(family, 1, 1)[26] = 0
        table = builtin.class_table()
        target = builtin_certificate().target
        with pytest.raises(TypeError):
            table.expansion(target)[0] = 0
        with pytest.raises(TypeError):
            table.expansion(target)[1][3] = 0
        assert verify_certificate(builtin_certificate()).passed

    def test_expansions_are_fresh_dicts_of_the_cached_counts(self):
        table = builtin.class_table()
        target = builtin_certificate().target
        expansion = expand_in_classes(target, table)
        assert expansion == {
            index: builtin.BASE_VECTOR.get(index, Fraction(0)) for index in table.indices
        }
        expansion[4] = Fraction(0)
        assert expand_in_classes(target, table)[4] == Fraction(1, 6)
        assert verify_certificate(builtin_certificate()).passed

    def test_base_is_a_copy_of_the_mapping_given(self):
        cert = builtin_certificate()
        base = dict(cert.base)
        copy = dataclasses.replace(cert, base=base)
        base[1] = Fraction(5)
        assert copy.base == cert.base and 1 not in copy.base
        assert save_certificate(copy) == save_certificate(cert)

    def test_verification_deterministic(self):
        a = verify_certificate(builtin_certificate())
        b = verify_certificate(builtin_certificate())
        assert a == b

    def test_base_vector_matches_target_densities(self):
        cert = builtin_certificate()
        table = builtin.class_table()
        for l in table.indices:
            assert cert.base.get(l, Fraction(0)) == t_bip(
                cert.target, table.representative(l)
            )

    def test_mutated_certificate_fails_coefficients(self):
        cert = builtin_certificate()
        matrix = _with_entry(cert.families[0].matrix, 1, 1, Fraction(3, 128))
        mutated = Certificate(
            name=cert.name,
            template_parts=cert.template_parts,
            target=cert.target,
            base=cert.base,
            families=tuple(
                FlagFamily(f.root_edge_color, f.flags, matrix)
                for f in cert.families
            ),
            bound=cert.bound,
            classes=cert.classes,
        )
        report = verify_certificate(mutated)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == {"coefficients"}

    def test_golden_transcription_slip_fails_both_families(self, monkeypatch):
        # the blue rows are derived from the red ones, so one corrupted red
        # row must break the red equation and its colour-swapped blue twin
        row = dict(builtin._GOLDEN_NUMERATORS_RED[(2, 7)])
        row[4] -= 1
        row[1] = 1
        monkeypatch.setitem(builtin._GOLDEN_NUMERATORS_RED, (2, 7), row)
        builtin._golden_numerators_blue.cache_clear()
        certificate._golden_check.cache_clear()
        try:
            report = verify_certificate(builtin_certificate())
        finally:
            monkeypatch.undo()
            builtin._golden_numerators_blue.cache_clear()
            certificate._golden_check.cache_clear()
        golden = next(c for c in report.checks if c.name == "golden_expansions")
        assert not golden.passed
        assert golden.detail == "mismatch at ['R2.7', 'B2.7']"
        assert {c.name for c in report.checks if not c.passed} == {"golden_expansions"}
        assert verify_certificate(builtin_certificate()).passed

    def test_golden_check_runs_once_per_process(self, monkeypatch):
        # check 5 reads only shipped data: a later verify reuses its verdict
        first = verify_certificate(builtin_certificate()).checks[-1]

        def unread(*args):
            raise AssertionError("golden rows read again")

        monkeypatch.setattr(builtin, "golden_numerators", unread)
        report = verify_certificate(builtin_certificate())
        assert report.passed
        assert report.checks[-1] == first
        assert first.detail == "72 equations reproduced"

    def test_foreign_template_recorded_not_raised(self):
        cert = builtin_certificate()
        foreign = Certificate(
            name=cert.name,
            template_parts=(2, 2),
            target=cert.target,
            base=cert.base,
            families=cert.families,
            bound=cert.bound,
        )
        report = verify_certificate(foreign)
        assert not report.passed
        classification = next(c for c in report.checks if c.name == "classification")
        assert not classification.passed
        assert "template parts" in classification.detail

    def test_non_embeddable_target_recorded_not_raised(self):
        cert = builtin_certificate()
        odd = Certificate(
            name=cert.name,
            template_parts=cert.template_parts,
            target=complete_graph(3, Color.RED),  # triangles never embed
            base=cert.base,
            families=cert.families,
            bound=cert.bound,
        )
        report = verify_certificate(odd)
        assert not report.passed
        base_check = next(c for c in report.checks if c.name == "base_vector")
        assert not base_check.passed

    def test_non_embeddable_flag_product_recorded_not_raised(self):
        report = verify_certificate(load_certificate(_edited(_triangle_in_red_flag_1)))
        failing = [c for c in report.checks if not c.passed]
        assert [(c.name, c.detail) for c in failing] == [
            ("coefficients", "pattern does not embed in the template")
        ]
        assert report.coefficients == {}

    def test_negated_matrix_fails_psd(self):
        cert = builtin_certificate()
        neg = SymMatrix([[-x for x in row] for row in cert.families[0].matrix.rows])
        mutated = Certificate(
            name=cert.name,
            template_parts=cert.template_parts,
            target=cert.target,
            base=cert.base,
            families=tuple(
                FlagFamily(f.root_edge_color, f.flags, neg) for f in cert.families
            ),
            bound=cert.bound,
        )
        report = verify_certificate(mutated)
        assert not report.passed
        assert any(
            c.name.startswith("psd") and not c.passed for c in report.checks
        )


class TestWarmVerify:
    """One process verifies many texts; what it keeps never decides a later verdict."""

    def test_a_mutated_text_between_two_exported_texts(self):
        text = save_certificate(builtin_certificate())
        first = verify_certificate(load_certificate(text))
        mutated = load_certificate(_edited(_shifted(0, 2, 3, Fraction(1, 128))))
        middle = verify_certificate(mutated)
        last = verify_certificate(load_certificate(text))
        assert first.passed and last.passed
        assert [c.name for c in middle.checks if not c.passed] == ["coefficients"]
        assert last.to_dict() == first.to_dict()
        red, blue = middle.psd_reports
        assert red == psd_check(mutated.families[0].matrix)
        assert blue == psd_check(builtin_certificate().families[1].matrix)
        assert red != blue

    def test_equal_matrices_share_one_elimination(self):
        cert = load_certificate(save_certificate(builtin_certificate()))
        assert cert.families[0].matrix is not cert.families[1].matrix
        red, blue = verify_certificate(cert).psd_reports
        assert blue is red

    def test_families_with_different_matrices_get_their_own_reports(self):
        cert = builtin_certificate()
        matrix = cert.families[1].matrix
        doubled = SymMatrix([[2 * x for x in row] for row in matrix.rows])
        blue = dataclasses.replace(cert.families[1], matrix=doubled)
        two = dataclasses.replace(cert, families=(cert.families[0], blue))
        red_report, blue_report = verify_certificate(two).psd_reports
        assert red_report == psd_check(matrix)
        assert blue_report == psd_check(doubled)
        assert blue_report != red_report
        assert blue_report.pivot_sequence == tuple(2 * p for p in red_report.pivot_sequence)


class TestSerialization:
    def test_round_trip(self):
        cert = builtin_certificate()
        assert load_certificate(save_certificate(cert)) == cert

    def test_round_trip_without_classes(self):
        cert = builtin_certificate()
        stripped = Certificate(
            name=cert.name,
            template_parts=cert.template_parts,
            target=cert.target,
            base=cert.base,
            families=cert.families,
            bound=cert.bound,
        )
        assert load_certificate(save_certificate(stripped)) == stripped

    def test_rational_formatting(self):
        # the writer spells a rational as str(Fraction), which the loader reads back
        for x, text in [(Fraction(2, 128), "1/64"), (Fraction(-20, 128), "-5/32"),
                        (Fraction(3), "3"), (Fraction(0), "0")]:
            assert str(x) == text
            assert parse_rational(text, "$.x") == x
        obj = json.loads(save_certificate(builtin_certificate()))
        texts = [obj["bound"], *obj["base"].values()]
        texts += [x for family in obj["families"] for row in family["matrix"] for x in row]
        assert all(str(parse_rational(text, "$.x")) == text for text in texts)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.integers(),
            st.fractions(),
            st.integers(-(10**4300) + 1, 10**4300 - 1),
            st.builds(Fraction, st.integers(-(10**4300) + 1, 10**4300 - 1), st.integers(1, 10**4300 - 1)),
        )
    )
    @example(0)
    @example(Fraction(0))
    @example(-7)
    @example(Fraction(-5, 32))
    @example(10**4299)
    @example(-(10**4300) + 1)
    @example(Fraction(-(10**4300) + 1, 10**4300 - 2))
    def test_rational_formatting_of_ints_and_fractions(self, x):
        text = str(x)
        assert text == str(Fraction(x))
        assert parse_rational(text, "$.x") == x

    def test_parse_rejects_unreduced(self):
        with pytest.raises(SchemaError):
            parse_rational("4/128", "$.x")

    def test_parse_accepts_reduced_unit_denominator(self):
        # "3/1" is reduced with positive denominator, hence legal input,
        # though the writer always emits the plain integer form
        assert parse_rational("3/1", "$.x") == 3
        assert str(parse_rational("3/1", "$.x")) == "3"

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "1/-2", "a/b", "1.5", "+1/2", "1/64\n", "\u0661/64",
                    "007", "1/064", "01/64", "-0", "-0/1"):
            with pytest.raises(SchemaError):
                parse_rational(bad, "$.x")

    def test_duplicate_roots_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        obj["families"][0]["flags"][0]["roots"] = [0, 0]
        with pytest.raises(SchemaError) as err:
            load_certificate(json.dumps(obj))
        assert "duplicate root" in str(err.value)

    def test_unknown_field_rejected(self):
        text = save_certificate(builtin_certificate())
        broken = text.replace('"name":', '"extra": 1,\n  "name":', 1)
        with pytest.raises(SchemaError) as err:
            load_certificate(broken)
        assert "unknown" in str(err.value)

    def test_unsorted_edges_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        obj["target"]["edges"][0], obj["target"]["edges"][1] = (
            obj["target"]["edges"][1],
            obj["target"]["edges"][0],
        )
        with pytest.raises(SchemaError) as err:
            load_certificate(json.dumps(obj))
        assert "increasing" in str(err.value)

    def test_reversed_endpoint_order_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        u, v, c = obj["target"]["edges"][0]
        obj["target"]["edges"][0] = [v, u, c]
        with pytest.raises(SchemaError):
            load_certificate(json.dumps(obj))

    def test_three_roots_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        obj["families"][0]["flags"][0]["roots"] = [0, 1, 2]
        with pytest.raises(SchemaError) as err:
            load_certificate(json.dumps(obj))
        assert "two roots" in str(err.value) or "at most two" in str(err.value)

    def test_missing_field_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        del obj["bound"]
        with pytest.raises(SchemaError) as err:
            load_certificate(json.dumps(obj))
        assert "bound" in str(err.value)

    def test_asymmetric_matrix_rejected(self):
        import json

        obj = json.loads(save_certificate(builtin_certificate()))
        obj["families"][0]["matrix"][0][1] = "1/2"
        with pytest.raises(SchemaError) as err:
            load_certificate(json.dumps(obj))
        assert "symmetric" in str(err.value)

    def test_first_asymmetric_pair_is_named_in_row_major_order(self):
        # an edit below the diagonal at (5, 2) and one above it at (1, 4):
        # the refusal names the pair that comes first in row-major order
        def edit(obj):
            matrix = obj["families"][0]["matrix"]
            matrix[5][2], matrix[1][4] = "1/2", "1/3"

        with pytest.raises(SchemaError) as err:
            load_certificate(_edited(edit))
        assert str(err.value) == "$.families[0]: matrix not symmetric at (1,4)"

    def test_not_json_rejected(self):
        with pytest.raises(SchemaError):
            load_certificate("certificate { }")

    def test_flag_cap_admits_sixty_four_flags(self):
        # 56 + 8 flags pass the cap; the 8-row matrix is read and refused
        text = _edited(_repeat_first_family_flags(MAX_FLAGS - 8))
        with pytest.raises(SchemaError, match=r"\$\.families\[0\]\.matrix: expected 56 rows"):
            load_certificate(text)

    def test_dense_sixty_four_flag_family_verifies(self):
        # the PSD cap's worst case: one family of 64 flags (the red ones
        # repeated) under a dense, diagonally dominant matrix
        def dense(obj):
            family = obj["families"][0]
            family["flags"] = (family["flags"] * 8)[:MAX_FLAGS]
            family["matrix"] = [
                ["64" if i == j else str(Fraction((i * j) % 7 - 3, 128))
                 for j in range(MAX_FLAGS)]
                for i in range(MAX_FLAGS)
            ]
            obj["families"] = [family]

        report = verify_certificate(load_certificate(_edited(dense)))
        passed = {c.name: c.passed for c in report.checks}
        assert passed == {
            "classification": True, "base_vector": True, "psd_family_R": True,
            "coefficients": False, "golden_expansions": True,
        }

    def test_target_fits_the_template(self):
        # the 3+3 template has six vertices: a six-vertex target is read, a
        # seventh vertex is refused where it is read
        assert load_certificate(_edited(lambda o: o["target"].update(n=6))).target.n == 6
        with pytest.raises(SchemaError, match=r"\$\.target\.n: 7 vertices; the template has 6"):
            load_certificate(_edited(lambda o: o["target"].update(n=7)))

    def test_flag_products_fit_the_template(self):
        # a flag glued to itself on its two roots has 2n - 2 vertices
        def flag_on(n):
            return _edited(lambda o: o["families"][0]["flags"][0].update(n=n))

        assert load_certificate(flag_on(4)).families[0].flags[0].graph.n == 4
        with pytest.raises(
            SchemaError,
            match=r"\$\.families\[0\]\.flags\[0\]\.n: 5 vertices glue to 8; the template has 6",
        ):
            load_certificate(flag_on(5))

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_text_rejected(self, kind):
        make, where = MALFORMED[kind]
        with pytest.raises(SchemaError) as err:
            load_certificate(make())
        assert where in str(err.value)

    @pytest.mark.parametrize("kind", sorted(TYPE_REFUSALS))
    def test_type_refusals_name_what_was_read(self, kind):
        with pytest.raises(SchemaError) as err:
            load_certificate(MALFORMED[kind][0]())
        assert err.value.path.startswith(TYPE_REFUSALS[kind])
        assert str(err.value).startswith(MALFORMED[kind][1])

    @pytest.mark.parametrize("make, where", BEYOND_LIMITS)
    def test_text_beyond_interpreter_limits_rejected(self, make, where):
        with pytest.raises(SchemaError) as err:
            load_certificate(make())
        assert str(err.value).startswith(where)


def _first_target_edge(position, value):
    return lambda: _edited(lambda o: o["target"]["edges"][0].__setitem__(position, value))


# Copies of the exported text a warm loader must refuse as a cold one does, with
# the message MALFORMED pins, if any: the value equals what the exported text
# holds in a cache key (false == 0.0 == 0, true == 1) or cannot be hashed (a
# list colour), or spells the bound the exported text spells canonically.
INTERNING_REFUSALS = {
    "false_endpoint": MALFORMED["boolean_endpoint"],
    "float_endpoint": (_first_target_edge(0, 0.0), None),
    "true_n": MALFORMED["boolean_n"],
    "list_colour": (_first_target_edge(2, ["R"]), None),
    "unreduced_bound": (lambda: _edited(lambda o: o.update(bound="2/128")), None),
    "zero_padded_bound": MALFORMED["zero_padded_bound"],
    "spaced_bound": (lambda: _edited(lambda o: o.update(bound="1/64 ")), None),
}
SRC = Path(__file__).resolve().parents[1] / "src"
_COLD_LOAD = """
import json, sys
from flagcert.certificate import SchemaError, load_certificate
try:
    load_certificate(sys.stdin.read())
except SchemaError as exc:
    print(json.dumps([exc.path, str(exc)]))
"""


def _refusal(text: str) -> tuple[str, str]:
    with pytest.raises(SchemaError) as err:
        load_certificate(text)
    return err.value.path, str(err.value)


def _refusal_of_rational(text: str) -> str:
    with pytest.raises(SchemaError) as err:
        parse_rational(text, "$.x")
    return str(err.value)


class TestInterning:
    """The loader's caches share what they accept and keep no refusal."""

    @pytest.mark.parametrize("kind", sorted(INTERNING_REFUSALS))
    def test_warm_caches_refuse_as_a_cold_process_does(self, kind):
        make, pinned = INTERNING_REFUSALS[kind]
        text = make()
        cold = subprocess.run(
            [sys.executable, "-c", _COLD_LOAD], input=text, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert cold.returncode == 0, cold.stderr
        expected = tuple(json.loads(cold.stdout))
        load_certificate(save_certificate(builtin_certificate()))  # every cache warm
        assert _refusal(text) == expected
        assert _refusal(text) == expected  # a refusal is not cached either
        assert pinned is None or pinned in expected[1]

    def test_loads_share_graphs_flags_and_rationals(self):
        text = save_certificate(builtin_certificate())
        first, second = load_certificate(text), load_certificate(text)
        assert second == first and second is not first
        assert second.target is first.target and second.bound is first.bound
        assert all(a is b for a, b in zip(second.classes, first.classes, strict=True))
        for family, again in zip(first.families, second.families, strict=True):
            assert all(a is b for a, b in zip(again.flags, family.flags, strict=True))
            assert all(
                a is b for r, s in zip(again.matrix.rows, family.matrix.rows) for a, b in zip(r, s)
            )

    def test_caches_are_bounded(self):
        for cache in (certificate._rational, certificate._graph, certificate._flag):
            assert cache.cache_info().maxsize == 256

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(), st.integers(2, 10**6))
    @example(Fraction(0), 2)
    @example(Fraction(1, 64), 2)
    def test_rational_round_trip_and_refusals(self, x, k):
        canonical = str(x)
        assert parse_rational(canonical, "$.x") == x
        sign, digits = ("-", canonical[1:]) if x < 0 else ("", canonical)
        spellings = [
            f"{x.numerator * k}/{x.denominator * k}",  # unreduced
            f"{sign}0{digits}",  # zero-padded
            f"{x.numerator}/0{x.denominator}",  # zero-padded denominator
            f" {canonical}",
            f"+{canonical}",
        ]
        if x == 0:
            spellings.append("-0")
        for text in spellings:
            certificate._rational.cache_clear()
            cold = _refusal_of_rational(text)
            assert parse_rational(canonical, "$.x") == x  # a miss
            hits = certificate._rational.cache_info().hits
            assert parse_rational(canonical, "$.x") == x  # a hit
            assert certificate._rational.cache_info().hits == hits + 1
            assert _refusal_of_rational(text) == cold
            assert _refusal_of_rational(text) == cold
