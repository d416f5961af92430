"""The benchmark's own reference computations agree with flagcert on small inputs.

Run from the repository root: ``python3 -m pytest bench``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import reference  # noqa: E402
import replay  # noqa: E402
from flagcert import builtin, oracle  # noqa: E402
from flagcert.certificate import (  # noqa: E402
    SchemaError,
    builtin_certificate,
    load_certificate,
    save_certificate,
)
from flagcert.counting import alternating_hom_inj_count, hom_inj_count  # noqa: E402


def test_template_group_and_burnside_count_match_the_classification():
    group = reference.template_group()
    assert set(group) == set(builtin.template_group())
    table = builtin.class_table()
    assert reference.burnside_class_count(group) == len(table) == 26
    assert reference.orbit_sizes(group) == sorted(e.multiplicity for e in table.classes)


@pytest.mark.parametrize("n,seed", [(6, 0), (7, 3), (8, 11), (9, 2**40 + 5)])
def test_splitmix_colouring_and_int_cycle_count_match_the_program(n, seed):
    g = oracle.random_clique_coloring(n, seed)
    bits = reference.clique_bits(n, seed)
    for u, v, c in g.edges:
        assert bits[u][v] == (0 if c.value == "R" else 1)
    count = reference.c6_count_int(bits)
    assert count == hom_inj_count(builtin.target(), g) == alternating_hom_inj_count(g)


@pytest.mark.parametrize("n,seed", [(7, 1), (30, 9), (31, 2**63 - 1)])
def test_vectorised_colouring_and_exact_count_match_the_python_ints(n, seed):
    bits = reference.clique_bits(n, seed)
    np_bits = reference.clique_bits_np(n, seed)
    assert np_bits.tolist() == bits
    assert reference.c6_count_exact(np_bits) == reference.c6_count_int(bits)


def test_monte_carlo_trials_match_the_program():
    for seed, trial in ((0, 0), (5, 3)):
        master = reference.trial_seed(seed, trial)
        assert master == oracle.trial_seed(seed, trial)
        red, blue = oracle._random_clique_matrices(40, master)
        assert reference.clique_bits_np(40, master).tolist() == blue.tolist()
    result = oracle.monte_carlo_mean(24, 3, 7)
    values = [reference.c6_density(24, reference.trial_seed(7, t)) for t in range(3)]
    assert result.mean == sum(values, Fraction(0)) / 3
    assert (result.minimum, result.maximum) == (min(values), max(values))


def test_stream_inputs_keep_their_intended_meaning():
    exported = save_certificate(builtin_certificate())
    original = json.loads(exported)["families"]
    texts = replay.round_texts(exported, seed=3, half=0, r=0)
    assert texts == replay.round_texts(exported, seed=3, half=0, r=0)
    kinds = [k for k, _ in texts]
    assert kinds.count("mutated") == replay.MUTATIONS_PER_ROUND
    assert kinds.count("invalid") == len(replay.SCHEMA_VIOLATIONS) + 1
    for kind, text in texts:
        if kind == "invalid":
            with pytest.raises(SchemaError):
                load_certificate(text)
        elif kind == "mutated":
            shifts = {
                (i, j): Fraction(a) - Fraction(b)
                for fam, old in zip(json.loads(text)["families"], original)
                for i, (row, old_row) in enumerate(zip(fam["matrix"], old["matrix"]))
                for j, (a, b) in enumerate(zip(row, old_row))
                if a != b
            }
            assert shifts and set(map(abs, shifts.values())) == {Fraction(1, 128)}
            assert all(shifts[j, i] == d for (i, j), d in shifts.items())


def test_span_self_time_subtracts_direct_children():
    spans = [["a", -1, 0, 100, 0], ["b", 0, 10, 40, 0], ["c", 1, 15, 25, 0], ["b", 0, 50, 60, 0]]
    assert replay.aggregate(spans) == {
        "a": [1, 100, 60, 0],
        "b": [2, 40, 30, 0],
        "c": [1, 10, 10, 0],
    }
