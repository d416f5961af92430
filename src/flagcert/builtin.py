"""Shipped data for the alternating-6-cycle certificate.

Everything the verifier treats as ground truth lives here: the bipartite
template, the 26 published class representatives, the 16 rooted flags, the
8x8 certificate matrix, the sparse base vector, the claimed bound and the
golden table of 72 product-expansion equations, transcribed for the red
flags only; the blue rows are derived through the colour swap.

Template vertex layout (shared by all representatives): left part 0,1,2
bottom-to-top, right part 3,4,5 bottom-to-top.  Each representative is
recorded by its blue pairs; the remaining template pairs are red.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .graphs import (
    ClassTable,
    Color,
    ColoredGraph,
    Flag,
    alternating_cycle,
    classify,
    complete_bipartite,
    underlying_automorphisms,
)

TEMPLATE_PARTS = (3, 3)

# Left part (bottom to top) then right part (bottom to top).
_L1, _L2, _L3 = 0, 1, 2
_R1, _R2, _R3 = 3, 4, 5

# Blue pairs of each of the 26 class representatives, keyed by class index.
_CLASS_BLUE_PAIRS = {
    1: [],
    2: [(_L1, _R1)],
    3: [(_L1, _R1), (_L2, _R2)],
    4: [(_L1, _R1), (_L2, _R2), (_L3, _R3)],
    5: [(_L1, _R1), (_L2, _R1)],
    6: [(_L1, _R1), (_L2, _R1), (_L3, _R2)],
    7: [(_L1, _R1), (_L2, _R1), (_L3, _R2), (_L3, _R3)],
    8: [(_L1, _R1), (_L2, _R1), (_L1, _R2)],
    9: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L3, _R3)],
    10: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L3, _R2)],
    11: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L3, _R2), (_L2, _R3)],
    12: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L3, _R2), (_L2, _R3), (_L3, _R3)],
    13: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L2, _R2)],
    14: [(_L1, _R1), (_L2, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R3)],
    15: [(_L1, _R1), (_L2, _R1), (_L3, _R1)],
    16: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2)],
    17: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R3)],
    18: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L1, _R3)],
    19: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2)],
    20: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R3)],
    21: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L1, _R3)],
    22: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L1, _R3), (_L3, _R3)],
    23: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R2)],
    24: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R2), (_L1, _R3)],
    25: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R2), (_L1, _R3), (_L2, _R3)],
    26: [(_L1, _R1), (_L2, _R1), (_L3, _R1), (_L1, _R2), (_L2, _R2), (_L3, _R2), (_L1, _R3), (_L2, _R3), (_L3, _R3)],
}

NUM_CLASSES = 26
GROUP_ORDER = 72  # 2 * 3! * 3! underlying symmetries of the template
NUM_COLORINGS = 512


def template() -> ColoredGraph:
    """The 3+3 complete bipartite template (colours are placeholders)."""
    return complete_bipartite(*TEMPLATE_PARTS)


def target() -> ColoredGraph:
    """The alternating 6-cycle whose density the certificate bounds."""
    return alternating_cycle(6)


def class_representatives() -> tuple[ColoredGraph, ...]:
    tmpl = template()
    reps = []
    for index in range(1, NUM_CLASSES + 1):
        blue = {tuple(sorted(p)) for p in _CLASS_BLUE_PAIRS[index]}
        edges = [(u, v, Color.BLUE if (u, v) in blue else Color.RED) for u, v in tmpl.pairs]
        reps.append(ColoredGraph(tmpl.n, edges))
    return tuple(reps)


def template_group() -> tuple[tuple[int, ...], ...]:
    return tuple(underlying_automorphisms(template()))


@lru_cache(maxsize=1)
def class_table() -> ClassTable:
    """Classification of all 512 template colourings, in published order.

    The colourings are passed as their codes 0..511 and the orbits are the
    images of the 26 representatives under the 72 template symmetries, so no
    graph is built per colouring.
    """
    return classify(range(NUM_COLORINGS), template_group(), class_representatives())


# -- flags -------------------------------------------------------------------

# Each flag has four vertices: root 1, root 2, and one extra vertex attached
# to each root.  Local layout: 0 = root 1, 1 = root 2, 2 adjacent to root 2,
# 3 adjacent to root 1, closing a 4-cycle 0-1-2-3-0.
_FLAG_PAIRS = ((0, 1), (1, 2), (0, 3), (2, 3))

# Colour patterns (root edge, then around the cycle) for the red-rooted
# family; the blue-rooted family is the colour swap.
_RED_FAMILY_PATTERNS = (
    "RRRR",
    "RRRB",
    "RRBR",
    "RRBB",
    "RBRR",
    "RBRB",
    "RBBR",
    "RBBB",
)


def _flag_from_pattern(pattern: str) -> Flag:
    edges = [(u, v, Color(c)) for (u, v), c in zip(_FLAG_PAIRS, pattern)]
    return Flag(ColoredGraph(4, edges), (0, 1))


def red_flags() -> tuple[Flag, ...]:
    """The eight flags whose root edge is red."""
    return tuple(_flag_from_pattern(p) for p in _RED_FAMILY_PATTERNS)


def blue_flags() -> tuple[Flag, ...]:
    """Colour swaps of the red-rooted flags; the root edge is blue."""
    return tuple(
        Flag(f.graph.swap_colors(), f.roots) for f in red_flags()
    )


# -- certificate payload -------------------------------------------------------

# The positive semidefinite matrix of the certificate, entries over a common
# denominator of 128.
MATRIX_DENOMINATOR = 128
MATRIX_NUMERATORS = (
    (2, -6, -2, -3, 1, -3, 5, 6),
    (-6, 58, -3, 12, -6, 12, -47, -20),
    (-2, -3, 56, -14, -47, 11, 4, -5),
    (-3, 12, -14, 12, 10, 2, -10, -9),
    (1, -6, -47, 10, 56, -14, 2, -2),
    (-3, 12, 11, 2, -14, 12, -10, -10),
    (5, -47, 4, -10, 2, -10, 44, 12),
    (6, -20, -5, -9, -2, -10, 12, 28),
)


def matrix_rows() -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(x, MATRIX_DENOMINATOR) for x in row)
        for row in MATRIX_NUMERATORS
    )


# Linear part of the certificate: class index -> coefficient.  These equal
# the conditional densities of the target among template embeddings.
BASE_VECTOR = {
    4: Fraction(1, 6),
    9: Fraction(1, 12),
    11: Fraction(1, 12),
    12: Fraction(1, 6),
}

BOUND = Fraction(1, 64)


# -- golden expansion table ----------------------------------------------------

# For each unordered pair (i, j), i <= j, 1-based, of red-rooted flags: the
# nonzero expansion coefficients of the glued product over the 26 classes,
# as numerators over 72.  Blue flag i is red flag i colour-swapped, so each blue
# row is derived on each read: its red row on the swapped classes.  The verifier
# recomputes every entry, red and blue, so a transcription slip fails in both.
_GOLDEN_NUMERATORS_RED = {
    (1, 1): {1: 72, 2: 16, 3: 4},
    (1, 2): {2: 8, 5: 8, 8: 2},
    (1, 3): {2: 8, 3: 4, 5: 4, 6: 2},
    (1, 4): {5: 4, 8: 2, 15: 12, 16: 2},
    (1, 5): {2: 8, 3: 4, 5: 4, 6: 2},
    (1, 6): {5: 4, 8: 2, 15: 12, 16: 2},
    (1, 7): {3: 4, 6: 4, 7: 8},
    (1, 8): {8: 2, 16: 4, 18: 8},
    (2, 2): {3: 4, 8: 4, 13: 8},
    (2, 3): {3: 4, 6: 2, 8: 2, 10: 2},
    (2, 4): {6: 2, 10: 2, 16: 2, 19: 2},
    (2, 5): {3: 4, 6: 2, 8: 2, 10: 2},
    (2, 6): {6: 2, 10: 2, 16: 2, 19: 2},
    (2, 7): {4: 12, 9: 4, 11: 2},
    (2, 8): {9: 2, 17: 4, 21: 2},
    (3, 3): {5: 4, 8: 4, 10: 2},
    (3, 4): {8: 2, 13: 8, 16: 2, 19: 2},
    (3, 5): {3: 4, 4: 12, 8: 2, 9: 2},
    (3, 6): {6: 2, 9: 2, 16: 2, 17: 2},
    (3, 7): {6: 2, 9: 2, 10: 2, 11: 2},
    (3, 8): {10: 2, 17: 2, 19: 2, 21: 2},
    (4, 4): {10: 2, 19: 4, 23: 12},
    (4, 5): {6: 2, 9: 2, 16: 2, 17: 2},
    (4, 6): {7: 8, 11: 2, 18: 8, 21: 2},
    (4, 7): {9: 2, 14: 8, 17: 2, 20: 2},
    (4, 8): {11: 2, 20: 2, 21: 2, 24: 4},
    (5, 5): {5: 4, 8: 4, 10: 2},
    (5, 6): {8: 2, 13: 8, 16: 2, 19: 2},
    (5, 7): {6: 2, 9: 2, 10: 2, 11: 2},
    (5, 8): {10: 2, 17: 2, 19: 2, 21: 2},
    (6, 6): {10: 2, 19: 4, 23: 12},
    (6, 7): {9: 2, 14: 8, 17: 2, 20: 2},
    (6, 8): {11: 2, 20: 2, 21: 2, 24: 4},
    (7, 7): {7: 8, 11: 4, 12: 12},
    (7, 8): {11: 2, 20: 4, 22: 4},
    (8, 8): {12: 12, 22: 8, 25: 8},
}


def golden_numerators(family: str, i: int, j: int) -> tuple[int, ...]:
    """Published expansion of flag product (i, j): numerators over 72, class k at k - 1.

    ``family`` is "R" or "B"; indices are 1-based and order-insensitive.  A blue
    row is read through the colour swap, and every row is a new tuple.
    """
    row = _GOLDEN_NUMERATORS_RED[(i, j) if i <= j else (j, i)]
    if family != "R":
        swap = class_table().swap_involution()
        row = {swap[index]: num for index, num in row.items()}
    return tuple(map(row.get, range(1, NUM_CLASSES + 1), (0,) * NUM_CLASSES))


def golden_pairs() -> list[tuple[str, int, int]]:
    """All 72 (family, i, j) keys of the golden table, i <= j."""
    return [(fam, i, j) for fam in "RB" for (i, j) in sorted(_GOLDEN_NUMERATORS_RED)]
