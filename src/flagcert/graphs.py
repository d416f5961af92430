"""Edge-coloured graphs, isomorphism, template classification and pulled densities.

Vertices are integers 0..n-1.  Edges are unordered pairs carrying one of two
colours; absent pairs are non-edges.  A graph is stored as ``n``, its sorted
``pairs`` and its ``blue`` word, whose bit k is set when pair k is blue: the
colouring code of the template classes.  Counters read that word; ``Color``
appears only where graphs are built or shown.  Everything here is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence


class Color(enum.Enum):
    """One of the two edge colours."""

    RED = "R"
    BLUE = "B"

    @property
    def swapped(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED

    def __repr__(self) -> str:
        return self.value


_BIT_COLOR = (Color.RED, Color.BLUE)  # bit k of a colouring word -> colour of pair k


@dataclass(frozen=True, init=False, repr=False)
class ColoredGraph:
    """A loopless graph with red/blue edges and possibly missing pairs.

    ``n`` and the endpoints are plain ints (not bools).  ``edges`` may be any
    iterable of ``(u, v, Color)``.  The graph stores ``n``, the sorted tuple
    ``pairs`` of present ``(u, v)`` with ``u < v``, and the int ``blue``
    whose bit k is set when pair k is blue (its colouring code); ``edges`` is
    the sorted ``(u, v, Color)`` tuple derived from them.  Equality and
    hashing are structural.
    """

    __slots__ = ("n", "pairs", "blue", "_hash")
    n: int
    pairs: tuple[tuple[int, int], ...]
    blue: int

    def __init__(self, n: int, edges: Iterable[tuple[int, int, Color]] = ()):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {n!r}")
        bit: dict[tuple[int, int], str] = {}  # pair -> "1" when blue, else "0"
        for u, v, c in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r},{v!r}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not isinstance(c, Color):
                raise ValueError(f"edge ({u},{v}) colour must be a Color")
            key = (u, v) if u < v else (v, u)
            if key in bit:
                raise ValueError(f"duplicate edge {key}")
            bit[key] = "1" if c is Color.BLUE else "0"
        pairs = tuple(sorted(bit))
        # one base-2 parse, last pair first, keeps large hosts linear
        blue = int("0" + "".join([bit[p] for p in reversed(pairs)]), 2)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "blue", blue)
        object.__setattr__(self, "_hash", hash((n, pairs, blue)))

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int, Color], ...]:
        """The sorted ``(u, v, Color)`` triples, ``u < v``."""
        bits = format(self.blue, f"0{len(self.pairs)}b")[::-1]  # bit k first, linear in the pairs
        return tuple((u, v, _BIT_COLOR[b == "1"]) for (u, v), b in zip(self.pairs, bits))

    def edge_color(self, u: int, v: int) -> Optional[Color]:
        k = next((k for k, pair in enumerate(self.pairs) if pair in ((u, v), (v, u))), None)
        return None if k is None else _BIT_COLOR[(self.blue >> k) & 1]

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def is_clique(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    # -- derived graphs ---------------------------------------------------

    def swap_colors(self) -> "ColoredGraph":
        return ColoredGraph(self.n, ((u, v, c.swapped) for u, v, c in self.edges))

    # -- dunder -----------------------------------------------------------

    def __hash__(self) -> int:
        # cached: every expansion and product lookup hashes graphs
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{u}{v}:{c.value}" for u, v, c in self.edges)
        return f"ColoredGraph(n={self.n}, [{body}])"


@dataclass(frozen=True, slots=True)
class Flag:
    """A coloured graph with an ordered tuple of distinct root vertices, each a plain int."""

    graph: ColoredGraph
    roots: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        roots = tuple(self.roots)
        for r in roots:
            if type(r) is not int or not 0 <= r < self.graph.n:
                raise ValueError(f"root {r!r} is not a vertex of the {self.graph.n}-vertex graph")
        if len(set(roots)) != len(roots):
            raise ValueError("duplicate root indices")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_hash", hash((self.graph, roots)))

    def __hash__(self) -> int:
        # cached: every flag_product lookup hashes both flags
        return self._hash


# -- constructions ---------------------------------------------------------


def complete_bipartite(a: int, b: int) -> ColoredGraph:
    """K_{a,b} with part {0..a-1} against part {a..a+b-1}, every edge red."""
    return ColoredGraph(
        a + b, ((u, a + w, Color.RED) for u in range(a) for w in range(b))
    )


def alternating_cycle(length: int = 6) -> ColoredGraph:
    """The even cycle whose every vertex meets one red and one blue edge."""
    if length < 4 or length % 2:
        raise ValueError("alternating cycle length must be even and >= 4")
    edges = []
    for i in range(length):
        j = (i + 1) % length
        u, v = (i, j) if i < j else (j, i)
        edges.append((u, v, Color.RED if i % 2 == 0 else Color.BLUE))
    return ColoredGraph(length, edges)


# -- automorphisms ----------------------------------------------------------

# Largest pattern or certificate graph on which anything here searches by brute
# force: the automorphism search (8! maps), count tables, pulled densities, the
# batched kernel (Bell(8) = 4140 quotients), and the certificate loader's cap.
MAX_PATTERN_N = 8
# Most template pairs whose 2^pairs colourings are listed or tabulated.
MAX_TABLE_PAIRS = 16


def pair_actions(maps: Iterable[Sequence[int]], edges: Sequence, pairs: Sequence) -> list:
    """Where each vertex map sends each edge, as positions in ``pairs``.

    Returns ``(map, row)``, in input order, for every map that sends each
    edge (u, v) onto a pair: ``row[e]`` is the position in ``pairs`` of the
    image of edge e.  A map sending some edge off the pairs gets no row.
    """
    position = {}
    for k, (u, v) in enumerate(pairs):
        position[u, v] = position[v, u] = k
    out = []
    for m in maps:
        row = [position.get((m[u], m[v])) for u, v in edges]
        if None not in row:
            out.append((m, row))
    return out


def shape_maps(k: int, shape: Sequence, n: int, pairs: Sequence, pinned: Sequence = ()) -> list:
    """Injective maps of a k-vertex edge shape onto host pairs, as pair positions.

    The host has vertices 0..n-1 and the labelled ``pairs``.  Every map of
    0..k-1 into the host that sends each edge of ``shape`` onto a pair, and
    each pinned (shape vertex, host vertex) as given, yields the row of
    ``pair_actions``: entry e is the position in ``pairs`` of edge e's image.
    A shape with no such map is refused here, for every reader; the readers
    cache what they build from the rows, one entry per shape.
    """
    maps = (m for m in permutations(range(n), k) if all(m[a] == b for a, b in pinned))
    rows = [row for _, row in pair_actions(maps, shape, pairs)]
    if not rows:
        raise ValueError("pattern does not embed in the template")
    return rows


# The verifier reads the 26 class codes per edge shape (the builtin's 73
# patterns have two), t_bip one code; 64 bounds what a long process holds.
@lru_cache(maxsize=64)
def _pulled_counts(k: int, shape: tuple, n: int, pairs: tuple, codes: tuple) -> tuple:
    """Maps of a k-vertex edge shape onto host pairs, and per code the words they pull it to."""
    rows = shape_maps(k, shape, n, pairs)
    return len(rows), tuple(Counter(_pull(code, row) for row in rows) for code in codes)


def _pull(code: int, row: Sequence[int]) -> int:
    """The word whose bit e is bit ``row[e]`` of ``code``: the code pulled back along a row."""
    word = 0
    for e, p in enumerate(row):
        if code >> p & 1:
            word |= 1 << e
    return word


def pulled_densities(h: ColoredGraph, n: int, pairs: Sequence, codes: Sequence[int]) -> tuple:
    """Maps of pattern ``h`` into a small labelled host, and per colouring the matches.

    The host has vertices 0..n-1 and the sorted ``pairs``; a colouring of
    them is a code whose bit k is set when pair k is blue, as in a graph's
    ``blue`` word.  A map of h's edge shape onto the pairs, with row
    ``row`` (see ``shape_maps``), pulls a code back to the word whose bit e
    is bit row[e] of the code.  Returns ``(maps, counts)``: the number of
    maps, and per code in ``codes`` the number that pull it back to
    ``h.blue``, so h's density in that colouring is count / maps.  Hosts over
    ``MAX_PATTERN_N`` vertices are refused before any enumeration, and
    ``shape_maps`` refuses a pattern with no map.
    """
    if n > MAX_PATTERN_N:
        raise ValueError(f"host with {n} vertices rejected: limit is {MAX_PATTERN_N} vertices")
    maps, counts = _pulled_counts(h.n, h.pairs, n, tuple(pairs), tuple(codes))
    return maps, tuple(words.get(h.blue, 0) for words in counts)


def underlying_automorphisms(g: ColoredGraph) -> list[tuple[int, ...]]:
    """All vertex permutations preserving adjacency, colours ignored.

    Exhaustive over all n! permutations, each kept when it sends every pair
    onto a pair; guarded to keep the factorial search honest.
    """
    if g.n > MAX_PATTERN_N:
        raise ValueError(f"brute-force automorphism search limited to n <= {MAX_PATTERN_N}")
    return [perm for perm, _ in pair_actions(permutations(range(g.n)), g.pairs, g.pairs)]


# -- canonical forms and classification -------------------------------------

def canonical_form(g: ColoredGraph, group: Sequence[Sequence[int]]) -> tuple:
    """Lexicographically least encoding of ``g`` over the permutation group."""
    best = None
    for perm in group:
        code = sorted(
            (((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])), (g.blue >> k) & 1)
            for k, (u, v) in enumerate(g.pairs)
        )
        if best is None or code < best:
            best = code
    return tuple(best) if best is not None else ()


def enumerate_template_colorings(template: ColoredGraph) -> list[ColoredGraph]:
    """All 2^e red/blue colourings of the template's pair set.

    Deterministic order: pairs sorted, colouring index read as bits with
    red for 0, so index 0 is the all-red colouring.
    """
    pairs = template.pairs
    if len(pairs) > MAX_TABLE_PAIRS:
        raise ValueError(f"template has more than {MAX_TABLE_PAIRS} edges; enumeration refused")
    return [
        ColoredGraph(
            template.n, ((u, v, _BIT_COLOR[(index >> k) & 1]) for k, (u, v) in enumerate(pairs))
        )
        for index in range(1 << len(pairs))
    ]


@dataclass(frozen=True, slots=True)
class ClassEntry:
    """One isomorphism class: published index, representative, symmetries."""

    index: int
    representative: ColoredGraph
    aut_count: int
    multiplicity: int


@dataclass(frozen=True, slots=True, eq=False)
class ClassTable:
    """Isomorphism classes of template colourings, in a fixed reference order.

    Built by ``classify``; read-only, hashed by identity.  The read-only
    ``lookup`` sends the colouring code (the ``blue`` word) of every
    classified colouring of the template's ``n`` vertices and ``pairs`` to
    its class index.  The table owns the pattern expansions over its classes.
    """

    classes: tuple[ClassEntry, ...]
    lookup: Mapping[int, int]
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.classes)

    @property
    def indices(self) -> range:
        return range(1, len(self.classes) + 1)

    def representative(self, index: int) -> ColoredGraph:
        return self.classes[index - 1].representative

    def multiplicity(self, index: int) -> int:
        return self.classes[index - 1].multiplicity

    def class_of(self, g: ColoredGraph) -> Optional[int]:
        """Class index of a colouring of the template; None for any other graph."""
        if (g.n, g.pairs) != (self.n, self.pairs):
            return None
        return self.lookup.get(g.blue)

    # A certificate's 73 patterns (its target and 72 flag products, the builtin's with 260
    # nonzero counts of 72 * 26) and the golden check's: 256 keeps both, bounds a long process.
    @lru_cache(maxsize=256)
    def expansion(self, p: ColoredGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``pulled_densities`` of ``p`` at the class codes, as read-only ints ``(maps,
        ((index, count), ...))``: each class index with a nonzero count, ascending."""
        codes = tuple(e.representative.blue for e in self.classes)
        maps, counts = pulled_densities(p, self.n, self.pairs, codes)
        return maps, tuple((index, c) for index, c in zip(self.indices, counts) if c)

    def swap_involution(self) -> dict[int, int]:
        """Index map induced by swapping every edge colour of a representative."""
        return {
            e.index: self.class_of(e.representative.swap_colors())
            for e in self.classes
        }


def classify(
    colorings: Sequence[ColoredGraph | int],
    group: Sequence[Sequence[int]],
    reference: Sequence[ColoredGraph],
) -> ClassTable:
    """Partition colourings into isomorphism orbits, aligned to ``reference``.

    The template is the vertex count and pair set of the first reference
    representative.  Each colouring is a graph on that template or already
    its colouring code (its ``blue`` word), so ``range(2 ** len(pairs))``
    lists every colouring with no graph built.  The group acts on pair
    positions, pulling codes back as the density engine does; it is closed
    under inverses, so the orbits are the pulled images of the reference
    codes, in the published class order, and each must contain exactly one
    reference representative and at least one colouring.  A class's multiplicity is
    the number of colourings in its orbit, cross-checked against the
    orbit-stabilizer count |group| / aut, where aut counts the group
    elements fixing the representative's code.
    """
    n, pairs = (reference[0].n, reference[0].pairs) if reference else (0, ())
    actions = [row for _, row in pair_actions(group, pairs, pairs)]
    if len(actions) != len(group):
        raise ValueError("group elements must preserve the template pairs")

    lookup: dict[int, int] = {}  # code -> class index of its orbit
    fixed = []  # per representative: index, graph, group elements fixing it
    for pos, rep in enumerate(reference):
        if (rep.n, rep.pairs) != (n, pairs):
            raise ValueError("reference representatives do not match the computed orbits")
        code = rep.blue
        if code in lookup:
            raise ValueError(f"reference representatives {lookup[code] - 1} and {pos} are isomorphic")
        images = [_pull(code, a) for a in actions]
        for image in images:
            lookup[image] = pos + 1
        fixed.append((pos + 1, rep, images.count(code)))

    # a graph off the template gets code -1, which the range check refuses
    codes = [g if isinstance(g, int) else g.blue if (g.n, g.pairs) == (n, pairs) else -1
             for g in colorings]
    if not all(0 <= code < 1 << len(pairs) for code in codes):
        raise ValueError("colourings must share one vertex count and pair set")
    multiplicity = Counter(lookup.get(code) for code in codes)  # by class index
    # least code of each orbit without a reference representative
    others = {min(_pull(code, a) for a in actions) for code in codes if code not in lookup}
    entries = tuple(ClassEntry(k, rep, aut, multiplicity[k]) for k, rep, aut in fixed)
    if not all(e.multiplicity for e in entries):
        raise ValueError("reference representatives do not match the computed orbits")
    if others:
        raise ValueError(
            f"found {len(reference) + len(others)} isomorphism classes, "
            f"reference lists {len(reference)}"
        )
    for e in entries:
        if e.multiplicity * e.aut_count != len(actions):
            raise ValueError(
                f"orbit of class {e.index}: size {e.multiplicity} * aut {e.aut_count} "
                f"!= {len(actions)}"
            )
    return ClassTable(entries, MappingProxyType(lookup), n, pairs)
