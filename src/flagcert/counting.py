"""Exact homomorphism counting and the density functionals built on it.

Two exact counters live here.  ``subcube_count_table`` counts a pattern in
every colouring of a small labelled host at once.  Each injective map of the
pattern's edges onto host pairs matches the colourings of one subcube: its
free colourings, built once per edge shape as a uint16 host index, plus the
bits of its blue pairs.  One bincount adds them into an integer table over
all 2^pairs colourings, and pinned pattern vertices give rooted counts.  The
exhaustive sweep reads its counts from these tables; ``t_bip`` and the
expansions count the same maps in Python ints (``graphs.pulled_densities``).

``hom_inj_batch`` counts a list of patterns in one concrete host, given its
red and blue adjacency matrices, by Moebius inversion over the partition
lattice (Lovasz, *Large Networks and Graph Limits*, 5.2):

    inj(P, g) = sum over partitions pi of V(P) of mu(pi) * hom(P/pi, g),
    mu(pi) = prod over blocks B of (-1)^(|B|-1) * (|B|-1)!

A quotient P/pi whose block holds an edge of P has a loop and no
homomorphisms, so the partitions are enumerated with such blocks pruned; a
quotient that puts both colours on one pair has none either and is dropped.
Equal quotients are merged and those whose summed mu is zero dropped.
Pinned roots stay in separate blocks and become free indices, which gives
the whole rooted table at once.  Quotients that differ only in colours
share a shape and run as rows of batched ``np.einsum`` calls.  Free blocks
with one to three neighbours, no two adjacent, are summed out once per
host into side tensors S[p, q, r] = sum_a X[a, p] Y[a, q] Z[a, r] (fewer
indices for fewer neighbours): a K4 row reads one and a K3,3 row three.

Counts are int64.  A side tensor is one float64 BLAS product of 0/1
matrices, so its partial sums are integers at most n, exact.  For a
k-vertex pattern on an n-vertex host every einsum partial sum is then a
partial hom count, at most n^k, and every signed running total is at most
sum |mu(pi)| n^|pi| = n(n+1)...(n+k-1); hosts where that rising factorial
passes 2^63 - 1 (n > 1445 for six-vertex patterns), or whose side tensors
would pass 2^28 bytes, are refused.  Patterns have at most 8 vertices
(Bell(8) = 4140 partitions) on every host; on a host smaller than the
pattern the inversion sums to 0, so no caller returns early.  Densities are
`fractions.Fraction`s, never floats.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, prod

import numpy as np

from .graphs import MAX_PATTERN_N, MAX_TABLE_PAIRS, ClassTable, ColoredGraph, Flag
from .graphs import pulled_densities, shape_maps


# -- Moebius inversion over quotients ----------------------------------------

_INT64_MAX = 2**63 - 1
# Bytes of one host's side-tensor stacks, 8 (2n)^k per k read: n <= 161 when K3,3 or K4 rows read k = 3.
_SIDE_BYTES_MAX = 2**28
_LETTERS = "abcdefgh"  # one einsum index per block


@lru_cache(maxsize=64)
def _partitions(k: int, pairs: tuple[tuple[int, int], ...], pinned: tuple[int, ...]):
    """The uncoloured quotients of an edge shape: ``(shapes, masks, mus)``, one entry each.

    Partitions are restricted growth strings keeping each edge's ends, and the pinned vertices,
    apart; edge e lands on pair j of ``shapes[g]`` when bit e of ``masks[g, j]`` is set.
    """
    strings, weights = [()], Counter()
    for v in range(k):
        apart = [u for u, w in pairs if w == v] + [r for r in pinned if r < v and v in pinned]
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)
                   if all(s[u] != b for u in apart)]
    for s in strings:
        landed = [(min(s[u], s[v]), max(s[u], s[v])) for u, v in pairs]
        edges = tuple((q, sum(1 << e for e, at in enumerate(landed) if at == q))
                      for q in sorted(set(landed)))
        mu = prod((-1) ** (c - 1) * factorial(c - 1) for c in Counter(s).values())
        weights[max(s, default=-1) + 1, edges, tuple(s[r] for r in pinned)] += mu
    shapes = tuple((blocks, tuple(pair for pair, _ in edges), roots) for blocks, edges, roots in weights)
    masks = np.array([[m for _, m in edges] + [0] * (len(pairs) - len(edges)) for _, edges, _ in weights],
                     dtype=np.int64)
    masks.flags.writeable = False  # shared by every caller of the cached partitions
    return shapes, masks, tuple(weights.values())


def _quotients(h: ColoredGraph, pinned: tuple[int, ...] = ()):
    """``(shape, bits, weight)`` per quotient of ``h`` with a nonzero summed Moebius weight.

    ``shape`` is ``(blocks, pairs, roots)``: the block count, the sorted block pairs that carry an
    edge and the pinned vertices' blocks.  Pair j is red or blue as ``bits[j]`` is 0 or 1.
    """
    shapes, masks, mus = _partitions(h.n, h.pairs, pinned)
    blue = masks & h.blue
    whole = ((blue == 0) | (blue == masks)).all(axis=1)  # no pair given both colours
    weights: Counter = Counter()
    for g, bits in zip(np.flatnonzero(whole).tolist(), np.sign(blue[whole]).tolist()):
        weights[shapes[g], tuple(bits[: len(shapes[g][1])])] += mus[g]
    return tuple((shape, bits, weight) for (shape, bits), weight in weights.items() if weight)


def _contraction(blocks: int, pairs: tuple[tuple[int, int], ...], roots: tuple[int, ...]):
    """Operands, as ``(blocks, edges whose colours pick it)``, and einsum path of a quotient shape.

    Free (non-root) blocks with one to three neighbours, fewest first, none next to one taken
    before, become side tensors.  The other free blocks, the one reaching fewest blocks first,
    are each summed out in one step until one would reach more than three; a last step takes
    what is left, so intermediates hold at most three blocks.
    """
    incident = [[e for e, pair in enumerate(pairs) if b in pair] for b in range(blocks)]
    free = sorted((b for b in range(blocks) if b not in roots), key=lambda b: (len(incident[b]), b))
    sides: dict[int, tuple] = {}
    for v in free:
        ends = {u for e in incident[v] for u in pairs[e]} - {v}
        if 1 <= len(ends) <= 3 and not ends.intersection(sides):
            sides[v] = (tuple(sorted(ends)), tuple(incident[v]))  # pairs are sorted: ends' order
    terms = [(pair, (e,)) for e, pair in enumerate(pairs) if not sides.keys() & set(pair)]
    terms += [*sides.values(), *(((b,), ()) for b in range(blocks) if not incident[b])]
    live, free, path = [frozenset(t) for t, _ in terms], [b for b in free if b not in sides], []
    while free:
        reach = {v: frozenset().union(*(s for s in live if v in s)) - {v} for v in free}
        v = min(free, key=lambda b: (len(reach[b]), b))
        if len(reach[v]) > 3:
            break
        free.remove(v)
        path.append(tuple(i for i, s in enumerate(live) if v in s))
        live = [s for s in live if v not in s] + [reach[v]]
    if len(live) > 1 or free or not path:  # an empty path would skip the transpose
        path.append(tuple(range(len(live))))
    return terms, ["einsum_path", *path]


# Each host check asks for one plan (`oracle inequality --n 10 --count 4` makes
# 1 miss and 3 hits); 64 also keeps the one-pattern plans of hom_inj_count et al.
@lru_cache(maxsize=64)
def _batch_plan(patterns: tuple[tuple[ColoredGraph, tuple[int, ...]], ...], n: int):
    """The einsum calls that count ``patterns`` on an n-vertex host: ``(calls, needed)``.

    Quotients sharing a shape are its rows, equal rows merged, a call taking max(1, 2^16 // n^3)
    of them.  This is the one writer of einsum subscripts and paths: a letter per block, an
    operand per term of ``_contraction``, the roots' blocks as output, a batch index z unless a
    call has one row (numpy's matmul steps squeeze a size-1 axis by a copying reduction).  A call
    is ``(spec, kinds, picks, path, scatter)``: operand t of row r is entry ``picks[t, r]`` of
    the host's stack ``kinds[t]``, and ``scatter`` holds ``(row, pattern, weight)``; ``needed``
    lists the side tensors read.
    """
    step = max(1, 2**16 // max(n, 1) ** 3)  # rows' intermediates hold at most n^3 entries each
    groups: dict[tuple, dict[tuple[int, ...], int]] = {}
    scatter: dict[tuple[tuple, int], list[tuple[int, int, int]]] = {}
    for p, (h, roots) in enumerate(patterns):
        for shape, bits, weight in _quotients(h, roots):
            if shape[0]:  # the empty pattern's one quotient has no blocks
                rows = groups.setdefault(shape, {})
                row = rows.setdefault(bits, len(rows))
                scatter.setdefault((shape, row // step), []).append((row % step, p, weight))
    calls, needed = [], set()
    for shape, rows in groups.items():
        terms, path = _contraction(*shape)
        bits = np.array(list(rows), dtype=np.intp).T
        zero = np.zeros(len(rows), dtype=np.intp)  # the ones of a block that meets no edge
        picks = np.array([sum((bits[e] << len(edges) - 1 - i for i, e in enumerate(edges)), zero)
                          for _, edges in terms])  # an edge matrix's colour, a side tensor's code
        needed.update((len(e), c) for (t, e), cs in zip(terms, picks.tolist()) if len(t) == len(e) for c in cs)
        picks.flags.writeable = False  # shared by every caller of the cached plan
        kinds = tuple((len(t), len(edges)) for t, edges in terms)
        spec = ",".join("".join(_LETTERS[b] for b in t) for t, _ in terms) + "->"
        spec += "".join(_LETTERS[r] for r in shape[2])
        batched = "z" + spec.replace(",", ",z").replace("->", "->z")
        for start in range(0, len(rows), step):
            chunk = picks[:, start : start + step]
            call, chunk = (spec, chunk[:, 0]) if chunk.shape[1] == 1 else (batched, chunk)
            calls.append((call, kinds, chunk, path, tuple(scatter[shape, start // step])))
    return tuple(calls), tuple(sorted(needed))


def _side_tensors(colours, needed):
    """Stacks ``(k, k)`` of 2^k side tensors ``S[p, q, ...] = sum_a X[a, p] Y[a, q] ...``.

    Fills ``needed``'s ``(k, code)``, factor i blue where bit k - 1 - i of ``code`` is set.
    """
    n, floats = colours.shape[1], colours.astype(np.float64)
    sides = {(k, k): np.empty((2**k,) + (n,) * k, dtype=np.int64) for k, _ in needed}
    for k, code in needed:
        outer = np.ones((n, 1))
        for i in range(k - 1):
            outer = (outer[:, :, None] * floats[code >> (k - 1 - i) & 1][:, None]).reshape(n, n ** (i + 1))
        sides[k, k][code] = (outer.T @ floats[code & 1]).reshape((n,) * k)
    return sides


def _check_kernel_size(k: int, n: int) -> None:
    """Refuse patterns over 8 vertices and hosts whose counts could wrap int64."""
    if k > MAX_PATTERN_N:
        raise ValueError(f"pattern with {k} vertices rejected: limit is {MAX_PATTERN_N} vertices")
    if rising_factorial(n, k) > _INT64_MAX:
        limit = min(n, int(_INT64_MAX ** (1 / k)) + 1)
        while rising_factorial(limit, k) > _INT64_MAX:
            limit -= 1
        raise ValueError(f"host with {n} vertices rejected: counts of a {k}-vertex pattern "
                         f"can overflow 64-bit integers; limit is n <= {limit}")


def hom_inj_batch(patterns, red, blue) -> list:
    """Injective colour-preserving maps of each ``(h, roots)`` into one host.

    ``red`` and ``blue`` are the host's int64 0/1 adjacency matrices with
    zero diagonals.  Runs the patterns' plan for this host size on them and
    on the side tensors it reads (16 MB at n = 64), refusing hosts where those
    would pass 2^28 bytes; a call's intermediates hold at most max(2^16, n^3) entries.
    Returns one count per pattern, in order: without roots a Python int;
    with two roots the n x n int64 table whose entry [u, v] counts the maps
    sending the first root to u and the second to v, zero on the diagonal.
    ``Flag(h, roots)`` checks each item's roots; the kernel pins none or two.
    """
    n = len(red)
    patterns = tuple((h, Flag(h, roots).roots) for h, roots in patterns)
    _check_kernel_size(max((h.n for h, _ in patterns), default=0), n)
    if any(len(roots) not in (0, 2) for _, roots in patterns):
        raise ValueError("pin no roots or exactly two")
    calls, needed = _batch_plan(patterns, n)
    side_bytes = lambda m: sum(8 * (2 * m) ** k for k in {k for k, _ in needed})  # noqa: E731
    if side_bytes(n) > _SIDE_BYTES_MAX:
        limit = next(m for m in range(n, 0, -1) if side_bytes(m) <= _SIDE_BYTES_MAX)
        raise ValueError(f"host with {n} vertices rejected: its side tensors would take "
                         f"{side_bytes(n)} bytes; limit is {_SIDE_BYTES_MAX} bytes, n <= {limit}")
    # the empty pattern has one map and no quotient in the plan
    totals = [np.zeros((n, n), dtype=np.int64) if roots else int(h.n == 0) for h, roots in patterns]
    colours = np.asarray((red, blue), dtype=np.int64)
    stacks = {(2, 1): colours, (1, 0): np.ones((1, n), dtype=np.int64), **_side_tensors(colours, needed)}
    for spec, kinds, picks, path, scatter in calls:
        hom = np.einsum(spec, *(stacks[kind][pick] for kind, pick in zip(kinds, picks)), optimize=path)
        if picks.ndim == 1:
            hom = hom[None]  # a one-row call has no batch axis
        if hom.ndim == 1:
            hom = hom.tolist()  # plain counts are summed as Python ints
        for row, p, weight in scatter:
            totals[p] += weight * hom[row]
    for (_, roots), total in zip(patterns, totals):
        if roots:
            np.fill_diagonal(total, 0)
    return totals


def color_adjacency(g: ColoredGraph):
    """Red and blue int64 0/1 adjacency matrices: pair k is blue when bit k of ``g.blue`` is."""
    m = g.edge_count
    word = np.frombuffer(g.blue.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(word, count=m, bitorder="little")
    u, v = np.array(g.pairs, dtype=np.intp).reshape(m, 2).T
    red_blue = np.zeros((2, g.n, g.n), dtype=np.int64)
    red_blue[bits, u, v] = red_blue[bits, v, u] = 1
    return red_blue[0], red_blue[1]


def hom_inj_count(h: ColoredGraph, g: ColoredGraph) -> int:
    """Injective colour-preserving maps; the kernel counts 0 whenever v(g) < v(h)."""
    return hom_inj_batch([(h, ())], *color_adjacency(g))[0]


def rooted_hom_inj_count(f: Flag, g: ColoredGraph, u: int, v: int) -> int:
    """Injective colour homs of the flag pinning root 1 to u and root 2 to v."""
    _check_vertices((u, v), g.n)
    if len(f.roots) != 2:
        raise ValueError("rooted counting expects flags with two roots")
    return int(hom_inj_batch([(f.graph, f.roots)], *color_adjacency(g))[0][u, v])


def _check_vertices(vertices: tuple, n: int) -> None:
    """Refuse host vertices, the images of pinned roots, that are not distinct ints in 0..n-1."""
    for w in vertices:
        if type(w) is not int or not 0 <= w < n:
            raise ValueError(f"root {w!r} is not a vertex of the {n}-vertex host")
    if len(set(vertices)) < len(vertices):
        raise ValueError("root images must be distinct")


falling_factorial = perm  # n(n-1)...(n-k+1), which is 0 for k > n


def rising_factorial(n: int, k: int) -> int:
    """n(n+1)...(n+k-1), which is 1 for k = 0."""
    return perm(n + k - 1, k) if k else 1


def t_inj(h: ColoredGraph, g: ColoredGraph) -> Fraction:
    """Probability that a uniform injective map V(h) -> V(g) is a hom; 0 on a host smaller than h."""
    count = hom_inj_count(h, g)
    return Fraction(count, falling_factorial(g.n, h.n)) if count else Fraction(0)


def density_vector(g: ColoredGraph, table: ClassTable) -> dict[int, Fraction]:
    """All 26 class densities of a coloured clique: multiplicity times injective density.

    One ``hom_inj_batch`` call counts all the representatives; one larger
    than the host has no injective map, so its density is zero.
    """
    if not g.is_clique():
        raise ValueError("class densities are defined on cliques only")
    counts = hom_inj_batch([(e.representative, ()) for e in table.classes], *color_adjacency(g))
    return {
        e.index: Fraction(e.multiplicity * count, falling_factorial(g.n, e.representative.n))
        if count else Fraction(0)
        for e, count in zip(table.classes, counts)
    }


def t_bip(h: ColoredGraph, j: ColoredGraph) -> Fraction:
    """Conditional density of the pattern among template embeddings.

    Of the injective maps of h's edge shape onto j's pairs, the share that
    pull j's colours back to exactly h's: ``graphs.pulled_densities`` at j's
    one colouring code, so templates over 8 vertices are refused.
    """
    maps, (count,) = pulled_densities(h, j.n, j.pairs, (j.blue,))
    return Fraction(count, maps)


# -- subcube count tables -------------------------------------------------------


# `oracle exhaustive` makes 4 misses and 67 hits (verify never comes here);
# 32 keeps every key of a run and bounds what a long process holds.
@lru_cache(maxsize=32)
def _embeddings(k: int, shape: tuple, n: int, pairs: tuple, pinned: tuple[tuple[int, int], ...]):
    """The maps of ``graphs.shape_maps`` as uint16 arrays: ``(weights, index)``.

    weights[m, e] is 2^j when map m gives edge e pair j, and index[m] lists,
    ascending, the colourings zero on every pair map m covers: one doubling
    per free pair.  Shared by all colourings of a shape; uint16 holds every
    colouring of 16 pairs.  ``shape_maps`` refuses a shape with no map.
    """
    rows = shape_maps(k, shape, n, pairs, pinned)
    bit = np.uint16(1) << np.arange(len(pairs), dtype=np.uint16)
    weights = bit[np.array(rows, dtype=np.intp)]
    # distinct edges land on distinct pairs: each row sums to its mask
    free = (weights.sum(axis=1, dtype=np.uint16)[:, None] & bit) == 0
    index = np.zeros((len(rows), 1), dtype=np.uint16)
    for column in np.broadcast_to(bit, free.shape)[free].reshape(len(rows), -1).T:
        index = np.hstack([index, index + column[:, None]])
    return weights, index


def subcube_count_table(h: ColoredGraph, n: int, pairs: tuple[tuple[int, int], ...],
                        root_images: dict[int, int] | None = None) -> np.ndarray:
    """Colour-preserving injective counts of ``h`` in every colouring of a host.

    The host has vertices 0..n-1 and the labelled pairs ``pairs``; colouring
    ``x`` makes pair k blue when bit k of ``x`` is set and red otherwise.
    Returns the int64 table whose entry ``x`` equals ``hom_inj_count(h, host_x)``
    for each of the ``2**len(pairs)`` colourings: one ``bincount`` of each
    map's host index plus its blue pairs' bits.  Swapping every colour sends
    ``x`` to ``2**len(pairs) - 1 - x``, so ``h.swap_colors()`` has this table
    reversed.  ``root_images`` pins pattern vertices to host vertices, as in
    ``rooted_hom_inj_count``, and counts only those maps; ``Flag(h, keys)``
    checks its keys.  Raises ``ValueError`` when no injective map sends every
    edge of ``h`` onto a host pair.
    """
    if len(pairs) > MAX_TABLE_PAIRS or n > MAX_PATTERN_N:
        raise ValueError(f"count tables are limited to {MAX_TABLE_PAIRS} pairs on {MAX_PATTERN_N} vertices")
    if root_images:
        Flag(h, tuple(root_images))
        _check_vertices(tuple(root_images.values()), n)
    pinned = tuple(sorted(root_images.items())) if root_images else ()
    weights, index = _embeddings(h.n, h.pairs, n, tuple(pairs), pinned)
    blue = [e for e in range(h.edge_count) if (h.blue >> e) & 1]
    values = weights[:, blue].sum(axis=1, dtype=np.uint16)
    return np.bincount((index + values[:, None]).ravel(), minlength=1 << len(pairs))


# -- closed-form count of the alternating 6-cycle ------------------------------
#
# Enumerating injective maps of the alternating 6-cycle is hopeless on hosts
# with hundreds of vertices, but an exact identity saves the day.  Every
# (not necessarily injective) map counted by the alternating closed-walk
# trace is either injective or identifies exactly one antipodal vertex pair:
# identifying vertices at cycle distance 1 or 2 forces a loop or a pair that
# would need both colours at once.  Each antipodal identification yields two
# coloured triangles sharing the merged vertex, and such figures admit no
# further degenerations, so their walk counts are exact.  Hence
#
#   inj = tr((RB)^3) - 3 * sum_v (RBR)_vv (BRB)_vv
#
# with R and B the red and blue adjacency matrices.  Only RB and (RB)^2 are
# products; every other term is a diagonal of a product of two known
# matrices, diag(XY)_v = sum_k X_vk Y_kv, which costs n^2.  These are the
# four quotients that ``hom_inj_batch`` keeps for this pattern.
# Verified exhaustively against the backtracking counter on small hosts in
# the test suite.


# The largest n with (n-1)^5 <= 2^63 - 1; see alternating_hom_inj_from_matrices.
CLOSED_FORM_MAX_N = 6209


def check_closed_form_size(n: int) -> None:
    """Refuse hosts whose closed-walk counts could overflow 64-bit integers."""
    if n > CLOSED_FORM_MAX_N:
        raise ValueError(
            f"host with {n} vertices rejected: its walk counts can overflow "
            f"64-bit integers; limit is n <= {CLOSED_FORM_MAX_N}"
        )


def _int64_diagonal(x, y):
    """diag(XY) reduced in int64 from float64 operands holding integers."""
    return np.einsum("ij,ji->i", x, y, dtype=np.int64, casting="unsafe")


def alternating_hom_inj_from_matrices(red, blue) -> int:
    """Injective alternating-6-cycle count from 0/1 adjacency matrices.

    RB and (RB)^2 are float64 BLAS products; their entries are integers at
    most n and n^3 < 2^53, so both are exact.  The diagonals are summed in
    int64: ((RB)^3)_vv counts the closed alternating walks from v, at most
    (n-1)^5, and (RBR)_vv (BRB)_vv is at most (n-1)^4.  Hosts with
    (n-1)^5 > 2^63 - 1 (n > 6209) are refused before any work; the vertex
    terms are added as Python ints, so the total cannot wrap.
    """
    check_closed_form_size(red.shape[0])
    red = np.asarray(red, dtype=np.float64)
    blue = np.asarray(blue, dtype=np.float64)
    rb = red @ blue
    collapsed = _int64_diagonal(rb, red) * _int64_diagonal(blue, rb)
    del red, blue  # free the float64 copies before (RB)^2 is allocated
    walks = _int64_diagonal(rb @ rb, rb)
    return sum((walks - 3 * collapsed).tolist())


def alternating_hom_inj_count(g: ColoredGraph) -> int:
    """Exact injective count of the alternating 6-cycle in any host."""
    return alternating_hom_inj_from_matrices(*color_adjacency(g))

