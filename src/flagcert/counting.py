"""Exact homomorphism counting and the density functionals built on it.

Two exact counters live here.  ``subcube_count_table`` counts a pattern in
every colouring of a small labelled host at once: each injective map of the
pattern's edges onto host pairs fixes the colours of the pairs it covers, so
it matches exactly the colourings in one subcube, and adding the subcubes
gives an integer table over all 2^pairs colourings; pinning pattern
vertices to host vertices gives rooted counts the same way.  The exhaustive
sweep reads its counts from these tables; ``t_bip`` and the verifier's
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
the whole rooted table at once.  Quotients of all the patterns that differ
only in which colour each edge reads share a shape, and so an einsum spec,
and are counted in batched ``np.einsum`` calls: the 656 quotients of the
oracle's 99 identity patterns need 33 specs.  One plan per pattern list and
host size lists the calls; each oracle host check and ``density_vector``
runs one.

Counts are int64.  For a k-vertex pattern on an n-vertex host every einsum
partial sum is a partial hom count, at most n^k, and every signed running
total is at most sum |mu(pi)| n^|pi| = n(n+1)...(n+k-1); hosts where that
rising factorial passes 2^63 - 1 are refused (n <= 1445 for six-vertex
patterns).  Patterns are limited to 8 vertices (Bell(8) = 4140 partitions).
All densities are `fractions.Fraction` values and never touch floating
point.
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
_LETTERS = "abcdefgh"  # one einsum index per block


def _quotients(h: ColoredGraph, pinned: tuple[int, ...] = ()):
    """Quotient records of ``h``: each quotient's shape, colours and summed Moebius weight.

    Partitions of V(h) are enumerated as restricted growth strings, pruning
    a branch as soon as a block holds an edge or a pair of blocks needs both
    colours; pinned vertices stay in separate blocks.  Returns ``(shape,
    bits, weight)`` triples with a nonzero weight: ``shape`` is ``(blocks,
    pairs, roots)``, the block count, the sorted block pairs that carry an
    edge and the blocks of the pinned vertices in pinned order, and
    ``bits[k]`` is pair k's colour (0 red, 1 blue).
    """
    earlier: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
    for k, (u, v) in enumerate(h.pairs):
        earlier[v].append((u, (h.blue >> k) & 1))
    block = [0] * h.n
    weights: dict = {}

    def place(v: int, blocks: int, colours: dict) -> None:
        if v == h.n:
            mu = prod((-1) ** (s - 1) * factorial(s - 1) for s in Counter(block).values())
            key = (blocks, tuple(sorted(colours.items())), tuple(block[r] for r in pinned))
            weights[key] = weights.get(key, 0) + mu
            return
        for b in range(blocks + 1):
            if v in pinned and any(block[r] == b for r in pinned if r < v):
                continue
            grown = dict(colours)
            for w, bit in earlier[v]:
                pair = (block[w], b) if block[w] < b else (b, block[w])
                if block[w] == b or grown.setdefault(pair, bit) != bit:
                    break
            else:
                block[v] = b
                place(v + 1, max(blocks, b + 1), grown)

    place(0, 0, {})
    return tuple(
        ((blocks, tuple(pair for pair, _ in edges), roots), tuple(bit for _, bit in edges), weight)
        for (blocks, edges, roots), weight in weights.items()
        if weight
    )


# Rows of one batched einsum hold at most this many entries in all: each row's
# intermediates are kept to n^3, so a call batches max(1, 2^16 // n^3) rows.
_BATCH_ENTRIES = 2**16


# Each host check asks for one plan: `oracle inequality --n 10 --count 4`
# makes 1 miss and 3 hits.  64 also keeps the one-pattern plans of
# hom_inj_count et al. on a few host sizes.
@lru_cache(maxsize=64)
def _batch_plan(patterns: tuple[tuple[ColoredGraph, tuple[int, ...]], ...], n: int):
    """The einsum calls that count ``patterns`` on an n-vertex host.

    Quotients sharing a shape are its rows, equal rows merged; a call takes
    at most max(1, 2^16 // n^3) rows.  This is the one place that writes
    einsum subscripts: a letter per block, an edge term per block pair, a
    ones term per block that meets no edge, the roots' blocks as output.
    Returns ``(spec, bits, ones, path, scatter)`` per call: ``spec`` has a
    batch index z on every term and the output unless the call has one row
    (numpy's matmul steps squeeze a size-1 axis by a copying reduction);
    ``bits[k]`` is edge term k's colour (0 red, 1 blue) per row, a scalar
    for one row; ``ones`` serve blocks that meet no edge; ``path`` is the
    greedy order with n^3 intermediates per row (numpy's default leaves
    K3,3 quotients no order better than n^6), planned once per spec and
    call size; ``scatter`` holds ``(row, pattern, weight)``.  The empty
    pattern's one quotient, the shape with no blocks, is left out.
    """
    step = max(1, _BATCH_ENTRIES // max(n, 1) ** 3)
    groups: dict[tuple, dict[tuple[int, ...], int]] = {}
    scatter: dict[tuple[tuple, int], list[tuple[int, int, int]]] = {}
    for p, (h, roots) in enumerate(patterns):
        for shape, bits, weight in _quotients(h, roots):
            if shape[0]:
                rows = groups.setdefault(shape, {})
                row = rows.setdefault(bits, len(rows))
                scatter.setdefault((shape, row // step), []).append((row % step, p, weight))
    paths: dict[tuple[str, int], list] = {}
    out = []
    for shape, rows in groups.items():
        blocks, pairs, roots = shape
        isolated = sorted(set(range(blocks)).difference(*pairs))
        terms = [_LETTERS[a] + _LETTERS[b] for a, b in pairs] + [_LETTERS[a] for a in isolated]
        output = "".join(_LETTERS[r] for r in roots)
        spec = ",".join(terms) + "->" + output
        batched = ",".join("z" + t for t in terms) + "->z" + output
        bits = np.array(list(rows), dtype=np.intp).T
        bits.flags.writeable = False  # shared by every caller of the cached plan
        for start in range(0, len(rows), step):
            chunk = bits[:, start : start + step]
            size = chunk.shape[1]
            call, chunk = (spec, chunk[:, 0]) if size == 1 else (batched, chunk)
            shapes = [chunk.shape[1:] + (n,) * len(t) for t in terms]
            if (call, size) not in paths:
                dummies = [np.broadcast_to(np.int64(0), dims) for dims in shapes]
                paths[call, size] = np.einsum_path(call, *dummies, optimize=("greedy", size * n**3))[0]
            ones = tuple(np.broadcast_to(np.int64(1), dims) for dims in shapes[len(pairs) :])
            out.append((call, chunk, ones, paths[call, size], tuple(scatter[shape, start // step])))
    return tuple(out)


def _check_kernel_size(k: int, n: int) -> None:
    """Refuse patterns over 8 vertices and hosts whose counts could wrap int64."""
    if k > MAX_PATTERN_N:
        raise ValueError(
            f"pattern with {k} vertices rejected: limit is {MAX_PATTERN_N} vertices"
        )
    if rising_factorial(n, k) > _INT64_MAX:
        limit = min(n, int(_INT64_MAX ** (1 / k)) + 1)
        while rising_factorial(limit, k) > _INT64_MAX:
            limit -= 1
        raise ValueError(
            f"host with {n} vertices rejected: counts of a {k}-vertex pattern "
            f"can overflow 64-bit integers; limit is n <= {limit}"
        )


def hom_inj_batch(patterns, red, blue) -> list:
    """Injective colour-preserving maps of each ``(h, roots)`` into one host.

    ``red`` and ``blue`` are the host's int64 0/1 adjacency matrices with
    zero diagonals.  Runs the patterns' plan for this host size: row r of a
    call reads, for each edge term, the red or blue matrix as its colour bit
    says, and a call's intermediates hold at most max(2^16, n^3) entries.
    Returns one count per pattern, in order: without roots a Python int;
    with two roots the n x n int64 table whose entry [u, v] counts the maps
    sending the first root to u and the second to v, zero on the diagonal.
    ``Flag(h, roots)`` checks each item's roots; the kernel pins none or two.
    """
    red = np.asarray(red, dtype=np.int64)
    blue = np.asarray(blue, dtype=np.int64)
    n = red.shape[0]
    patterns = tuple((h, Flag(h, roots).roots) for h, roots in patterns)
    _check_kernel_size(max((h.n for h, _ in patterns), default=0), n)
    if any(len(roots) not in (0, 2) for _, roots in patterns):
        raise ValueError("pin no roots or exactly two")
    # the empty pattern has one map and no quotient in the plan
    totals = [np.zeros((n, n), dtype=np.int64) if roots else int(h.n == 0) for h, roots in patterns]
    colours = np.stack([red, blue])
    for spec, bits, ones, path, scatter in _batch_plan(patterns, n):
        hom = np.einsum(spec, *colours[bits], *ones, optimize=path)
        if bits.ndim == 1:
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
    """Injective colour-preserving maps; 0 whenever v(g) < v(h)."""
    if g.n < h.n:
        return 0
    return hom_inj_batch([(h, ())], *color_adjacency(g))[0]


def rooted_hom_inj_count(f: Flag, g: ColoredGraph, u: int, v: int) -> int:
    """Injective colour homs of the flag pinning root 1 to u and root 2 to v."""
    _check_vertices((u, v), g.n)
    if u == v:
        raise ValueError("root images must be distinct")
    if len(f.roots) != 2:
        raise ValueError("rooted counting expects flags with two roots")
    if g.n < f.graph.n:
        return 0
    return int(hom_inj_batch([(f.graph, f.roots)], *color_adjacency(g))[0][u, v])


def _check_vertices(vertices, n: int) -> None:
    """Refuse host vertices, the images of pinned roots, that are not ints in 0..n-1."""
    for w in vertices:
        if type(w) is not int or not 0 <= w < n:
            raise ValueError(f"root {w!r} is not a vertex of the {n}-vertex host")


falling_factorial = perm  # n(n-1)...(n-k+1), which is 0 for k > n


def rising_factorial(n: int, k: int) -> int:
    """n(n+1)...(n+k-1), which is 1 for k = 0."""
    return perm(n + k - 1, k) if k else 1


def t_inj(h: ColoredGraph, g: ColoredGraph) -> Fraction:
    """Probability that a uniform injective map V(h) -> V(g) is a hom."""
    if g.n < h.n:
        return Fraction(0)
    return Fraction(hom_inj_count(h, g), falling_factorial(g.n, h.n))


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


def _subcube_members(mask: int, bits: int) -> np.ndarray:
    """Every ``x < 2**bits`` with ``x & mask == 0``, ascending.

    Adding a value ``v`` inside ``mask`` gives the subcube of colourings whose
    bits under ``mask`` read ``v``.
    """
    arr = np.zeros(1, dtype=np.int64)
    for b in range(bits):
        if not (mask >> b) & 1:
            arr = np.concatenate([arr, arr + (1 << b)])
    return arr


# `oracle exhaustive` makes 4 misses and 111 hits (verify never comes here);
# 32 keeps every key of a run and bounds what a long process holds.
@lru_cache(maxsize=32)
def _embeddings(
    k: int,
    shape: tuple[tuple[int, int], ...],
    n: int,
    pairs: tuple[tuple[int, int], ...],
    pinned: tuple[tuple[int, int], ...],
):
    """The maps of ``graphs.shape_maps`` as arrays, with their free colourings.

    Returns (positions, free, inverse): positions[m, e] is the pair index
    that map m gives edge e, and free[inverse[m]] lists the colourings that
    are zero on every pair map m covers.  Shared by all colourings of a shape.
    """
    rows = shape_maps(k, shape, n, pairs, pinned)
    positions = np.array(rows, dtype=np.int64).reshape(len(rows), len(shape))
    # distinct edges land on distinct pairs, so each row sums to its mask
    masks, inverse = np.unique(
        (np.int64(1) << positions).sum(axis=1), return_inverse=True
    )
    free = np.array([_subcube_members(int(m), len(pairs)) for m in masks])
    return positions, free, inverse.reshape(-1)


def subcube_count_table(
    h: ColoredGraph,
    n: int,
    pairs: tuple[tuple[int, int], ...],
    root_images: dict[int, int] | None = None,
) -> np.ndarray:
    """Colour-preserving injective counts of ``h`` in every colouring of a host.

    The host has vertices 0..n-1 and the labelled pairs ``pairs``; colouring
    ``x`` makes pair k blue when bit k of ``x`` is set and red otherwise.
    Returns the table whose entry ``x`` equals ``hom_inj_count(h, host_x)``
    for each of the ``2**len(pairs)`` colourings.  ``root_images`` pins
    pattern vertices to host vertices, as in ``rooted_hom_inj_count``, and
    counts only those maps; ``Flag(h, keys)`` checks its keys.  Raises
    ``ValueError`` when no injective map sends every edge of ``h`` onto a
    host pair.
    """
    if len(pairs) > MAX_TABLE_PAIRS or n > MAX_PATTERN_N:
        raise ValueError(
            f"count tables are limited to {MAX_TABLE_PAIRS} pairs on "
            f"{MAX_PATTERN_N} vertices"
        )
    if root_images:
        Flag(h, tuple(root_images))
        _check_vertices(root_images.values(), n)
    pinned = tuple(sorted(root_images.items())) if root_images else ()
    positions, free, inverse = _embeddings(h.n, h.pairs, n, tuple(pairs), pinned)
    if not len(positions):
        raise ValueError("pattern does not embed in the template")
    blue = [e for e in range(h.edge_count) if (h.blue >> e) & 1]
    values = (np.int64(1) << positions[:, blue]).sum(axis=1)
    return np.bincount((free[inverse] + values[:, None]).ravel(), minlength=1 << len(pairs))


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

