"""Computations the benchmark makes for itself to check flagcert's outputs.

Nothing here imports flagcert: each value is derived from the definitions in
PAPER.md and from the documented input scheme (splitmix64 pair colours), so a
fault in the program cannot also hide in its check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TRIAL_SALT = 0xD1342543DE82EF95
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


# -- seeded colourings ---------------------------------------------------------


def splitmix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def trial_seed(seed: int, trial: int) -> int:
    """Master seed of Monte Carlo trial ``trial`` of a run seeded ``seed``."""
    return splitmix64((seed ^ TRIAL_SALT) + (trial + 1) * GOLDEN)


def clique_bits(n: int, seed: int) -> list[list[int]]:
    """Colour matrix of the seeded clique: 0 red, 1 blue, pairs in row order.

    Pair k of the sorted pair list (u < v) is blue when bit 0 of
    splitmix64(seed + (k + 1) * golden) is set.
    """
    bits = [[0] * n for _ in range(n)]
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            bit = splitmix64(seed + (k + 1) * GOLDEN) & 1
            bits[u][v] = bits[v][u] = bit
            k += 1
    return bits


def clique_bits_np(n: int, seed: int) -> np.ndarray:
    """The same colour matrix as ``clique_bits``, vectorised (diagonal 0)."""
    k = np.arange(1, n * (n - 1) // 2 + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & MASK64) + k * np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    z ^= z >> np.uint64(31)
    bits = np.zeros((n, n), dtype=np.int64)
    uu, vv = np.triu_indices(n, k=1)
    bits[uu, vv] = (z & np.uint64(1)).astype(np.int64)
    bits[vv, uu] = bits[uu, vv]
    return bits


# -- the alternating 6-cycle count ---------------------------------------------
#
# Trace identity (stated in flagcert's counting module): every closed
# red-blue walk of length 6 is injective or merges one antipodal pair, so
#   inj = tr((RB)^3) - 3 * sum_v (RBR)_vv (BRB)_vv.


def falling_factorial(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def c6_count_int(bits: list[list[int]]) -> int:
    """Injective alternating-6-cycle count with Python ints (small hosts)."""
    n = len(bits)
    red = [[int(u != v and not bits[u][v]) for v in range(n)] for u in range(n)]
    blue = [[bits[u][v] for v in range(n)] for u in range(n)]
    rb = _matmul(red, blue)
    rbrb = _matmul(rb, rb)
    walks = sum(rbrb[u][w] * rb[w][u] for u in range(n) for w in range(n))
    rbr = _matmul(rb, red)
    brb = _matmul(_matmul(blue, red), blue)
    return walks - 3 * sum(rbr[v][v] * brb[v][v] for v in range(n))


def c6_count_exact(bits: np.ndarray) -> int:
    """The same count for large hosts, exact through float64 products.

    Entries of RB are at most n and those of (RB)^2 at most n^3, so both are
    exact in float64 while n^3 < 2^53; products of entries are then formed
    in int64 (at most n^4), summed per row (at most n^5 < 2^63) and the rows
    added as Python ints.
    """
    n = bits.shape[0]
    if n ** 5 >= 2 ** 63:
        raise ValueError(f"host with {n} vertices is too large for exact counting")
    blue = bits.astype(np.float64)
    red = 1.0 - blue
    np.fill_diagonal(red, 0.0)
    rb = red @ blue
    rb2 = rb @ rb
    rb_i = rb.astype(np.int64)
    walks = sum(int(x) for x in (rb2.astype(np.int64) * rb_i.T).sum(axis=1))
    rbr = np.einsum("ij,ji->i", rb, red).astype(np.int64)
    brb = np.einsum("ij,ji->i", blue @ red, blue).astype(np.int64)
    return walks - 3 * sum(int(x) for x in rbr * brb)


def c6_density(n: int, seed: int) -> Fraction:
    """Injective density of the alternating 6-cycle in the seeded clique."""
    bits = clique_bits(n, seed) if n <= 24 else clique_bits_np(n, seed)
    count = c6_count_int(bits) if n <= 24 else c6_count_exact(bits)
    return Fraction(count, falling_factorial(n, 6))


# -- the 3+3 template under its symmetries ---------------------------------------

LEFT, RIGHT = (0, 1, 2), (3, 4, 5)
TEMPLATE_PAIRS = tuple((u, v) for u in LEFT for v in RIGHT)  # bit k = pair k


def template_group() -> list[tuple[int, ...]]:
    """Vertex permutations of K_{3,3} that preserve adjacency."""
    adjacent = set(TEMPLATE_PAIRS) | {(v, u) for u, v in TEMPLATE_PAIRS}
    return [
        p
        for p in permutations(range(6))
        if all((p[u], p[v]) in adjacent for u, v in TEMPLATE_PAIRS)
    ]


def _pair_permutation(p: tuple[int, ...]) -> list[int]:
    index = {pair: k for k, pair in enumerate(TEMPLATE_PAIRS)}
    out = []
    for u, v in TEMPLATE_PAIRS:
        a, b = p[u], p[v]
        out.append(index[(a, b) if a < b else (b, a)])
    return out


def burnside_class_count(group) -> int:
    """Orbits of the 2^9 colourings: the mean of 2^(pair cycles) over the group."""
    total = 0
    for p in group:
        perm, seen, cycles = _pair_permutation(p), set(), 0
        for start in range(len(perm)):
            if start not in seen:
                cycles += 1
                k = start
                while k not in seen:
                    seen.add(k)
                    k = perm[k]
        total += 2 ** cycles
    if total % len(group):
        raise AssertionError("Burnside sum is not a multiple of the group order")
    return total // len(group)


def orbit_sizes(group) -> list[int]:
    """Sorted sizes of the orbits of the 512 nine-bit colour codes."""
    perms = [_pair_permutation(p) for p in group]
    nbits = len(TEMPLATE_PAIRS)
    orbit_of: dict[int, int] = {}
    sizes: dict[int, int] = {}
    for code in range(1 << nbits):
        if code in orbit_of:
            continue
        orbit = {
            sum(1 << perm[k] for k in range(nbits) if code >> k & 1) for perm in perms
        }
        for member in orbit:
            orbit_of[member] = code
        sizes[code] = len(orbit)
    return sorted(sizes.values())
