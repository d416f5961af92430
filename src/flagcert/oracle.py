"""Independent brute-force confirmation of the certificate's identities.

Everything here recomputes both sides of each identity from first
principles on concrete hosts: class densities by exact injective counting,
product densities by counting the glued graphs, the flagged inequality by
assembling rooted-count vectors and quadratic forms, each check one integer
equation over its own denominators.  Randomness is a deterministic function
of a 64-bit seed and an index, so results never depend on iteration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from .counting import (
    alternating_hom_inj_from_matrices,
    check_closed_form_size,
    color_adjacency,
    falling_factorial,
    hom_inj_batch,
    subcube_count_table,
)
from .graphs import Color, ColoredGraph, Flag, pair_actions

# -- deterministic randomness ---------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TRIAL_SALT = 0xD1342543DE82EF95


def mix64(z):
    """The one splitmix64 finalizer: of an int mod 2**64, or in place on a uint64 array."""
    z &= _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def stream_value(seed: int, index):
    """Value ``index`` of the seed's stream: mix64(seed + (index + 1) * golden), all mod 2**64.

    ``index`` is an int, giving an int, or a uint64 array, giving the uint64
    array of the values at its entries.
    """
    if isinstance(index, int):
        return mix64(seed + (index + 1) * _GOLDEN)
    z = index + np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    return mix64(z)


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial master seeds for Monte Carlo runs: the stream of the salted seed."""
    return stream_value(seed ^ _TRIAL_SALT, trial)


def random_clique_coloring(n: int, seed: int) -> ColoredGraph:
    """Clique on n vertices, each pair red or blue with probability 1/2.

    Pair k (in sorted order) is coloured by bit 0 of stream value k, red on
    zero, so the draw depends only on (seed, pair index).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    blue = _random_clique_matrices(n, seed)[1].tolist()
    return ColoredGraph(
        n, ((u, v, Color.BLUE if blue[u][v] else Color.RED) for u, v in combinations(range(n), 2))
    )


def _random_clique_matrices(n: int, seed: int):
    """Red/blue float64 0/1 adjacency matrices of ``random_clique_coloring(n, seed)``.

    The upper triangle, pair k in sorted order, is bit 0 of the stream values
    ``stream_value(seed, k)`` for all pairs at once, drawn straight into
    float64, the dtype of the closed-form counter's products.
    """
    m = n * (n - 1) // 2
    blue = np.zeros((n, n))
    blue[np.triu_indices(n, k=1)] = stream_value(seed, np.arange(m, dtype=np.uint64)) & 1
    blue += blue.T
    red = 1.0 - blue
    np.fill_diagonal(red, 0.0)
    return red, blue


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRecord:
    check: str
    instance: str
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class OracleReport:
    records: tuple[OracleRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.records)

    @property
    def counts(self) -> dict[str, int]:
        total = len(self.records)
        held = sum(1 for r in self.records if r.holds)
        return {"checks": total, "passed": held, "failed": total - held}

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "summary": self.counts,
            "records": [
                {
                    "check": r.check,
                    "instance": r.instance,
                    "lhs": str(r.lhs),
                    "rhs": str(r.rhs),
                    "holds": r.holds,
                }
                for r in self.records
            ],
        }


# -- the certificate's checks as integer equations ----------------------------------


def _identities(cert, table, classes, count, perms: int):
    """Yield the identities as ``(group, names, lhs, rhs, den, holds)``, one name per order.

    ``count(pattern)`` is a Python int for one host or an int64 table for
    many, ``perms`` = (n)_6 and ``classes`` the multiplicity-weighted counts
    of the 26 classes of ``table``.  The classes sum to ``perms``, and each
    pattern p, the target or a flag product, has ``maps * count(p) ==
    sum(c * classes[l])`` over ``den = maps * perms``, where
    ``(maps, ((l, c), ...))`` is its expansion in ``table``.
    """
    total = sum(classes.values())
    yield "sum_to_one", ["sum_to_one"], total, perms, perms, total == perms
    checks = [("double_count", ["double_count"], cert.target)]
    for *_, labels, _, product in cert.flag_pairs:
        checks.append(("expansions", [f"expansion_{x}" for x in labels], product))
    for group, names, p in checks:
        maps, counts = table.expansion(p)
        lhs = maps * count(p)
        rhs = sum(c * classes[l] for l, c in counts)
        yield group, names, lhs, rhs, maps * perms, lhs == rhs


def _inequality(cert, classes, count, perms: int, quad):
    """The flagged inequality as one check shaped like those of ``_identities``.

    Over ``den * perms``, ``den`` the lcm of the base and pair-weight
    denominators; ``classes`` needs only the base's, and ``quad(weights)``
    sums ``weights[k]`` (pair k's weight times ``den``) times pair k's Gram sum.
    """
    base = [(l, v.numerator, v.denominator) for l, v in cert.base.items()]
    weights = [weight for *_, weight, _ in cert.flag_pairs]
    den = math.lcm(*(d for *_, d in base), *(d for _, d in weights))
    lhs = den * count(cert.target)
    quadratic = quad([den // d * num for num, d in weights])
    rhs = sum(den // d * num * classes[l] for l, num, d in base) + quadratic
    return "flagged_inequality", ["flagged_inequality"], lhs, rhs, den * perms, lhs <= rhs


# -- identity checks on one concrete clique ---------------------------------------


# Every pattern here has six vertices: a smaller host has no density to
# check, and the kernel's int64 limit (n <= 1445) is far away, so the upper
# cap bounds the work.
_MIN_ORACLE_N = 6
_MAX_ORACLE_N = 64


def check_host_size(n: int) -> None:
    """Refuse hosts outside 6 <= n <= 64 for the identity and inequality checks."""
    if not _MIN_ORACLE_N <= n <= _MAX_ORACLE_N:
        rule = f"are limited to n <= {_MAX_ORACLE_N}"
        if n < _MIN_ORACLE_N:
            rule = f"need at least {_MIN_ORACLE_N} vertices"
        raise ValueError(f"host with {n} vertices rejected: oracle host checks {rule}")


def _builtin():
    """The builtin certificate and class table, for the three checks that read them.

    Imported here, not at the top, so that Monte Carlo loads neither module.
    """
    from . import builtin
    from .certificate import builtin_certificate

    return builtin_certificate(), builtin.class_table()


def _host_check(g: ColoredGraph, identities: bool) -> OracleReport:
    """``_identities`` or the flagged inequality on one clique, from one ``hom_inj_batch`` call.

    It counts only what the check reads: the multiplicity-weighted classes,
    all 26 for the identities or the base's for the inequality, the target
    and the flag products, and for the inequality each flag's rooted table.
    """
    if not g.is_clique():
        raise ValueError("oracle host checks require a coloured clique host")
    check_host_size(g.n)
    cert, table = _builtin()
    indices = table.indices if identities else cert.base
    patterns = [table.representative(l) for l in indices]
    patterns += [cert.target, *(product for *_, product in cert.flag_pairs)]
    flags = [] if identities else [f for family in cert.families for f in family.flags]
    batch = [(p, ()) for p in patterns] + [(f.graph, f.roots) for f in flags]
    counts = hom_inj_batch(batch, *color_adjacency(g))
    classes = {l: table.multiplicity(l) * c for l, c in zip(indices, counts)}
    count = dict(zip([*patterns, *flags], counts)).__getitem__
    perms = falling_factorial(g.n, 6)
    if identities:
        checks = _identities(cert, table, classes, count, perms)
    else:
        # each flag's rooted count table over all ordered root pairs (zero on the
        # diagonal); their Gram sums give both the quadratic form and, against
        # the count of the glued product, the overlap surplus
        grams = [int((count(f.flags[i]) * count(f.flags[j])).sum()) for f, i, j, *_ in cert.flag_pairs]
        quad = lambda weights: sum(w * gram for w, gram in zip(weights, grams))  # noqa: E731
        checks = [_inequality(cert, classes, count, perms, quad)]
        for gram, (*_, labels, _, product) in zip(grams, cert.flag_pairs):
            surplus = gram - count(product)
            names = [f"overlap_surplus_{x}" for x in labels]
            checks.append(("overlap_surplus", names, surplus, 0, 1, surplus >= 0))
    # one record per ordered check, both sides as rationals over that check's den
    name = f"clique n={g.n}"
    return OracleReport(tuple(
        OracleRecord(check, name, Fraction(lhs, den), Fraction(rhs, den), holds)
        for _, names, lhs, rhs, den, holds in checks
        for check in names
    ))


def check_identities(g: ColoredGraph) -> OracleReport:
    """Recount both sides of every identity on one coloured clique.

    Checks, exactly in rationals: the class densities sum to one; the
    target's density equals its class expansion; and each of the 128 ordered
    flag-product densities equals its class expansion.  Every pattern has six
    vertices, so each count is a sum over the host's 6-sets and each record,
    as an integer identity, is a sum of records the exhaustive sweep checks.
    """
    return _host_check(g, identities=True)


def check_flagged_inequality(g: ColoredGraph) -> OracleReport:
    """Evaluate the certificate's upper-bound expression exactly on a clique.

    Records the target density (lhs), the bound expression (rhs) built from
    base densities plus the rooted quadratic forms, and the per-pair overlap
    surpluses that the bound discards.
    """
    return _host_check(g, identities=False)


# -- exhaustive sweep over every colouring of the 6-clique -------------------------
#
# All patterns involved are 6-vertex graphs, so on a 6-vertex host every
# injective map is one of the 720 vertex bijections, and each matches exactly
# the hosts in one subcube of {0,1}^15.  ``subcube_count_table`` over the 15
# pairs of the 6-clique therefore counts every pattern in all 32768 hosts at
# once, and every identity becomes an integer identity between count tables.
#
# Rooted counts are tables with the two roots pinned, and pinning them once at
# (0, 1) is enough.  For an ordered pair (u, v) take any vertex permutation
# sigma with sigma(0) = u and sigma(1) = v.  A flag's count at roots (u, v) in
# host x equals its count at roots (0, 1) in the host whose pair {a, b} has
# x's colour on {sigma(a), sigma(b)}: sigma carries one set of injective maps
# onto the other.  That relabelling permutes the 15 bits of a colouring, so
# the table for (u, v) is the (0, 1) table with its bit axes transposed, and
# so is every product of such tables.
#
# Swapping every colour sends colouring x to 32767 - x and keeps the roots, so
# one memo per sweep serves the target, the flags and the products: each is
# counted once, or read reversed from its colour swap's table.  The class
# tables, which ``sum_to_one`` rests on, are counted directly.


@dataclass(frozen=True)
class SweepReport:
    hosts: int
    failures: dict[str, int]
    min_inequality_slack: Fraction
    checks: int

    @property
    def passed(self) -> bool:
        return all(v == 0 for v in self.failures.values())

    def to_dict(self) -> dict:
        return {
            "hosts": self.hosts,
            "checks": self.checks,
            "passed": self.passed,
            "failures": dict(self.failures),
            "min_inequality_slack": str(self.min_inequality_slack),
        }


_K6_PAIRS = tuple(combinations(range(6), 2))


def _k6_relabel_axes(u: int, v: int) -> list[int]:
    """Axes taking a table rooted at (0, 1) to the same table rooted at (u, v).

    With sigma = (u, v, the rest in order), bit k of a colouring relabelled
    by sigma is bit ``src[k]`` of the original, where ``src[k]`` indexes the
    pair {sigma[a], sigma[b]} for (a, b) = pair k.  Bit k is axis 14 - k of
    the table reshaped to (2,) * 15 in C order.
    """
    sigma = [u, v, *(w for w in range(6) if w not in (u, v))]
    ((_, src),) = pair_actions([sigma], _K6_PAIRS, _K6_PAIRS)
    return [14 - src.index(14 - axis) for axis in range(15)]


def exhaustive_k6_sweep() -> SweepReport:
    """Check every identity and the inequality on all 32768 6-clique hosts.

    An injective map of a 6-vertex pattern has one 6-set as image, so every
    ``check_identities`` record on a larger host is a sum of records checked
    here on its 6-sets; it fails while this passes only if a kernel miscounts.
    """
    n = 6
    hosts = 1 << 15
    cert, table = _builtin()
    tables = {}

    def count(p, roots=()):
        # the table of p with its roots pinned at (0, 1), kept as uint16 (at
        # most 720 maps per host), or its colour swap's table reversed
        key = Flag(p, roots)
        if key not in tables:
            mirror = tables.get(Flag(p.swap_colors(), roots))
            tables[key] = mirror[::-1] if mirror is not None else subcube_count_table(
                p, n, _K6_PAIRS, dict(zip(roots, (0, 1)))).astype(np.uint16)
        return tables[key].astype(np.int64)

    def quad(weights) -> np.ndarray:
        # weight * x_i * x_j summed over flag pairs, with x the flags' rooted
        # count tables at roots (0, 1), then relabelled onto all 30 root pairs
        q01 = np.zeros(hosts, dtype=np.int64)
        for weight, (family, i, j, *_) in zip(weights, cert.flag_pairs):
            if weight:
                fi, fj = family.flags[i], family.flags[j]
                q01 += weight * count(fi.graph, fi.roots) * count(fj.graph, fj.roots)
        q01 = q01.reshape((2,) * 15)
        total = np.zeros((2,) * 15, dtype=np.int64)
        for u, v in permutations(range(n), 2):
            total += q01.transpose(_k6_relabel_axes(u, v))
        return total.ravel()

    perms = math.factorial(n)
    classes = {l: table.multiplicity(l) * subcube_count_table(table.representative(l), n, _K6_PAIRS)
               for l in table.indices}
    failures: dict[str, int] = {}
    checked = 0
    # one check at a time, so only one check's int64 tables are alive
    for group, names, *_, holds in _identities(cert, table, classes, count, perms):
        # the orders of a flag pair glue to one graph, so one table serves both
        failures[group] = failures.get(group, 0) + len(names) * int(np.count_nonzero(~holds))
        checked += len(names) * hosts
    group, _, lhs, rhs, den, holds = _inequality(cert, classes, count, perms, quad)
    failures[group] = int(np.count_nonzero(~holds))
    min_slack = Fraction(int((rhs - lhs).min()), den)
    return SweepReport(hosts, failures, min_slack, checked + hosts)


# -- Monte Carlo -------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    n: int
    trials: int
    seed: int
    mean: Fraction
    minimum: Fraction
    maximum: Fraction

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "mean": str(self.mean),
            "mean_approx": float(self.mean),
            "min": str(self.minimum),
            "max": str(self.maximum),
        }


def monte_carlo_mean(n: int, trials: int, seed: int) -> MonteCarloResult:
    """Exact mean of the target's injective density over random cliques.

    Each trial draws an independent uniformly random colouring from its
    derived seed and is counted by the closed-form alternating-cycle
    counter; the counts are summed as integers, and the mean, minimum and
    maximum densities are the only rationals built.
    """
    if n < 6:
        raise ValueError("Monte Carlo hosts need at least 6 vertices")
    if trials < 1:
        raise ValueError("need at least one trial")
    check_closed_form_size(n)
    den = falling_factorial(n, 6)
    counts = [
        alternating_hom_inj_from_matrices(*_random_clique_matrices(n, trial_seed(seed, t)))
        for t in range(trials)
    ]
    return MonteCarloResult(
        n=n,
        trials=trials,
        seed=seed,
        mean=Fraction(sum(counts), den * trials),
        minimum=Fraction(min(counts), den),
        maximum=Fraction(max(counts), den),
    )
