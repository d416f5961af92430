"""Certificate model, flag products, exact PSD verification and file I/O.

A certificate bundles a target pattern, a sparse base vector over the 26
template classes, two rooted flag families sharing a symmetric matrix, and
the claimed bound.  Verification reproduces every coefficient exactly, in
integers over common denominators; nothing here ever rounds.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import builtin
from .graphs import MAX_PATTERN_N, ClassTable, Color, ColoredGraph, Flag


class SchemaError(ValueError):
    """Certificate text violates the schema; ``path`` locates the offence."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- symmetric matrices and PSD checking --------------------------------------


@dataclass(frozen=True, slots=True)
class SymMatrix:
    """Dense symmetric matrix of exact rationals."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in self.rows)
        m = len(rows)
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
        # tuple equality tests identity first, and a loaded matrix shares its interned entries
        columns = tuple(zip(*rows))
        if any(rows[i][i + 1:] != columns[i][i + 1:] for i in range(m)):
            i, j = next((i, j) for i in range(m) for j in range(i + 1, m) if rows[i][j] != rows[j][i])
            raise ValueError(f"matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "rows", rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        """1-based access, matching the published index convention."""
        return self.rows[i - 1][j - 1]


@dataclass(frozen=True)
class PsdReport:
    """Outcome of exact LDL^T elimination with diagonal pivoting."""

    is_psd: bool
    pivot_sequence: tuple[Fraction, ...]
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    detail: str = ""


def psd_check(m: SymMatrix) -> PsdReport:
    """Decide positive semidefiniteness exactly and extract the kernel.

    Diagonal pivoting always selects the largest remaining diagonal entry.
    A step where every remaining diagonal entry is zero is accepted only if
    the whole residual block vanishes; those directions span the kernel.
    A negative pivot, or a zero diagonal next to residual off-diagonal mass,
    certifies that the matrix is not PSD.

    The elimination runs on the integers D*M, D the lcm of the denominators,
    with Bareiss's update a_ij <- (a_kk*a_ij - a_ik*a_kj) // prev, where prev
    is the previous pivot and every division is exact (Math. Comp. 22, 1968).
    a_ij stands for the Schur complement entry a_ij / (prev*D), so diagonals
    are ranked by a_ii*sign(prev), and the lower factor a_ik / a_kk stays in
    place below the diagonal.  Fractions are built only for the report.
    """
    n = m.order
    scale = math.lcm(*(x.denominator for row in m.rows for x in row))
    original = [[x.numerator * (scale // x.denominator) for x in row] for row in m.rows]
    a = [list(row) for row in original]
    perm = list(range(n))
    steps = []  # (a_kk, prev) of every pivot taken
    prev = 1
    for k in range(n):
        sign = 1 if prev > 0 else -1
        p = max(range(k, n), key=lambda i: sign * a[i][i])
        if a[p][p] == 0:
            if all(a[i][j] == 0 for i in range(k, n) for j in range(k, n)):
                break
            if all(a[i][i] == 0 for i in range(k, n)):
                pivots = tuple(Fraction(a_kk, before * scale) for a_kk, before in steps)
                detail = "zero diagonal block with nonzero off-diagonal residue"
                return PsdReport(False, pivots, (), detail)
            # fall through: pivot on a strictly negative diagonal entry
            p = min(range(k, n), key=lambda i: sign * a[i][i])
        if p != k:
            perm[k], perm[p] = perm[p], perm[k]
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
        pivot, row_k = a[k][k], a[k]
        steps.append((pivot, prev))
        for row_i in a[k + 1:]:
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
        prev = pivot

    rank = len(steps)
    pivots = tuple(Fraction(a_kk, before * scale) for a_kk, before in steps)
    pivots += (Fraction(0),) * (n - rank)
    if any(p < 0 for p in pivots):
        return PsdReport(False, pivots, (), detail="negative pivot")

    # Kernel directions correspond to zero pivots: solve L^T y = e_k and undo
    # the permutation.  prev is now the determinant of the leading rank x rank
    # block, so prev * y is integral (Cramer) and every step divides exactly.
    kernel = []
    for k in range(rank, n):
        y = [0] * n
        y[k] = prev
        for i in range(rank - 1, -1, -1):
            y[i] = -sum(a[j][i] * y[j] for j in range(i + 1, n)) // a[i][i]
        x = [0] * n
        for i in range(n):
            x[perm[i]] = y[i]
        if any(sum(mij * xj for mij, xj in zip(row, x)) for row in original):
            raise AssertionError("kernel reconstruction failed")
        lead = next(v for v in x if v)
        kernel.append(tuple(Fraction(v, lead) for v in x))
    return PsdReport(True, pivots, tuple(kernel))


# -- flag products and expansions ----------------------------------------------


# Flags and graphs are immutable and hash structurally, so a loaded certificate
# whose flags equal the builtin's reuses the builtin's 72 products; 256 also
# keeps another certificate's products and bounds what a long process holds.
@lru_cache(maxsize=256)
def flag_product(f1: Flag, f2: Flag) -> ColoredGraph:
    """Glue two flags along their roots; the shared root edge appears once.

    The output forgets the root markers.  Edges present between the roots in
    both flags must agree in colour.  Products are cached and shared between
    callers, which is safe because graphs are immutable.
    """
    if len(f1.roots) != len(f2.roots):
        raise ValueError("flags must have the same number of roots")
    k = n = len(f1.roots)
    merged: dict[tuple[int, int], Color] = {}
    for f in (f1, f2):
        # roots take 0..k-1, the flag's other vertices the next free labels in order
        others = [v for v in range(f.graph.n) if v not in f.roots]
        label = dict(zip((*f.roots, *others), (*range(k), *range(n, n + len(others)))))
        n += len(others)
        for u, v, c in f.graph.edges:
            key = tuple(sorted((label[u], label[v])))
            if merged.setdefault(key, c) != c:
                raise ValueError(
                    f"root edge colour conflict at pair {key}: {merged[key].value} vs {c.value}"
                )
    return ColoredGraph(n, ((u, v, c) for (u, v), c in merged.items()))


def expand_in_classes(p: ColoredGraph, table: ClassTable) -> dict[int, Fraction]:
    """Conditional densities of the pattern across all template classes, zeros included."""
    maps, counts = table.expansion(p)
    return dict.fromkeys(table.indices, Fraction(0)) | {k: Fraction(c, maps) for k, c in counts}


# -- the certificate -------------------------------------------------------------


@dataclass(frozen=True)
class FlagFamily:
    """An ordered flag list sharing a root-edge colour, plus its matrix."""

    root_edge_color: Color
    flags: tuple[Flag, ...]
    matrix: SymMatrix

    def __post_init__(self):
        if self.matrix.order != len(self.flags):
            raise ValueError("matrix order must match the number of flags")
        for k, f in enumerate(self.flags):
            if len(f.roots) != 2:
                raise ValueError(f"flag {k} must have exactly two roots")
            c = f.graph.edge_color(*f.roots)
            if c != self.root_edge_color:
                letter = None if c is None else c.value
                raise ValueError(f"flag {k} root edge colour {letter} does not match family")


@dataclass(frozen=True)
class Certificate:
    """Serializable proof object for one density bound; ``base`` is stored as a read-only copy.

    Not slotted, so ``flag_pairs`` caches in ``__dict__``; equality compares the fields alone.
    """

    name: str
    template_parts: tuple[int, int]
    target: ColoredGraph
    base: Mapping[int, Fraction]
    families: tuple[FlagFamily, ...]
    bound: Fraction
    classes: Optional[tuple[ColoredGraph, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "base", MappingProxyType(dict(self.base)))

    @cached_property
    def flag_pairs(self) -> tuple:
        """Every unordered flag pair i <= j (0-based) of every family, glued once.

        Each entry is (family, i, j, labels, weight, product): ``labels`` names
        the one or two ordered pairs, such as ``R1.2`` and ``R2.1``, that glue
        to ``product``, and ``weight`` is their summed matrix entry
        ``len(labels) * M_ij`` as the integer pair (numerator, denominator),
        not reduced.  Both orders glue to isomorphic graphs, so one product
        serves both.
        """
        pairs = []
        for family in self.families:
            fam = family.root_edge_color.value
            for i, j in combinations_with_replacement(range(len(family.flags)), 2):
                labels = (f"{fam}{i + 1}.{j + 1}",)
                if i != j:
                    labels += (f"{fam}{j + 1}.{i + 1}",)
                entry = family.matrix.rows[i][j]
                weight = (len(labels) * entry.numerator, entry.denominator)
                product = flag_product(family.flags[i], family.flags[j])
                pairs.append((family, i, j, labels, weight, product))
        return tuple(pairs)


@lru_cache(maxsize=1)
def builtin_certificate() -> Certificate:
    """The shipped alternating-6-cycle certificate."""
    matrix = SymMatrix(builtin.matrix_rows())
    return Certificate(
        name="alternating-6-cycle",
        template_parts=builtin.TEMPLATE_PARTS,
        target=builtin.target(),
        base=builtin.BASE_VECTOR,
        families=(
            FlagFamily(Color.RED, builtin.red_flags(), matrix),
            FlagFamily(Color.BLUE, builtin.blue_flags(), matrix),
        ),
        bound=builtin.BOUND,
        classes=builtin.class_representatives(),
    )


def certificate_coefficients(
    cert: Certificate, table: ClassTable
) -> dict[int, Fraction]:
    """Per-class coefficient of the certificate's upper-bound expression.

    base(l) plus the full ordered double sum of matrix entries against the
    expansions of the glued flag products, one term per unordered pair.  A
    product's expansion is its cached nonzero class counts over its map
    count, so the sum runs over integers with one common denominator, the
    lcm of the base denominators and of every weight denominator times map
    count; one Fraction per class is built at the end.
    """
    base = [cert.base.get(index, 0) for index in table.indices]
    terms = []  # (numerator, denominator, class counts) of each nonzero weight / maps
    for *_, (num, d), product in cert.flag_pairs:
        if num:
            maps, counts = table.expansion(product)
            terms.append((num, d * maps, counts))
    den = math.lcm(*(v.denominator for v in base), *(d for _, d, _ in terms))
    nums = [v.numerator * (den // v.denominator) for v in base]
    for num, d, counts in terms:
        scale = num * (den // d)
        for index, c in counts:
            nums[index - 1] += scale * c
    return {index: Fraction(num, den) for index, num in zip(table.indices, nums)}


# -- verification -----------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    certificate_name: str
    checks: tuple[CheckResult, ...]
    coefficients: dict[int, Fraction]
    bound: Fraction
    psd_reports: tuple[PsdReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "certificate": self.certificate_name,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "coefficients": {str(k): str(v) for k, v in sorted(self.coefficients.items())},
            "bound": str(self.bound),
            "psd": [
                {
                    "is_psd": r.is_psd,
                    "pivots": [str(p) for p in r.pivot_sequence],
                    "kernel": [[str(x) for x in vec] for vec in r.kernel_basis],
                }
                for r in self.psd_reports
            ],
        }


@lru_cache(maxsize=1)
def _golden_check() -> CheckResult:
    """Check 5: each builtin flag product's counts over its map count against its
    shipped numerators over the group order.  It reads only shipped data, so a
    process computes it once."""
    table = builtin.class_table()
    golden = builtin_certificate().flag_pairs
    bad_keys = []
    for family, i, j, labels, _, product in golden:
        row = builtin.golden_numerators(family.root_edge_color.value, i + 1, j + 1)
        maps, counts = table.expansion(product)
        counts = dict(counts)
        if any(num * maps != counts.get(k, 0) * builtin.GROUP_ORDER for k, num in enumerate(row, 1)):
            bad_keys.append(labels[0])
    detail = f"mismatch at {bad_keys}" if bad_keys else f"{len(golden)} equations reproduced"
    return CheckResult("golden_expansions", not bad_keys, detail)


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Run the full verification pipeline; failures land in the report.

    Checks, in order: template classification, base vector against the
    target's conditional densities, PSD status of every family matrix, all
    class coefficients against the claimed bound, and the golden expansion
    table: a self-test of shipped data, which re-derives the builtin's table
    whatever certificate is given.  The certificate's own checks run in full
    on every call, with one PSD elimination per distinct matrix; the golden
    verdict depends on no certificate and is computed once per process.
    """
    checks: list[CheckResult] = []
    table = builtin.class_table()

    # 1. classification of the template colourings
    mult_sum = sum(e.multiplicity for e in table.classes)
    bad = []
    if cert.template_parts != builtin.TEMPLATE_PARTS:
        bad.append(f"unsupported template parts {list(cert.template_parts)}")
    if cert.classes is not None and len(cert.classes) != len(table):
        bad.append(f"certificate lists {len(cert.classes)} classes")
    elif cert.classes is not None:  # the first class whose representative is misplaced
        bad += [f"class {k} mismatch" for k, g in enumerate(cert.classes, 1) if table.class_of(g) != k][:1]
    class_ok = not bad and len(table) == builtin.NUM_CLASSES and mult_sum == builtin.NUM_COLORINGS
    detail = "; ".join([f"{mult_sum} colourings in {len(table)} classes", *bad])
    checks.append(CheckResult("classification", class_ok, detail))

    # 2. base vector ties the linear part to the target's densities
    try:
        maps, counts = table.expansion(cert.target)
        counts = dict(counts)
        base = [cert.base.get(k, 0) for k in table.indices]
        bad = [k for k, v in zip(table.indices, base)
               if v.numerator * maps != counts.get(k, 0) * v.denominator]
        base_ok = not bad
        base_detail = "matches target densities" if base_ok else f"mismatch at {bad}"
    except ValueError as exc:
        base_ok = False
        base_detail = str(exc)
    checks.append(CheckResult("base_vector", base_ok, base_detail))

    # 3. PSD check per family; a matrix equal to an earlier family's reuses its report
    psd_reports: list[PsdReport] = []
    for family in cert.families:
        same = next((r for f, r in zip(cert.families, psd_reports) if f.matrix == family.matrix), None)
        psd_reports.append(psd_check(family.matrix) if same is None else same)
    for family, report in zip(cert.families, psd_reports):
        name = f"psd_family_{family.root_edge_color.value}"
        detail = f"kernel dimension {len(report.kernel_basis)}" if report.is_psd else report.detail
        checks.append(CheckResult(name, report.is_psd, detail))

    # 4. every class coefficient equals the claimed bound
    try:
        coefficients = certificate_coefficients(cert, table)
        bad = [k for k, v in coefficients.items() if v != cert.bound]
        detail = f"all {len(coefficients)} equal {cert.bound}"
        if bad:
            detail = f"classes {bad} deviate from the bound"
        checks.append(CheckResult("coefficients", not bad, detail))
    except ValueError as exc:
        coefficients = {}
        checks.append(CheckResult("coefficients", False, str(exc)))

    # 5. golden table: the shipped expansion equations, recomputed once per process
    checks.append(_golden_check())

    return VerificationReport(
        certificate_name=cert.name,
        checks=tuple(checks),
        coefficients=coefficients,
        bound=cert.bound,
        psd_reports=tuple(psd_reports),
    )


# -- serialization -----------------------------------------------------------------
#
# A rational is written as ``str(Fraction)``: the reduced "p/q", or the integer
# alone when q = 1.  The loader accepts those spellings, and "p/1" besides.

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_CLASS_KEY_RE = re.compile(r"[1-9][0-9]?")  # 1..99, then capped at NUM_CLASSES


# Interned by spelling, refusals never cached: `verify --cert` makes 23 misses and
# 110 hits, a `cert-batch` round of 17 texts 2-7 misses and 823-1141 hits.
@lru_cache(maxsize=256)
def _rational(text: str) -> Fraction:
    match = _RAT_RE.fullmatch(text)
    if not match:
        raise ValueError(f"malformed rational {text!r}")
    num = int(match.group(1))  # int() refuses more digits than the interpreter converts
    den = 1 if match.group(2) is None else int(match.group(2))
    if den <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    value = Fraction(num, den)
    # the text must be the integers' own spelling: no leading zero, no "-0"
    spelled = str(num) if match.group(2) is None else f"{num}/{den}"
    if text != spelled or (value.numerator, value.denominator) != (num, den):
        raise ValueError(f"rational {text!r} is not canonical; write {value}")
    return value


def parse_rational(text, path: str) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected a rational string, got {type(text).__name__}")
    try:
        return _rational(text)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _require_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(path, f"missing field {key!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SchemaError(path, f"unknown fields {sorted(unknown)}")


def _graph_to_obj(g: ColoredGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, c.value] for u, v, c in g.edges]}


# Interned by type-checked (u, v, letter) edges, refusals never cached: 43 misses
# for `verify --cert`, 1-2 misses and 437-477 hits a `cert-batch` round.  Flags
# likewise, keyed by graph and roots: 16 misses, then 1 miss and 112-152 hits.
@lru_cache(maxsize=256)
def _graph(n: int, edges: tuple) -> ColoredGraph:
    graph = ColoredGraph(n, [(u, v, Color(c)) for u, v, c in edges])
    if graph.pairs != tuple((u, v) for u, v, _ in edges):  # u < v, strictly increasing
        raise ValueError("edge pairs must be u < v and strictly increasing")
    return graph


_flag = lru_cache(maxsize=256)(Flag)


def _graph_from_obj(obj, path: str, roots: bool = False):
    """Read a graph, or a flag when ``roots``; the types' refusals get their field's path."""
    required = ["n", "edges"] + (["roots"] if roots else [])
    _require_keys(obj, path, required)
    n = obj["n"]
    if type(n) is not int or n < 0:
        raise SchemaError(f"{path}.n", "vertex count must be a nonnegative integer")
    if n > MAX_PATTERN_N:
        raise SchemaError(f"{path}.n", f"{n} vertices; the limit is {MAX_PATTERN_N}")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise SchemaError(f"{path}.edges", "expected a list")
    # every type is checked before the lookup: false and 0.0 equal 0 in a key
    for k, item in enumerate(edges):
        if not (isinstance(item, list) and len(item) == 3 and type(item[0]) is type(item[1]) is int):
            raise SchemaError(f"{path}.edges[{k}]", "expected [u, v, colour]")
        if item[2] not in ("R", "B"):
            raise SchemaError(f"{path}.edges[{k}]", f"colour must be 'R' or 'B', got {item[2]!r}")
    try:
        graph = _graph(n, tuple(map(tuple, edges)))
    except ValueError as exc:
        raise SchemaError(f"{path}.edges", str(exc)) from exc
    if not roots:
        return graph
    rts = obj["roots"]
    if not isinstance(rts, list) or not all(type(r) is int for r in rts):
        raise SchemaError(f"{path}.roots", "expected a list of vertex indices")
    try:
        return _flag(graph, tuple(rts))
    except ValueError as exc:
        raise SchemaError(f"{path}.roots", str(exc)) from exc


def save_certificate(cert: Certificate) -> str:
    """Serialize to the certificate text format (strict JSON)."""
    obj = {
        "name": cert.name,
        "template": {"parts": list(cert.template_parts)},
        "target": _graph_to_obj(cert.target),
    }
    if cert.classes is not None:
        obj["classes"] = [_graph_to_obj(g) for g in cert.classes]
    obj["base"] = {str(k): str(v) for k, v in sorted(cert.base.items()) if v}
    obj["families"] = [
        {
            "root_edge_color": family.root_edge_color.value,
            "flags": [
                dict(_graph_to_obj(f.graph), roots=list(f.roots))
                for f in family.flags
            ],
            "matrix": [[str(x) for x in row] for row in family.matrix.rows],
        }
        for family in cert.families
    ]
    obj["bound"] = str(cert.bound)
    return json.dumps(obj, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError("$", f"duplicate key {key!r}")
        obj[key] = value
    return obj


# The PSD check does m^3 integer work per family of m flags; this bounds it.  One
# dense 64-flag family loads and verifies in 0.13-0.19 s on a 2-CPU Xeon container,
# 0.19-0.22 s as a process's first verify (0.69-0.87 s when the elimination ran in
# Fractions).
MAX_FLAGS = 64


def load_certificate(text: str) -> Certificate:
    """Parse and validate certificate text; violations carry a path."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise SchemaError("$", f"unreadable JSON: {exc}") from exc
    _require_keys(
        obj,
        "$",
        ["name", "template", "target", "base", "families", "bound"],
        optional=["classes"],
    )
    if not isinstance(obj["name"], str):
        raise SchemaError("$.name", "expected a string")
    _require_keys(obj["template"], "$.template", ["parts"])
    parts = obj["template"]["parts"]
    if (
        not isinstance(parts, list)
        or len(parts) != 2
        or not all(type(p) is int and p > 0 for p in parts)
    ):
        raise SchemaError("$.template.parts", "expected two positive part sizes")

    vertices = sum(parts)  # every pattern the checks count must fit on these
    target = _graph_from_obj(obj["target"], "$.target")
    if target.n > vertices:
        raise SchemaError("$.target.n", f"{target.n} vertices; the template has {vertices}")

    classes = None
    if "classes" in obj:
        if not isinstance(obj["classes"], list):
            raise SchemaError("$.classes", "expected a list")
        classes = tuple(
            _graph_from_obj(item, f"$.classes[{k}]")
            for k, item in enumerate(obj["classes"])
        )
        for k, g in enumerate(classes):
            if g.n != vertices:
                raise SchemaError(
                    f"$.classes[{k}].n",
                    f"class graphs colour the template's {vertices} vertices, got {g.n}",
                )

    if not isinstance(obj["base"], dict):
        raise SchemaError("$.base", "expected an object")
    base = {}
    for key, value in obj["base"].items():
        if not _CLASS_KEY_RE.fullmatch(key) or int(key) > builtin.NUM_CLASSES:
            raise SchemaError(f"$.base.{key}", f"key must be a class index 1..{builtin.NUM_CLASSES}")
        base[int(key)] = parse_rational(value, f"$.base.{key}")
        if base[int(key)] < 0:
            raise SchemaError(f"$.base.{key}", "base entries must be nonnegative")

    if not isinstance(obj["families"], list) or not obj["families"]:
        raise SchemaError("$.families", "expected a nonempty list")
    flag_count = sum(
        len(fam_obj["flags"])
        for fam_obj in obj["families"]
        if isinstance(fam_obj, dict) and isinstance(fam_obj.get("flags"), list)
    )
    if flag_count > MAX_FLAGS:
        raise SchemaError("$.families", f"{flag_count} flags in all; the limit is {MAX_FLAGS}")
    families = []
    for fk, fam_obj in enumerate(obj["families"]):
        fpath = f"$.families[{fk}]"
        _require_keys(fam_obj, fpath, ["root_edge_color", "flags", "matrix"])
        cval = fam_obj["root_edge_color"]
        if cval not in ("R", "B"):
            raise SchemaError(f"{fpath}.root_edge_color", "must be 'R' or 'B'")
        if not isinstance(fam_obj["flags"], list) or not fam_obj["flags"]:
            raise SchemaError(f"{fpath}.flags", "expected a nonempty list")
        flags = tuple(
            _graph_from_obj(item, f"{fpath}.flags[{k}]", roots=True)
            for k, item in enumerate(fam_obj["flags"])
        )
        for k, f in enumerate(flags):
            glued = 2 * f.graph.n - 2  # the flag glued to itself on its two roots
            if glued > vertices:
                raise SchemaError(
                    f"{fpath}.flags[{k}].n",
                    f"{f.graph.n} vertices glue to {glued}; the template has {vertices}",
                )
        m = len(flags)
        rows_obj = fam_obj["matrix"]
        if not isinstance(rows_obj, list) or len(rows_obj) != m:
            raise SchemaError(f"{fpath}.matrix", f"expected {m} rows")
        rows = []
        for i, row in enumerate(rows_obj):
            if not isinstance(row, list):
                raise SchemaError(f"{fpath}.matrix[{i}]", f"expected {m} entries")
            rows.append([parse_rational(x, f"{fpath}.matrix[{i}][{j}]") for j, x in enumerate(row)])
        try:
            families.append(FlagFamily(Color(cval), flags, SymMatrix(rows)))
        except ValueError as exc:
            raise SchemaError(fpath, str(exc)) from exc

    bound = parse_rational(obj["bound"], "$.bound")
    return Certificate(
        name=obj["name"],
        template_parts=(parts[0], parts[1]),
        target=target,
        base=base,
        families=tuple(families),
        bound=bound,
        classes=classes,
    )
