"""Child process of the benchmark: runs flagcert entry points in-process.

Reads one JSON job on stdin and prints one JSON result on stdout.  Jobs:

  {"op": "verify" | "classify" | "sweep"}
  {"op": "inequality" | "identities", "n": N, "seed": S, "count": K}
  {"op": "montecarlo", "n": N, "trials": T, "seed": S}
  {"op": "certbatch", "text": EXPORTED_CERT, "seed": S, "half": H, "seconds": T}

Every job may add "trace": true.  The child then wraps the public functions
named in TRACED at every flagcert module attribute that holds them, records
one span per call (name, parent, start, end) and returns per-name totals.
Every job but "certbatch" prints the same report object as the matching
``flagcert ... --format json`` command; "certbatch" loads and verifies a
stream of certificate texts for whole rounds until T seconds have passed.

Run with flagcert importable, e.g. ``PYTHONPATH=src python3 bench/replay.py``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

TRACED = (
    "builtin.class_table",
    "graphs.canonical_form",
    "counting.t_bip",
    "counting.hom_inj_count",
    "counting.rooted_hom_inj_count",
    "counting.density_vector",
    "counting.alternating_hom_inj_from_matrices",
    "oracle.random_clique_coloring",
    "oracle.check_flagged_inequality",
    "oracle.check_identities",
    "oracle.exhaustive_k6_sweep",
    "oracle.monte_carlo_mean",
    "certificate.certificate_coefficients",
    "certificate.flag_product",
    "certificate.psd_check",
    "certificate.load_certificate",
    "certificate.verify_certificate",
)

# Machine speed drifts by a third within minutes on shared hosts, so every
# timing is taken between two runs of a fixed interpreter loop and rescaled to
# the speed at which that loop takes CALIBRATION_NOMINAL_S.
CALIBRATION_LOOPS = 1_200_000
CALIBRATION_NOMINAL_S = 0.1


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed integer loop."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two calibrations to nominal speed."""
    return CALIBRATION_NOMINAL_S / ((before + after) / 2)


# Integer operations of one call, for the computed rate of the cycle counter:
# six n x n products at 2 n^3 operations each.
WORK = {
    "counting.alternating_hom_inj_from_matrices": lambda red, blue: 12 * red.shape[0] ** 3,
}


class Tracer:
    """Spans kept in memory: [name, parent index, start ns, end ns, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0,
                    work(*args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()

        return traced

    def take(self) -> list[list]:
        """Hand over the finished spans and start a new list."""
        if self._stack:
            raise RuntimeError("spans taken while a call is open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


def install(tracer: Tracer) -> None:
    """Replace each traced function at every module attribute that holds it."""
    import flagcert
    from flagcert import builtin, certificate, cli, counting, graphs, oracle

    modules = {m.__name__.rsplit(".", 1)[-1]: m
               for m in (builtin, certificate, cli, counting, graphs, oracle)}
    for dotted in TRACED:
        mod, attr = dotted.split(".")
        original = getattr(modules[mod], attr)
        wrapper = tracer.wrap(dotted, original)
        for m in (flagcert, *modules.values()):
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def aggregate(spans) -> dict[str, list[int]]:
    """Per name: [calls, inclusive ns, self ns, work].

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for k, (name, _, start, end, work) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[k]
        row[3] += work
    return out


# -- jobs ------------------------------------------------------------------------


def run_verify(job):
    from flagcert.certificate import builtin_certificate, verify_certificate

    return verify_certificate(builtin_certificate()).to_dict()


def run_classify(job):
    from flagcert import builtin

    table = builtin.class_table()
    return {
        "template": "k33",
        "colourings": sum(e.multiplicity for e in table.classes),
        "classes": len(table),
        "table": [
            {"index": e.index, "aut": e.aut_count, "multiplicity": e.multiplicity}
            for e in table.classes
        ],
    }


def run_sweep(job):
    from flagcert import oracle

    return oracle.exhaustive_k6_sweep().to_dict()


def run_inequality(job):
    from flagcert import oracle

    runs = []
    for seed in range(job["seed"], job["seed"] + job["count"]):
        report = oracle.check_flagged_inequality(
            oracle.random_clique_coloring(job["n"], seed)
        )
        runs.append(dict(report.to_dict(), seed=seed))
    return {"passed": all(r["passed"] for r in runs), "runs": runs}


def run_identities(job):
    from flagcert import oracle

    g = oracle.random_clique_coloring(job["n"], job["seed"])
    return oracle.check_identities(g).to_dict()


def run_montecarlo(job):
    from flagcert import oracle

    return oracle.monte_carlo_mean(job["n"], job["trials"], job["seed"]).to_dict()


# -- the certificate stream --------------------------------------------------------

MUTATIONS_PER_ROUND = 4


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _entry(obj, rng):
    fam = rng.randrange(len(obj["families"]))
    return obj["families"][fam]["matrix"], rng.randrange(8), rng.randrange(8)


def _drop_field(obj, rng):
    del obj[rng.choice(["name", "template", "target", "base", "families", "bound"])]


def _unknown_field(obj, rng):
    obj[rng.choice(["comment", "version", "stats"])] = "x"


def _zero_denominator(obj, rng):
    matrix, i, j = _entry(obj, rng)
    matrix[i][j] = rng.choice(["1/0", "-3/0"])


def _non_canonical(obj, rng):
    matrix, i, j = _entry(obj, rng)
    x = Fraction(matrix[i][j])
    k = rng.randrange(2, 5)
    matrix[i][j] = f"{k * x.numerator}/{k * x.denominator}"


def _asymmetric(obj, rng):
    matrix, i, _ = _entry(obj, rng)
    j = (i + rng.randrange(1, 8)) % 8
    matrix[i][j] = _rational(Fraction(matrix[i][j]) + Fraction(1, 128))


def _reversed_edge(obj, rng):
    edge = rng.choice(obj["target"]["edges"])
    edge[0], edge[1] = edge[1], edge[0]


def _bad_colour(obj, rng):
    family = rng.choice(obj["families"])
    edge = rng.choice(rng.choice(family["flags"])["edges"])
    edge[2] = rng.choice(["G", "r", ""])


def _base_out_of_range(obj, rng):
    obj["base"][str(rng.randrange(27, 100))] = "1/6"


def _root_out_of_range(obj, rng):
    flag = rng.choice(rng.choice(obj["families"])["flags"])
    flag["roots"][rng.randrange(2)] = flag["n"] + rng.randrange(3)


SCHEMA_VIOLATIONS = (
    _drop_field, _unknown_field, _zero_denominator, _non_canonical,
    _asymmetric, _reversed_edge, _bad_colour, _base_out_of_range,
    _root_out_of_range,
)


def round_texts(exported: str, seed: int, half: int, r: int) -> list[tuple[str, str]]:
    """Round ``r`` of half ``half`` of the stream: (kind, certificate text) pairs.

    The exported text, MUTATIONS_PER_ROUND copies with one matrix entry
    (and its mirror) shifted by +-1/128, one copy per schema violation plus a
    truncated text, and two inputs that do not depend on the seed: a class
    entry with seven vertices and a second "bound" key.
    """
    rng = random.Random(f"certbatch:{seed}:{half}:{r}")
    out = [("exported", exported)]
    for _ in range(MUTATIONS_PER_ROUND):
        obj = json.loads(exported)
        matrix, i, j = _entry(obj, rng)
        shifted = _rational(Fraction(matrix[i][j]) + rng.choice([1, -1]) * Fraction(1, 128))
        matrix[i][j] = matrix[j][i] = shifted
        out.append(("mutated", json.dumps(obj, indent=2)))
    for violate in SCHEMA_VIOLATIONS:
        obj = json.loads(exported)
        violate(obj, rng)
        out.append(("invalid", json.dumps(obj, indent=2)))
    out.append(("invalid", exported[: rng.randrange(1, len(exported.rstrip()) - 1)]))
    seven = json.loads(exported)
    seven["classes"][0]["n"] = 7
    seven["classes"][0]["edges"][-1][1] = 6
    out.append(("fault_class_n7", json.dumps(seven, indent=2)))
    out.append(("fault_duplicate_bound",
                exported.rstrip()[:-1].rstrip() + ',\n  "bound": "1/2"\n}\n'))
    return out


def _check_one(text: str) -> dict:
    from flagcert.certificate import SchemaError, load_certificate, verify_certificate

    try:
        report = verify_certificate(load_certificate(text))
    except SchemaError as exc:
        return {"outcome": "SchemaError", "detail": str(exc)}
    except Exception as exc:  # recorded; the stream goes on
        return {"outcome": type(exc).__name__, "detail": str(exc)}
    return {
        "outcome": "pass" if report.passed else "fail",
        "failed_checks": [c.name for c in report.checks if not c.passed],
        "report": report.to_dict(),
    }


def run_certbatch(job, tracer: Tracer | None):
    """Whole rounds of the stream, after one untimed warm-up certificate."""
    exported, seed, half = job["text"], job["seed"], job["half"]
    warmup = _check_one(exported)
    if tracer:
        tracer.take()
    rounds, first_spans = [], []
    cal = calibrate()
    start = perf_counter()
    while not rounds or perf_counter() - start < job["seconds"]:
        items, cal_before = [], cal
        for kind, text in round_texts(exported, seed, half, len(rounds)):
            t0 = perf_counter()
            result = _check_one(text)
            result["time_s"] = perf_counter() - t0
            result["kind"] = kind
            if kind != "exported":
                result.pop("report", None)
            items.append(result)
        spans = tracer.take() if tracer else []
        if not rounds:
            first_spans = spans
        cal = calibrate()
        rounds.append({"items": items, "layers": aggregate(spans), "cal_s": [cal_before, cal]})
    return {"warmup": warmup, "rounds": rounds, "spans": first_spans}


JOBS = {
    "verify": run_verify,
    "classify": run_classify,
    "sweep": run_sweep,
    "inequality": run_inequality,
    "identities": run_identities,
    "montecarlo": run_montecarlo,
}


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job.get("trace") else None
    if tracer:
        install(tracer)
    if job["op"] == "certbatch":
        result = run_certbatch(job, tracer)
    else:
        t0 = perf_counter()
        output = JOBS[job["op"]](job)
        elapsed = perf_counter() - t0
        spans = tracer.take() if tracer else []
        result = {"output": output, "time_s": elapsed,
                  "layers": aggregate(spans), "spans": spans}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
