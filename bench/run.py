#!/usr/bin/env python3
"""Benchmark for flagcert: whole commands timed end to end, layers traced apart.

Usage (from the repository root; nothing needs installing):

  python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (README.md gives the inputs and why each was chosen):

  certify       fresh-process `flagcert verify`, `classify`, `oracle exhaustive`
  random-hosts  `oracle inequality` at n=10 and n=14, `oracle identities` at n=10
  montecarlo    `oracle montecarlo` at n=150 (50 and 5 trials) and n=600
  cert-batch    one process loads and verifies a stream of certificate texts

A run measures whole rounds of its workload until --seconds have passed and
checks every output against bench/reference.py.  With --trace 0 the commands
run as users run them (`python -m flagcert.cli` with src on PYTHONPATH) and
the end-to-end metrics are reported; with --trace 1 the same work is replayed
in-process by bench/replay.py, traced and untraced in turn, and the
per-layer metrics are reported.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; a JSON record of the
run, with the spans of the first traced round, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference
from replay import calibrate, speed_scale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
REPLAY = str(ROOT / "bench" / "replay.py")

N10_HOSTS = 4  # hosts per n=10 inequality command
COMMAND_TIMEOUT_S = 150
DENSITY_BOUND = Fraction(1, 64)
PAPER_BASE = {"4": "1/6", "9": "1/12", "11": "1/12", "12": "1/6"}
# one sum-to-one, one double-count, 128 product expansions, one inequality
SWEEP_CHECKS_PER_HOST = 131


# -- processes -------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], stdin_text: str | None = None) -> Proc:
    """Run `python <args>` from the checkout root; time it and read its peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err,
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if stdin_text is not None:
                try:
                    proc.stdin.write(stdin_text.encode())
                    proc.stdin.close()
                except BrokenPipeError:
                    pass
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out.read().decode(), err.read().decode())


def stderr_tail(p: Proc) -> str:
    return p.stderr.strip()[-300:]


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def cli(*args: str) -> list[str]:
    return ["-m", "flagcert.cli", *args, "--format", "json"]


# -- checks against the benchmark's own computations ------------------------------
#
# Each check returns a list of problems; an empty list means the output is right.


@dataclass
class Reference:
    group_order: int
    burnside: int
    orbit_sizes: list[int]

    @classmethod
    def build(cls) -> "Reference":
        group = reference.template_group()
        return cls(len(group), reference.burnside_class_count(group),
                   reference.orbit_sizes(group))


def check_verify(obj) -> list[str]:
    bad = []
    if obj.get("passed") is not True:
        bad.append(f"verify did not pass: {obj.get('checks')}")
    names = {c["name"] for c in obj.get("checks", []) if c["passed"]}
    for name in ("classification", "base_vector", "psd_family_R", "psd_family_B",
                 "coefficients", "golden_expansions"):
        if name not in names:
            bad.append(f"check {name} missing or failed")
    coeffs = obj.get("coefficients", {})
    if sorted(coeffs, key=int) != [str(k) for k in range(1, 27)]:
        bad.append(f"coefficients cover classes {sorted(coeffs)}")
    if {Fraction(v) for v in coeffs.values()} | {Fraction(obj["bound"])} != {DENSITY_BOUND}:
        bad.append("a coefficient or the bound differs from 1/64")
    ones = [["1"] * 8]
    if [(p["is_psd"], p["kernel"]) for p in obj.get("psd", [])] != [(True, ones)] * 2:
        bad.append("a family matrix is not PSD with the all-ones kernel")
    return bad


def check_classify(ref: Reference, obj) -> list[str]:
    bad = []
    table = obj["table"]
    mults = [e["multiplicity"] for e in table]
    if obj["classes"] != ref.burnside or len(table) != ref.burnside:
        bad.append(f"{obj['classes']} classes; Burnside count is {ref.burnside}")
    if [e["index"] for e in table] != list(range(1, len(table) + 1)):
        bad.append("class indices are not 1..26 in order")
    if any(e["aut"] * e["multiplicity"] != ref.group_order for e in table):
        bad.append("a multiplicity differs from 72 / aut")
    if sum(mults) != 512 or obj["colourings"] != 512:
        bad.append(f"multiplicities sum to {sum(mults)}, not 512")
    if sorted(mults) != ref.orbit_sizes:
        bad.append("multiplicities differ from the orbit sizes under the 72 symmetries")
    return bad


def check_sweep(obj) -> list[str]:
    bad = []
    hosts = obj["hosts"]
    if hosts != 1 << 15 or obj["checks"] != SWEEP_CHECKS_PER_HOST * hosts:
        bad.append(f"{hosts} hosts, {obj['checks']} checks")
    if obj["passed"] is not True or any(v != 0 for v in obj["failures"].values()):
        bad.append(f"sweep failures {obj['failures']}")
    if set(obj["failures"]) != {"sum_to_one", "double_count", "expansions",
                                "flagged_inequality"}:
        bad.append(f"sweep reports {sorted(obj['failures'])}")
    if Fraction(obj["min_inequality_slack"]) < 0:
        bad.append("negative inequality slack")
    return bad


def check_inequality(n: int, seed: int, count: int, obj) -> list[str]:
    bad = []
    runs = obj["runs"]
    if obj["passed"] is not True or [r["seed"] for r in runs] != list(range(seed, seed + count)):
        bad.append("inequality run did not pass or covers other seeds")
    for run in runs:
        records = run["records"]
        if len(records) != 129 or not all(r["holds"] for r in records):
            bad.append(f"seed {run['seed']}: {run['summary']}")
        main = records[0]
        expected = reference.c6_density(n, run["seed"])
        if main["check"] != "flagged_inequality" or Fraction(main["lhs"]) != expected:
            bad.append(f"seed {run['seed']}: lhs {main['lhs']}, own count gives {expected}")
        if Fraction(main["rhs"]) < Fraction(main["lhs"]):
            bad.append(f"seed {run['seed']}: bound expression below the density")
    return bad


def check_identities(n: int, seed: int, obj) -> list[str]:
    records = {r["check"]: r for r in obj["records"]}
    bad = []
    if obj["passed"] is not True or obj["summary"] != {"checks": 130, "passed": 130, "failed": 0}:
        bad.append(f"identities summary {obj['summary']}")
    if len(records) != 130 or records.get("sum_to_one", {}).get("lhs") != "1":
        bad.append("class densities do not sum to one")
    lhs = records.get("double_count", {}).get("lhs")
    if lhs is None or Fraction(lhs) != reference.c6_density(n, seed):
        bad.append(f"double-count lhs {lhs} differs from the own cycle count")
    return bad


def check_montecarlo(n: int, trials: int, seed: int, obj) -> list[str]:
    values = [reference.c6_density(n, reference.trial_seed(seed, t)) for t in range(trials)]
    mean = sum(values, Fraction(0)) / trials
    bad = []
    if (obj["n"], obj["trials"], obj["seed"]) != (n, trials, seed):
        bad.append("Monte Carlo echoes other parameters")
    if (Fraction(obj["mean"]), Fraction(obj["min"]), Fraction(obj["max"])) != (
        mean, min(values), max(values)
    ):
        bad.append(f"n={n} seed={seed}: mean/min/max differ from the own trials")
    if abs(Fraction(obj["mean"]) - DENSITY_BOUND) >= Fraction(1, 1000):
        bad.append(f"n={n} seed={seed}: mean {obj['mean_approx']} is not within 1/1000 of 1/64")
    return bad


def check_exported(text: str) -> list[str]:
    obj = json.loads(text)
    bad = []
    if obj["base"] != PAPER_BASE or obj["bound"] != "1/64":
        bad.append(f"exported base {obj['base']}, bound {obj['bound']}")
    if len(obj.get("classes", [])) != 26 or len(obj["families"]) != 2:
        bad.append("exported certificate lacks 26 classes or two families")
    for fam in obj["families"]:
        m = [[Fraction(x) for x in row] for row in fam["matrix"]]
        if len(fam["flags"]) != 8 or any(m[i][j] != m[j][i] for i in range(8) for j in range(8)):
            bad.append("a family matrix is not 8x8 symmetric")
        if any(sum(row) != 0 for row in m):
            bad.append("the all-ones vector is not in a family matrix's kernel")
    return bad


# The outcome each certificate-stream input should reach, as in `flagcert
# verify --cert`: pass (exit 0), fail (exit 1) or SchemaError (exit 2).
EXPECTED_OUTCOME = {
    "exported": "pass",
    "mutated": "fail",
    "invalid": "SchemaError",
    "fault_class_n7": "SchemaError",
    "fault_duplicate_bound": "SchemaError",
}


def check_stream_item(item) -> list[str]:
    if item["kind"] == "exported":
        return check_verify(item["report"])
    if item["kind"] == "mutated" and "coefficients" not in item["failed_checks"]:
        return [f"a 1/128 mutation failed only {item['failed_checks']}"]
    return []


# -- workloads --------------------------------------------------------------------


@dataclass
class Op:
    kind: str
    argv: list[str]             # the fresh-process flagcert command
    job: dict                   # the same work as an in-process replay job
    check: Callable[[dict], list[str]]
    hosts: int = 1


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def certify_ops(ref: Reference, seed: int, r: int) -> list[Op]:
    return [
        Op("verify", cli("verify"), {"op": "verify"}, check_verify),
        Op("classify", cli("classify"), {"op": "classify"}, partial(check_classify, ref)),
        Op("sweep", cli("oracle", "exhaustive"), {"op": "sweep"}, check_sweep),
    ]


def random_hosts_ops(ref: Reference, seed: int, r: int) -> list[Op]:
    rng = round_rng("random-hosts", seed, r)
    s10, s14, sid = (rng.getrandbits(62) for _ in range(3))

    def inequality(n, s, count):
        return Op(f"inequality_n{n}",
                  cli("oracle", "inequality", "--n", str(n), "--seed", str(s),
                      "--count", str(count)),
                  {"op": "inequality", "n": n, "seed": s, "count": count},
                  partial(check_inequality, n, s, count), hosts=count)

    return [
        inequality(10, s10, N10_HOSTS),
        inequality(14, s14, 1),
        Op("identities_n10", cli("oracle", "identities", "--n", "10", "--seed", str(sid)),
           {"op": "identities", "n": 10, "seed": sid}, partial(check_identities, 10, sid)),
    ]


def montecarlo_ops(ref: Reference, seed: int, r: int) -> list[Op]:
    rng = round_rng("montecarlo", seed, r)
    ops = []
    # 50 trials at n=150 against 5: the difference is the cost of 45 trials
    for kind, n, trials in (("mc_n150", 150, 50), ("mc_n600", 600, 1), ("mc_n150_t5", 150, 5)):
        s = rng.getrandbits(62)
        ops.append(Op(kind,
                      cli("oracle", "montecarlo", "--n", str(n), "--trials", str(trials),
                          "--seed", str(s)),
                      {"op": "montecarlo", "n": n, "trials": trials, "seed": s},
                      partial(check_montecarlo, n, trials, s)))
    return ops


COMMAND_WORKLOADS = {
    "certify": certify_ops,
    "random-hosts": random_hosts_ops,
    "montecarlo": montecarlo_ops,
}
WORKLOADS = (*COMMAND_WORKLOADS, "cert-batch")


# -- one run ----------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    ref: Reference
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    rounds: list[dict] = field(default_factory=list)
    spans: list = field(default_factory=list)
    last_calibration: tuple[float, float] | None = None  # (seconds, finished at)

    def timed_spawn(self, args: list[str], stdin_text: str | None = None) -> tuple[Proc, float]:
        """Spawn between two calibration loops; also return the speed scale.

        A calibration that ended within the last half second serves as the
        next command's "before" loop.
        """
        last = self.last_calibration
        before = last[0] if last and perf_counter() - last[1] < 0.5 else calibrate()
        p = spawn(args, stdin_text)
        after = calibrate()
        self.last_calibration = (after, perf_counter())
        return p, speed_scale(before, after)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def judge(self, what: str, ok_exit: bool, problems) -> None:
        """Count one operation; a wrong exit fails it, wrong output is incorrect."""
        self.attempted += 1
        if not ok_exit:
            self.failed += 1
        else:
            self.problems.extend(f"{what}: {p}" for p in problems)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


SETUP_PROBE = ["-c", "import flagcert.cli, flagcert.oracle"]


def probe_setup(run: Run, samples: int) -> None:
    """Time fresh interpreters importing the CLI and the oracle.

    Probes are spread over the run (before, between and after rounds) so
    that a slow spell of the machine does not decide the median alone.
    """
    for _ in range(samples):
        p, scale = run.timed_spawn(SETUP_PROBE)
        if p.code != 0:
            run.problems.append(f"importing flagcert failed: {stderr_tail(p)}")
        run.sample("setup_s", p.wall_s * scale)
        run.sample("setup_raw_s", p.wall_s)


def run_replay(run: Run, job: dict) -> tuple[Proc, float, dict | None]:
    p, scale = run.timed_spawn([REPLAY], json.dumps(job))
    try:
        return p, scale, last_json(p.stdout) if p.code == 0 else None
    except json.JSONDecodeError:
        return p, scale, None


def scale_layers(layers: dict[str, list[int]], scale: float) -> dict[str, list[float]]:
    return {k: [calls, incl * scale, self_ns * scale, work]
            for k, (calls, incl, self_ns, work) in layers.items()}


def command_rounds(run: Run, trace: bool) -> None:
    """Whole rounds of the workload's commands until the run's seconds have passed."""
    make_ops = COMMAND_WORKLOADS[run.workload]
    start = perf_counter()
    while not run.rounds or perf_counter() - start < run.seconds:
        r = len(run.rounds)
        ops = []
        for traced in ((True, False) if trace else (False,)):
            for op in make_ops(run.ref, run.seed, r):
                if trace:
                    p, scale, result = run_replay(run, dict(op.job, trace=traced))
                    output = result and result["output"]
                else:
                    (p, scale), result = run.timed_spawn(op.argv), None
                    try:
                        output = json.loads(p.stdout) if p.code == 0 else None
                    except json.JSONDecodeError:
                        output = None
                run.judge(f"{op.kind} seed {run.seed} round {r}", output is not None,
                          op.check(output) if output is not None else [])
                if output is None:
                    run.problems.append(f"{op.kind}: exit {p.code}: {stderr_tail(p)}")
                ops.append({"kind": op.kind, "traced": traced, "hosts": op.hosts,
                            "wall_s": p.wall_s, "scale": scale, "rss_mb": p.rss_mb,
                            "time_s": result["time_s"] * scale if result else 0.0,
                            "layers": scale_layers(result["layers"], scale) if result else {}})
                if result and traced and r == 0:
                    run.spans.append({"op": op.kind, "spans": result["spans"]})
        run.rounds.append({"ops": ops})
        if not trace:
            probe_setup(run, 1)


def certbatch(run: Run, trace: bool) -> None:
    p = spawn(["-m", "flagcert.cli", "export-cert"])
    if p.code != 0:
        run.problems.append(f"export-cert exit {p.code}: {stderr_tail(p)}")
        return
    run.problems.extend(f"export-cert: {x}" for x in check_exported(p.stdout))
    # Two halves, each one process with its own warm-up: traced then untraced
    # under --trace 1, with set-up probes between them otherwise.
    for half, traced in enumerate((trace, False)):
        if half and not trace:
            probe_setup(run, 3)
        proc, _, result = run_replay(run, {"op": "certbatch", "text": p.stdout, "seed": run.seed,
                                      "half": half, "seconds": run.seconds / 2,
                                      "trace": traced})
        if result is None:
            run.problems.append(f"certificate stream exit {proc.code}: {stderr_tail(proc)}")
            continue
        if result["warmup"]["outcome"] != "pass":
            run.problems.append(f"warm-up certificate: {result['warmup']}")
        for r, rnd in enumerate(result["rounds"]):
            scale = speed_scale(*rnd["cal_s"])
            for item in rnd["items"]:
                run.judge(f"{item['kind']} seed {run.seed} half {half} round {r}",
                          item["outcome"] == EXPECTED_OUTCOME[item["kind"]],
                          check_stream_item(item))
            run.rounds.append({
                "traced": traced, "rss_mb": proc.rss_mb, "scale": scale,
                "layers": scale_layers(rnd["layers"], scale),
                "items": [{"kind": i["kind"], "outcome": i["outcome"], "raw_s": i["time_s"],
                           "time_s": i["time_s"] * scale} for i in rnd["items"]],
            })
        if traced:
            run.spans.append({"op": "certbatch", "spans": result["spans"]})


# -- metrics ----------------------------------------------------------------------


OP_SLOTS = {
    "certify": ("verify", "classify", "sweep"),
    "random-hosts": ("inequality_n10", "inequality_n14", "identities_n10"),
    "montecarlo": ("mc_n150", "mc_n600", "mc_n150_t5"),
    "cert-batch": ("exported", "mutated", "invalid"),
}


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, dict]]:
    """BENCHMARK.json's end-to-end values, and the same timings under their own names."""
    for rnd in run.rounds:
        if run.workload == "cert-batch":
            for item in rnd["items"]:
                run.sample(item["kind"], item["time_s"])
                run.sample(item["kind"] + "_raw", item["raw_s"])
            run.sample("round_s", sum(item["time_s"] for item in rnd["items"]))
            run.sample("peak_rss_mb", rnd["rss_mb"])
        else:
            for op in rnd["ops"]:
                run.sample(op["kind"], op["wall_s"] * op["scale"] / op["hosts"])
                run.sample(op["kind"] + "_raw", op["wall_s"] / op["hosts"])
                run.sample(op["kind"] + "_rss_mb", op["rss_mb"])
            run.sample("round_s", sum(op["wall_s"] * op["scale"] for op in rnd["ops"]))
            run.sample("peak_rss_mb", max(op["rss_mb"] for op in rnd["ops"]))
    slots = OP_SLOTS[run.workload]
    values = {"setup_s": run.median("setup_s"), "round_s": run.median("round_s"),
              "peak_rss_mb": run.median("peak_rss_mb")}
    for k, kind in enumerate(slots, start=1):
        values[f"op{k}_s"] = run.median(kind)

    def named(source, unit="s", rate=False, raw=None):
        value, raw_value = run.median(source), run.median(raw or source + "_raw")
        if rate:
            value, raw_value = 1 / value, 1 / raw_value
        return {"value": value, "unit": unit, "median_of": len(run.samples[source]),
                "raw": raw_value}

    by_name = {"setup_s": named("setup_s", raw="setup_raw_s")}
    if run.workload == "certify":
        for kind in slots:
            by_name[f"{kind}_s"] = named(kind)
        by_name["sweep_peak_rss_mb"] = named("sweep_rss_mb", "MB", raw="sweep_rss_mb")
    elif run.workload == "random-hosts":
        by_name["inequality_n10_hosts_per_s"] = named("inequality_n10", "1/s", rate=True)
        by_name["inequality_n14_hosts_per_s"] = named("inequality_n14", "1/s", rate=True)
        by_name["identities_n10_s"] = named("identities_n10")
    elif run.workload == "montecarlo":
        by_name["mc_n150_s"] = named("mc_n150")
        by_name["mc_n600_trials_per_s"] = named("mc_n600", "1/s", rate=True)
        by_name["mc_n150_5_trials_s"] = named("mc_n150_t5")
    else:
        items = [i for rnd in run.rounds for i in rnd["items"]]
        by_name["cert_batch_certs_per_s"] = {
            "value": len(items) / sum(i["time_s"] for i in items), "unit": "1/s",
            "certificates": len(items), "raw": len(items) / sum(i["raw_s"] for i in items)}
    return values, by_name


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    """Per-round layer totals from the traced rounds, as low medians over rounds.

    A name `<module>.<function>.<field>` reads field calls, s (inclusive
    seconds), self_s (seconds less child spans) or gops (computed integer
    operations per nanosecond) of that function's spans.
    """
    traced, plain = [], []
    for rnd in run.rounds:
        if run.workload == "cert-batch":
            total = sum(i["time_s"] for i in rnd["items"])
            (traced if rnd["traced"] else plain).append((total, [rnd["layers"]]))
        else:
            for flag, bucket in ((True, traced), (False, plain)):
                ops = [op for op in rnd["ops"] if op["traced"] is flag]
                bucket.append((sum(op["time_s"] for op in ops), [op["layers"] for op in ops]))
    values = {}
    for name in names:
        if name == "trace.overhead_pct":
            values[name] = 100 * (statistics.median(t for t, _ in traced)
                                  / statistics.median(t for t, _ in plain) - 1)
            continue
        func, fld = name.rsplit(".", 1)
        per_round = []
        for _, layer_sets in traced:
            calls = incl = self_ns = work = 0
            for layers in layer_sets:
                row = layers.get(func, [0, 0, 0, 0])
                calls, incl, self_ns, work = (calls + row[0], incl + row[1],
                                              self_ns + row[2], work + row[3])
            per_round.append({"calls": calls, "s": incl / 1e9, "self_s": self_ns / 1e9,
                              "gops": work / incl if incl else 0.0}[fld])
        values[name] = statistics.median_low(per_round)
    return values


# -- entry point ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 ref: Reference) -> dict:
    run = Run(workload, seed, seconds, ref)
    if not trace:
        spawn(SETUP_PROBE)  # compiles bytecode on a fresh checkout; not timed
        probe_setup(run, 3)
    if workload == "cert-batch":
        certbatch(run, trace)
    else:
        command_rounds(run, trace)
    if not trace:
        probe_setup(run, 3)
    if not run.rounds:
        run.problems.append("no round completed")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": reference.np.__version__, "platform": platform.platform()}}
    metric_spec = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values = per_layer(run, [m["name"] for m in metric_spec]) if run.rounds else {}
        record["spans"] = run.spans
    else:
        values, by_name = end_to_end(run) if run.rounds else ({}, {})
        record["named"] = by_name
        print(json.dumps({"workload": workload, "named": by_name}))
    for problem in run.problems:
        print(f"[{workload}] {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems and len(values) == len(metric_spec),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_spec if m["name"] in values},
    }
    record.update(result, problems=run.problems, samples=run.samples, rounds=run.rounds)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagcert" / "cli.py").is_file():
        print(f"flagcert sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    # One CPU for the benchmark and every process it starts: the calibration
    # loop then measures the CPU the command runs on, and no process migrates.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref = Reference.build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec, ref)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
