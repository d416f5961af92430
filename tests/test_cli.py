"""Command-line interface: outputs, exit statuses, format equivalence."""

import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcert import oracle
from flagcert.certificate import (
    SchemaError,
    builtin_certificate,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from flagcert.cli import run

from test_certificate import (
    BEYOND_LIMITS,
    MALFORMED,
    VERIFY_FIXTURES,
    _edited,
    _triangle_in_red_flag_1,
)

ORACLE_GUARD_ERROR = (
    "error: host with 65 vertices rejected: oracle host checks are limited to n <= 64\n"
)



def _shifted_certificate_text() -> str:
    """The exported certificate with one matrix entry moved by 1/128."""
    obj = json.loads(save_certificate(builtin_certificate()))
    row = obj["families"][0]["matrix"][0]
    row[0] = str(Fraction(row[0]) + Fraction(1, 128))
    return json.dumps(obj, indent=2)


def _shifted_certificate_path(tmp_path) -> str:
    path = tmp_path / "shifted.json"
    path.write_text(_shifted_certificate_text(), encoding="utf-8")
    return str(path)


# name: (argv given a scratch directory, library report or None, exit status)
REPORT_COMMANDS = {
    "verify": (lambda tmp: ["verify"], lambda: verify_certificate(builtin_certificate()), 0),
    "verify_shifted": (
        lambda tmp: ["verify", "--cert", _shifted_certificate_path(tmp)],
        lambda: verify_certificate(load_certificate(_shifted_certificate_text())),
        1,
    ),
    "classify": (lambda tmp: ["classify"], None, 0),
    "expand": (lambda tmp: ["expand", "--family", "R", "--i", "2", "--j", "7"], None, 0),
    "identities": (
        lambda tmp: ["oracle", "identities", "--n", "7", "--seed", "2"],
        lambda: oracle.check_identities(oracle.random_clique_coloring(7, 2)),
        0,
    ),
    "inequality": (
        lambda tmp: ["oracle", "inequality", "--n", "7", "--seed", "1", "--count", "2"],
        None,
        0,
    ),
    "exhaustive": (lambda tmp: ["oracle", "exhaustive"], oracle.exhaustive_k6_sweep, 0),
    "montecarlo": (
        lambda tmp: ["oracle", "montecarlo", "--n", "12", "--trials", "3", "--seed", "5"],
        lambda: oracle.monte_carlo_mean(12, 3, 5),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_COMMANDS))
def test_report_formats_agree(name, tmp_path, capsys):
    argv, library, expected = REPORT_COMMANDS[name]
    argv = argv(tmp_path)
    status_text = run([*argv, "--format", "text"])
    text = capsys.readouterr()
    status_json = run([*argv, "--format", "json"])
    out = capsys.readouterr()
    assert status_text == status_json == expected
    assert text.err == out.err == ""
    assert text.out.strip()
    payload = json.loads(out.out)
    if "passed" in payload:
        assert payload["passed"] is (expected == 0)
    if library is not None:
        assert out.out == json.dumps(library().to_dict(), indent=2) + "\n"


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("fixture", sorted(VERIFY_FIXTURES))
def test_verify_json_matches_fixture(fixture, tmp_path, capsys):
    edit = VERIFY_FIXTURES[fixture]
    argv = ["verify", "--format", "json"]
    if edit is not None:
        path = tmp_path / "cert.json"
        path.write_text(_edited(edit), encoding="utf-8")
        argv += ["--cert", str(path)]
    status = run(argv)
    captured = capsys.readouterr()
    assert captured.out == (FIXTURES / fixture).read_text(encoding="utf-8")
    assert captured.err == ""
    assert status == (0 if edit is None else 1)


# `oracle --format json` output pinned byte for byte, as the Fraction-based
# evaluator wrote it; n = 14 is the host size of the benchmark's
# `random-hosts` inequality op, and n = 64, the host cap, was written by the
# int64 kernel before K3,3 and K4 rows read side tensors
ORACLE_FIXTURES = {
    "oracle_identities_n10_seed1.json": ["identities", "--n", "10", "--seed", "1"],
    "oracle_identities_n64_seed1.json": ["identities", "--n", "64", "--seed", "1"],
    "oracle_inequality_n10_seed1.json": ["inequality", "--n", "10", "--seed", "1"],
    "oracle_inequality_n14_seed1.json": ["inequality", "--n", "14", "--seed", "1"],
    "oracle_exhaustive.json": ["exhaustive"],
    "oracle_montecarlo_n40_seed1.json": ["montecarlo", "--n", "40", "--trials", "7", "--seed", "1"],
}


@pytest.mark.parametrize("fixture", sorted(ORACLE_FIXTURES))
def test_oracle_json_matches_fixture(fixture, capsys):
    status = run(["oracle", *ORACLE_FIXTURES[fixture], "--format", "json"])
    captured = capsys.readouterr()
    assert captured.out == (FIXTURES / fixture).read_text(encoding="utf-8")
    assert captured.err == ""
    assert status == 0


class TestVerify:
    def test_builtin_json(self, capsys):
        status = run(["verify", "--builtin", "c6a", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["passed"] is True
        assert len(out["coefficients"]) == 26
        assert all(v == "1/64" for v in out["coefficients"].values())

    def test_text_and_json_agree(self, capsys):
        status_text = run(["verify", "--format", "text"])
        text = capsys.readouterr().out
        status_json = run(["verify", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status_text == status_json == 0
        assert "verdict: pass" in text
        for check in payload["checks"]:
            expected = "pass" if check["passed"] else "FAIL"
            assert f"[{expected}] {check['name']}" in text

    def test_cert_file_round(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        assert run(["export-cert", "--out", str(path)]) == 0
        capsys.readouterr()
        status = run(["verify", "--cert", str(path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["passed"] is True

    def test_schema_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x"}')
        status = run(["verify", "--cert", str(path)])
        err = capsys.readouterr().err
        assert status == 2
        assert "schema error" in err

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_certificate_exit_2(self, kind, tmp_path, capsys):
        make, where = MALFORMED[kind]
        path = tmp_path / "malformed.json"
        path.write_text(make(), encoding="utf-8")
        status = run(["verify", "--cert", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("schema error:")
        assert where in captured.err
        assert captured.out == ""

    # a UTF-16 byte-order mark, and the exported certificate in UTF-16
    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{}", save_certificate(builtin_certificate()).encode("utf-16")]
    )
    def test_non_utf8_certificate_is_a_schema_error(self, data, tmp_path, capsys):
        path = tmp_path / "encoded.json"
        path.write_bytes(data)
        status = run(["verify", "--cert", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith("schema error: $: not UTF-8 text: 'utf-8' codec can't decode")
        assert captured.out == ""

    @pytest.mark.parametrize("make, where", BEYOND_LIMITS)
    def test_certificate_beyond_interpreter_limits_exit_2(self, make, where, tmp_path, capsys):
        path = tmp_path / "oversized.json"
        path.write_text(make(), encoding="utf-8")
        status = run(["verify", "--cert", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.startswith(f"schema error: {where}")
        assert captured.out == ""

    def test_failing_certificate_exit_1(self, tmp_path, capsys):
        exported = tmp_path / "cert.json"
        assert run(["export-cert", "--out", str(exported)]) == 0
        capsys.readouterr()
        obj = json.loads(exported.read_text())
        obj["families"][0]["matrix"][0][0] = "3/128"
        obj["families"][1]["matrix"][0][0] = "3/128"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        status = run(["verify", "--cert", str(bad), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 1
        assert out["passed"] is False
        failing = {c["name"] for c in out["checks"] if not c["passed"]}
        assert "coefficients" in failing


    def test_triangle_target_loads_and_fails_exit_1(self, tmp_path, capsys):
        # a target that fits the template but never embeds is a failed check
        exported = tmp_path / "cert.json"
        assert run(["export-cert", "--out", str(exported)]) == 0
        capsys.readouterr()
        obj = json.loads(exported.read_text())
        obj["target"] = {"n": 3, "edges": [[0, 1, "R"], [0, 2, "R"], [1, 2, "R"]]}
        bad = tmp_path / "triangle.json"
        bad.write_text(json.dumps(obj))
        status = run(["verify", "--cert", str(bad), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 1
        failing = {c["name"] for c in out["checks"] if not c["passed"]}
        assert "base_vector" in failing

    def test_triangle_in_flag_products_fails_exit_1(self, tmp_path, capsys):
        # a flag product the template cannot hold fails the coefficients check only
        bad = tmp_path / "triangle_flag.json"
        bad.write_text(_edited(_triangle_in_red_flag_1), encoding="utf-8")
        status = run(["verify", "--cert", str(bad), "--format", "json"])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert status == 1
        assert captured.err == ""
        assert [c["name"] for c in out["checks"] if not c["passed"]] == ["coefficients"]
        assert out["coefficients"] == {}

    def test_export_to_stdout(self, capsys):
        status = run(["export-cert"])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out == save_certificate(builtin_certificate())
        assert captured.err == ""


def _json_paths(value, path=()):
    """Every path into a JSON value, its root included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(item, (*path, key))


_EXPORTED = save_certificate(builtin_certificate())
_EXPORTED_PATHS = tuple(_json_paths(json.loads(_EXPORTED)))
# Wrong types, out-of-range integers and near-valid fragments (an edge, a loop,
# two roots, a graph) that reach the checks behind the JSON typing.
_REPLACEMENTS = (
    None, False, True, -1, 0, 1, 2, 5, 6, 8, 9, 2**70, "X", "R", "1/2",
    [], [0], [0, 0], [0, 1], [0, 1, "R"], [2, 2, "R"], [[0, 1, "B"]],
    {}, {"n": 2, "edges": [[0, 1, "R"]]},
)


@st.composite
def mutated_certificates(draw):
    """The exported certificate with one value replaced, or one key or element deleted."""
    obj = json.loads(_EXPORTED)
    path = draw(st.sampled_from(_EXPORTED_PATHS))
    if path and draw(st.booleans()):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        value = draw(st.sampled_from(_REPLACEMENTS))
        if not path:
            return json.dumps(value)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return json.dumps(obj, indent=2)


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=mutated_certificates())
    def test_mutations_end_in_a_report_or_a_schema_error(self, text, tmp_path_factory):
        try:
            report = verify_certificate(load_certificate(text))
        except SchemaError:
            expected = 2
        else:
            assert report.to_dict()["passed"] is report.passed
            expected = 0 if report.passed else 1
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            status = run(["verify", "--cert", str(path)])
        assert status == expected
        assert err.getvalue().startswith("schema error:") is (status == 2)


class TestClassify:
    def test_text_headline(self, capsys):
        status = run(["classify", "--template", "k33"])
        out = capsys.readouterr().out
        assert status == 0
        assert out.splitlines()[0] == "512 colourings, 26 classes"

    def test_json_table(self, capsys):
        status = run(["classify", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["colourings"] == 512
        assert out["classes"] == 26
        assert sum(row["multiplicity"] for row in out["table"]) == 512


class TestExpand:
    def test_published_first_product(self, capsys):
        status = run(["expand", "--family", "R", "--i", "1", "--j", "1"])
        out = capsys.readouterr().out.strip()
        assert status == 0
        assert out == "J1: 72/72, J2: 16/72, J3: 4/72"

    def test_published_mixed_product(self, capsys):
        status = run(["expand", "--family", "R", "--i", "2", "--j", "7"])
        out = capsys.readouterr().out.strip()
        assert status == 0
        assert out == "J4: 12/72, J9: 4/72, J11: 2/72"

    def test_json_canonical(self, capsys):
        status = run(["expand", "--family", "B", "--i", "8", "--j", "8", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["expansion"] == {"2": "1/9", "3": "1/9", "4": "1/6"}

    def test_bad_index_exit_2(self, capsys):
        assert run(["expand", "--family", "R", "--i", "0", "--j", "1"]) == 2
        assert capsys.readouterr().err == "error: flag indices must be between 1 and 8\n"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["verify", "--no-such-flag"]) == 2

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_command(self, capsys):
        assert run([]) == 2


class TestOracleCommands:
    def test_identities(self, capsys):
        status = run(["oracle", "identities", "--n", "7", "--seed", "1", "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["passed"] is True
        assert out["summary"]["failed"] == 0

    def test_inequality(self, capsys):
        status = run(
            ["oracle", "inequality", "--n", "7", "--seed", "0", "--count", "2", "--format", "json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["passed"] is True
        assert len(out["runs"]) == 2

    def test_inequality_text_marks_approximations(self, capsys):
        status = run(["oracle", "inequality", "--n", "6", "--seed", "3"])
        out = capsys.readouterr().out
        assert status == 0
        assert "approx." in out

    def test_montecarlo(self, capsys):
        status = run(
            ["oracle", "montecarlo", "--n", "8", "--trials", "2", "--seed", "11", "--format", "json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["n"] == 8 and out["trials"] == 2
        assert "/" in out["mean"] or out["mean"].isdigit()

    def test_oracle_guard_exit_2(self, capsys):
        status = run(["oracle", "inequality", "--n", "65", "--seed", "0"])
        assert status == 2
        assert capsys.readouterr().err == ORACLE_GUARD_ERROR

    def test_oracle_identities_guard_exit_2(self, capsys):
        status = run(["oracle", "identities", "--n", "65", "--seed", "0"])
        assert status == 2
        assert capsys.readouterr().err == ORACLE_GUARD_ERROR

    @pytest.mark.parametrize("check", ["inequality", "identities"])
    def test_oracle_guard_runs_before_the_colour_draw(self, check, capsys, monkeypatch):
        def draw(n, seed):
            raise AssertionError("colour draw reached")

        monkeypatch.setattr(oracle, "random_clique_coloring", draw)
        assert run(["oracle", check, "--n", "100000", "--seed", "0"]) == 2
        assert "host with 100000 vertices rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["inequality", "identities"])
    @pytest.mark.parametrize("n", ["5", "0"])
    def test_oracle_refuses_hosts_below_six_vertices(self, check, n, capsys, monkeypatch):
        def draw(n, seed):
            raise AssertionError("colour draw reached")

        monkeypatch.setattr(oracle, "random_clique_coloring", draw)
        assert run(["oracle", check, "--n", n, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: host with {n} vertices rejected: oracle host checks need at least 6 vertices\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_inequality_refuses_counts_below_one(self, count, capsys, monkeypatch):
        def draw(n, seed):
            raise AssertionError("colour draw reached")

        monkeypatch.setattr(oracle, "random_clique_coloring", draw)
        status = run(["oracle", "inequality", "--count", count, "--format", "json"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err == f"error: --count must be at least 1, got {count}\n"
        assert captured.out == ""

    def test_montecarlo_overflow_guard_exit_2(self, capsys):
        status = run(["oracle", "montecarlo", "--n", "6210", "--trials", "1"])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: host with 6210 vertices rejected")

    def test_montecarlo_accepts_n_1449(self, capsys):
        status = run(["oracle", "montecarlo", "--n", "1449", "--trials", "1", "--format", "json"])
        assert status == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1449


# Which commands import numpy, each in a fresh interpreter: only the oracle's
# host and sweep counts need it; the verifier counts in Python integers.
# `oracle exhaustive` shows that the harness sees numpy when it loads.  argv
# given a scratch directory, exit status, numpy.
IMPORT_BOUNDARY = {
    "classify": (lambda tmp: ["classify"], 0, False),
    "export-cert": (lambda tmp: ["export-cert"], 0, False),
    "expand": (lambda tmp: ["expand", "--family", "R", "--i", "2", "--j", "3"], 0, False),
    "help": (lambda tmp: ["--help"], 0, False),
    "oracle_exhaustive": (lambda tmp: ["oracle", "exhaustive"], 0, True),
    "verify_schema_error": (
        lambda tmp: ["verify", "--cert", _schema_invalid_path(tmp)], 2, False
    ),
    "verify": (lambda tmp: ["verify"], 0, False),
    "verify_exported": (lambda tmp: ["verify", "--cert", _exported_path(tmp)], 0, False),
}
# Commands that need no certificate never import its module.
CERTIFICATE_FREE = ("classify", "help")

SRC = Path(__file__).resolve().parents[1] / "src"


def _schema_invalid_path(tmp_path) -> str:
    obj = json.loads(save_certificate(builtin_certificate()))
    obj["target"]["n"] = 9  # above the 8-vertex graph cap
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _exported_path(tmp_path) -> str:
    path = tmp_path / "exported.json"
    path.write_text(save_certificate(builtin_certificate()), encoding="utf-8")
    return str(path)


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", sorted(IMPORT_BOUNDARY))
def test_numpy_loads_only_for_commands_that_count(name, tmp_path):
    argv, expected_status, loads_numpy = IMPORT_BOUNDARY[name]
    code = (
        "import json, sys\n"
        "from flagcert.cli import run\n"
        "status = run(sys.argv[1:])\n"
        "loaded = [m in sys.modules for m in ('numpy', 'flagcert.certificate')]\n"
        "print(json.dumps([status, *loaded]), file=sys.stderr)\n"
    )
    proc = _fresh_python(code, *argv(tmp_path))
    assert proc.returncode == 0, proc.stderr
    status, numpy_loaded, certificate_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert status == expected_status
    assert numpy_loaded is loads_numpy
    assert certificate_loaded is (name not in CERTIFICATE_FREE)


# The flagcert modules a fresh process holds after one command, or (None) after
# importing the oracle alone.
MODULE_FOOTPRINT = {
    "help": (["--help"], ["cli"]),
    "classify": (["classify"], ["builtin", "cli", "graphs"]),
    "verify": (["verify"], ["builtin", "certificate", "cli", "graphs"]),
    "oracle_montecarlo": (
        ["oracle", "montecarlo", "--n", "40", "--trials", "1", "--format", "json"],
        ["cli", "counting", "graphs", "oracle"],
    ),
    # the checks that read the builtin certificate import its layer themselves
    "oracle_identities": (
        ["oracle", "identities", "--n", "10"],
        ["builtin", "certificate", "cli", "counting", "graphs", "oracle"],
    ),
    "import_oracle": (None, ["counting", "graphs", "oracle"]),
}


@pytest.mark.parametrize("name", sorted(MODULE_FOOTPRINT))
def test_each_command_loads_only_its_modules(name):
    argv, modules = MODULE_FOOTPRINT[name]
    statement = "import flagcert.oracle"
    if argv is not None:
        statement = f"from flagcert.cli import run\nassert run({argv!r}) == 0"
    code = (
        f"import sys\n{statement}\n"
        "print(sorted(m for m in sys.modules if m.startswith('flagcert.')), file=sys.stderr)\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str([f"flagcert.{m}" for m in modules])


def test_importing_the_package_loads_no_module():
    code = (
        "import sys, flagcert\n"
        "print([m for m in sys.modules if m.startswith('flagcert.') or m.split('.')[0] == 'numpy'])\n"
    )
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_imports_a_private_name_from_a_sibling():
    for path in sorted((SRC / "flagcert").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("flagcert")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


class TestClosedStdout:
    """A reader that closes the pipe early changes neither stderr nor the status."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (lambda tmp: ["classify"], 0),
            (lambda tmp: ["verify", "--cert", _shifted_certificate_path(tmp)], 1),
            (lambda tmp: ["export-cert"], 0),
        ],
        ids=["classify", "verify_shifted", "export-cert"],
    )
    def test_status_and_silence(self, argv, status, tmp_path):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "flagcert.cli", *argv(tmp_path)],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.stderr == b""
        assert proc.returncode == status
