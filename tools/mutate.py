"""Mutation check for flagcert's checking and counting functions.

Each mutant makes one small edit inside one named function: a comparison
flipped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``in``/``not in``), an arithmetic or bit operator swapped (``+``/``-``,
``*``/``//``, ``&``/``|``, ``<<``/``>>``), ``and``/``or`` swapped, a ``not``
dropped, or an integer constant raised by 1.  The script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a work directory, writes each mutant
there and runs pytest on the copy with ``-x``; the checkout is never written.
A mutant that fails a test (or runs past ``TIMEOUT`` seconds) is killed; one that
passes every test survives and needs a test that kills it, or an entry in
``EQUIVALENT`` saying why no test can.

    python tools/mutate.py graphs.shape_maps counting._embeddings --jobs 2
    python tools/mutate.py graphs.ColoredGraph.swap_colors --list

Killed mutants stop at the first failing test, so list the test files most
likely to fail first with ``--tests``.  Exit status 1 when a mutant survives
that ``EQUIVALENT`` does not list.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds before a test run counts as killed: a mutant that loops never ends.
TIMEOUT = 600.0

# Mutants no test can kill, keyed as ``site`` prints them, each with its reason.
EQUIVALENT = {
    "counting._embeddings: lru_cache(maxsize=32) [32 -> 33]":
        "cache size only: every caller gets the same arrays, a larger cache holds more of them",
    "counting._embeddings: np.broadcast_to(bit, free.shape)[free].reshape(len(rows), -1) [1 -> 2]":
        "numpy 2.4 reads any negative reshape size as the one unknown dimension, as it does -1",
}

_COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
           ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.LShift: ast.RShift, ast.RShift: ast.LShift}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
           ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.BitAnd: "&", ast.BitOr: "|",
           ast.LShift: "<<", ast.RShift: ">>", ast.And: "and", ast.Or: "or"}


def _edits(node: ast.AST):
    """The mutations of one node: ``(change, apply)`` with ``apply()`` editing it in place."""
    def swap(attr, index, old, new):
        def apply():
            if index is None:
                setattr(node, attr, new())
            else:
                getattr(node, attr)[index] = new()
        return f"{_SYMBOL[type(old)]} -> {_SYMBOL[new]}", apply

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            yield swap("ops", i, op, _COMPARE[type(op)])
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        yield swap("op", None, node.op, _BINARY[type(node.op)])
    elif isinstance(node, ast.BoolOp):
        yield swap("op", None, node.op, _BOOL[type(node.op)])
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        # ``not not x`` has the truth of x: the ``not`` is dropped
        yield "not dropped", lambda: setattr(node, "operand", ast.UnaryOp(ast.Not(), node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} -> {node.value + 1}", lambda: setattr(node, "value", node.value + 1)


def _find(tree: ast.Module, path: list[str]) -> ast.FunctionDef:
    body = tree.body
    for name in path:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if node is None:
            raise SystemExit(f"no function {'.'.join(path)}")
        body = node.body
    return node


def mutants(qualname: str):
    """Every mutant of one function ``module.[Class.]function``: ``(site, file, text)``.

    ``site`` names the function, the source of the mutated expression and the
    change; ``text`` is the whole module with only that function rewritten.
    """
    module, *path = qualname.split(".")
    file = ROOT / "src" / "flagcert" / f"{module}.py"
    source = file.read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    count = 0
    seen: dict[str, int] = {}
    while True:
        tree = ast.parse(source)
        func = _find(tree, path)
        # annotations are never run, so their operators are no sites
        notes = {id(n) for a in ast.walk(func) if isinstance(a, ast.arg) and a.annotation
                 for n in ast.walk(a.annotation)} | {id(n) for n in ast.walk(func.returns or ast.Pass())}
        sites = [(node, change, apply) for node in ast.walk(func) if id(node) not in notes
                 for change, apply in _edits(node)]
        if count >= len(sites):
            return
        node, change, apply = sites[count]
        count += 1
        where = ast.unparse(node) if not isinstance(node, ast.Constant) else _enclosing(func, node)
        site = f"{qualname}: {where} [{change}]"
        seen[site] = seen.get(site, 0) + 1
        if seen[site] > 1:
            site += f" #{seen[site]}"
        apply()
        start = min([func.lineno] + [d.lineno for d in func.decorator_list])
        indent = " " * func.col_offset
        body = textwrap.indent(ast.unparse(func), indent) + "\n"
        yield site, file, "".join(lines[: start - 1]) + body + "".join(lines[func.end_lineno:])


def _enclosing(func: ast.AST, constant: ast.Constant) -> str:
    """Source of the smallest call, comparison, operation or subscript holding a constant."""
    kinds = (ast.Call, ast.Compare, ast.BinOp, ast.Subscript)
    holders = [n for n in ast.walk(func) if isinstance(n, kinds) and any(c is constant for c in ast.walk(n))]
    return ast.unparse(min(holders, key=lambda n: len(ast.unparse(n)))) if holders else repr(constant.value)


def _copy(work: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    return work


def _run(work: Path, file: Path, text: str, tests: list[str]) -> str:
    """Write one mutant into ``work``, run the tests, restore the module: KILLED or SURVIVED."""
    target = work / file.relative_to(ROOT)
    original = target.read_text(encoding="utf-8")
    target.write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT)
        verdict = "SURVIVED" if done.returncode == 0 else "KILLED"
    except subprocess.TimeoutExpired:
        verdict = "KILLED (timeout)"
    finally:
        target.write_text(original, encoding="utf-8")
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help="module.function or module.Class.method")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest paths, run in order")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once, each in its own copy")
    parser.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    found = [m for name in args.functions for m in mutants(name)]
    if args.list:
        for site, *_ in found:
            print(site)
        return 0
    todo = [m for m in found if m[0] not in EQUIVALENT]
    results = {site: f"EQUIVALENT ({EQUIVALENT[site]})" for site, *_ in found if site in EQUIVALENT}
    with tempfile.TemporaryDirectory(prefix="flagcert-mutate-") as work:
        copies = [_copy(Path(work) / f"copy{j}") for j in range(args.jobs)]

        def job(j):
            for site, file, text in todo[j :: args.jobs]:
                results[site] = _run(copies[j], file, text, args.tests)
                print(f"{results[site]:<9} {site}", flush=True)

        with ThreadPoolExecutor(args.jobs) as pool:
            list(pool.map(job, range(args.jobs)))
    killed = sum(v.startswith("KILLED") for v in results.values())
    survived = [site for site, v in results.items() if v == "SURVIVED"]
    print(f"{len(found)} mutants: {killed} killed, {len(found) - killed - len(survived)} equivalent, "
          f"{len(survived)} survived")
    for site in survived:
        print(f"  survived: {site}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
