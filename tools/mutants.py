"""Mutation analysis of the tier-1 suite over ``src/ftcc``.

Each mutant changes one site of one module:

- ``compare``: one comparison operator flipped (``<`` and ``>=``, ``<=`` and
  ``>``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
- ``constant``: 1 added to an integer literal n with |n| <= 8;
- ``boolop``: ``and`` and ``or`` swapped;
- ``raise``: a ``raise`` statement replaced by ``pass``.

Module-level assignments and the literal tables of
``scenario.paper_4node`` are data, not logic, and are not mutated.

Each mutant runs the whole tier-1 suite in its own temporary copy of
``src/``, ``tests/``, ``benchmarks/``, ``tools/`` and ``README.md`` (which
tests read) and ``pyproject.toml``, at most two suites at once.  A mutant is killed when the
suite fails, or when it runs past ten times the unmutated suite's time (a
timeout, listed apart).  The working tree is never written.

Run from anywhere, with numpy, pytest and hypothesis installed::

    python tools/mutants.py > mutants.json

It prints one JSON report: each mutant's module, line, operator, outcome
and the ids of the tests that fail under it, and the score per module.
About 690 mutants at two at a time take a little over an hour on two cores.

The module doubles as the pytest plugin (``-p mutants``) that records the
failing test ids of one run in the file named by ``MUTANTS_FAILED``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ftcc"
COPIED = ("src", "tests", "benchmarks", "tools", "README.md", "pyproject.toml")
WORKERS = 2
TIME_FACTOR = 10
PYTEST = (
    "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "--hypothesis-seed=0", "-p", "mutants",
)
FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SWAPPED = {ast.And: ast.Or, ast.Or: ast.And}
DATA = (ast.Assign, ast.AnnAssign, ast.AugAssign)


@dataclass(frozen=True)
class Mutant:
    module: str     # the module's name within ftcc, e.g. "consensus"
    line: int       # the mutated node's first line
    operator: str   # "compare", "constant", "boolop" or "raise"
    begin: int      # the node's span in the module's UTF-8 source
    end: int
    text: str       # what replaces the span

    def apply(self, source: bytes) -> bytes:
        return source[: self.begin] + self.text.encode() + source[self.end :]


def _skipped(tree: ast.Module, module: str) -> set[int]:
    """Ids of the nodes whose subtrees are data, not logic."""
    roots = [node for node in tree.body if isinstance(node, DATA)]
    for node in tree.body:
        if module == "scenario" and isinstance(node, ast.FunctionDef) and node.name == "paper_4node":
            roots += [n for n in ast.walk(node) if isinstance(n, (ast.List, ast.Tuple))]
    return {id(node) for root in roots for node in ast.walk(root)}


def _replacements(node: ast.AST):
    """(operator, text) for each mutant of one node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = FLIPPED[type(op)]()
            yield "compare", f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})"
    elif isinstance(node, ast.BoolOp):
        yield "boolop", f"({ast.unparse(ast.BoolOp(SWAPPED[type(node.op)](), node.values))})"
    elif isinstance(node, ast.Raise):
        yield "raise", "pass"
    elif (isinstance(node, ast.Constant) and type(node.value) is int
          and abs(node.value) <= 8):
        yield "constant", str(node.value + 1)


def line_starts(source: bytes) -> list[int]:
    """The byte offset of each line; ast columns count UTF-8 bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def span(node: ast.AST, starts: list[int]) -> tuple[int, int]:
    return (starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset)


def module_mutants(path: Path) -> list[Mutant]:
    """Every mutant of one module, as a splice into its unchanged source."""
    source = path.read_bytes()
    starts = line_starts(source)
    tree = ast.parse(source)
    skipped = _skipped(tree, path.stem)
    out = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        for operator, text in _replacements(node):
            out.append(Mutant(path.stem, node.lineno, operator, *span(node, starts), text))
    return sorted(out, key=lambda m: (m.begin, m.text))


def mutants() -> list[Mutant]:
    return [m for path in sorted(PACKAGE.glob("*.py")) for m in module_mutants(path)]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_suite(mutant: Mutant | None, time_limit: float | None) -> dict:
    """Tier-1 in a fresh copy, with ``mutant`` written over its module."""
    with tempfile.TemporaryDirectory(prefix="ftcc-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        if mutant is not None:
            module = work / "src" / "ftcc" / f"{mutant.module}.py"
            module.write_bytes(mutant.apply(module.read_bytes()))
        failed = work / "failed.txt"
        paths = [str(work / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, paths)),
            "MUTANTS_FAILED": str(failed),
        }
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *PYTEST], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=time_limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # with any process a test started
            proc.wait()
            code = None
        seconds = time.perf_counter() - began
        ids = sorted(set(failed.read_text().split("\n")) - {""}) if failed.exists() else []
    outcome = "timeout" if code is None else "survived" if code == 0 else "killed"
    return {"outcome": outcome, "exit_code": code, "seconds": round(seconds, 2), "killed_by": ids}


def main() -> int:
    todo = mutants()
    clean = run_suite(None, None)
    if clean["outcome"] != "survived":
        print(f"the unmutated suite fails in the copy: {clean}", file=sys.stderr)
        return 1
    time_limit = TIME_FACTOR * clean["seconds"]
    print(f"{len(todo)} mutants; clean suite {clean['seconds']} s, limit {time_limit:.0f} s",
          file=sys.stderr)

    def one(item):
        i, mutant = item
        result = run_suite(mutant, time_limit)
        print(f"[{i + 1}/{len(todo)}] {mutant.module}:{mutant.line} {mutant.operator} "
              f"{result['outcome']} ({len(result['killed_by'])} tests, {result['seconds']} s)",
              file=sys.stderr)
        return {"module": mutant.module, "line": mutant.line, "operator": mutant.operator,
                "offset": mutant.begin, "text": mutant.text, **result}

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(one, enumerate(todo)))
    total = Counter(r["module"] for r in results)
    killed = Counter(r["module"] for r in results if r["outcome"] != "survived")
    report = {
        "clean_seconds": clean["seconds"],
        "time_limit": time_limit,
        "score": {m: f"{killed[m]}/{total[m]}" for m in sorted(total)},
        "killed": sum(killed.values()),
        "total": len(results),
        "timeouts": [f"{r['module']}:{r['line']} {r['operator']}"
                     for r in results if r["outcome"] == "timeout"],
        "mutants": results,
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


def pytest_runtest_logreport(report):
    if report.failed:
        with open(os.environ["MUTANTS_FAILED"], "a") as f:
            f.write(report.nodeid + "\n")


pytest_collectreport = pytest_runtest_logreport   # a test module that fails to import


if __name__ == "__main__":
    sys.exit(main())
