"""The mutant generator of ``tools/mutants.py`` on ``src/ftcc``; no mutant is run."""

import ast
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
KINDS = {"compare": ast.Compare, "boolop": ast.BoolOp, "constant": ast.Constant, "raise": ast.Raise}


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_each_mutant_compiles_and_changes_one_node_of_logic():
    tool = load_tool()
    mutants = tool.mutants()
    assert {m.operator for m in mutants} == KINDS.keys()
    for path in sorted(tool.PACKAGE.glob("*.py")):
        source = path.read_bytes()
        starts = tool.line_starts(source)
        tree = ast.parse(source)
        data = [tool.span(node, starts) for node in tree.body if isinstance(node, tool.DATA)]
        # each top-level statement, decorators included, compiles on its own
        tops = [
            (tool.span((getattr(node, "decorator_list", None) or [node])[0], starts)[0], tool.span(node, starts)[1])
            for node in tree.body
        ]
        for m in (m for m in mutants if m.module == path.stem):
            original = source[m.begin : m.end].decode()
            node = (ast.parse(original).body[0] if m.operator == "raise"
                    else ast.parse(f"({original})", mode="eval").body)
            assert isinstance(node, KINDS[m.operator]) and m.text != original, m
            assert not any(b <= m.begin < e for b, e in data), m
            begin, end = next((b, e) for b, e in tops if b <= m.begin and m.end <= e)
            compile(source[begin : m.begin] + m.text.encode() + source[m.end : end], str(path), "exec")
