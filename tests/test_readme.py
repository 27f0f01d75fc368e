"""The README's library quick tour runs, and each value its comments give is the one computed."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The first python block after the "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def commented_value(line: str):
    """The literal in ``line``'s trailing comment, less any parenthesised remark."""
    comment = line.partition("#")[2]
    return ast.literal_eval(re.sub(r"\(.*\)", "", comment).strip())


def test_quick_tour_values_match_its_comments():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), str(README), "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(body=stmt.value), str(README), "eval"), namespace)
        expected = commented_value(lines[stmt.end_lineno - 1])
        if isinstance(expected, bool):
            assert got is expected, ast.unparse(stmt)
        else:
            assert got == pytest.approx(expected, rel=1e-9), ast.unparse(stmt)
        checked.append(ast.unparse(stmt))
    assert len(checked) == 4, checked
