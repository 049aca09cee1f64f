"""Source rules that no runtime test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gl3voronoi"


def test_no_assert_statements_in_the_package():
    # `python -O` drops assert statements, so a guard on a result must
    # raise an exception instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
