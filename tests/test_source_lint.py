"""Source rules that no runtime test can see."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gl3voronoi"

# exported names that no code in the package reads, each kept because the
# benchmark tracer binds it or the acceptance suite calls it
UNREAD_EXPORTS = {
    "multiply",
    "reality_symmetry_sweep",
    "weil_bound_sweep",
    "ramanujan_lemma_residual",
    "build_G",
}


def _nodes(*paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def _name(node):
    """The name a Name or Attribute node reads or binds, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_no_assert_statements_in_the_package():
    # `python -O` drops assert statements, so a guard on a result must
    # raise an exception instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in _nodes(path)
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_export_is_read_in_the_package_or_allow_listed():
    exported = set()
    used = set()
    for node in _nodes(*sorted(SRC.glob("*.py"))):
        if isinstance(node, ast.Assign) and [_name(t) for t in node.targets] == ["__all__"]:
            exported |= {elt.value for elt in node.value.elts}
        used.add(_name(node))
    unused = exported - used
    assert sorted(unused - UNREAD_EXPORTS) == []
    # an entry that the package uses again, or no longer exports, leaves the list
    assert sorted(UNREAD_EXPORTS - unused) == []
    # so does one that neither the tracer nor the acceptance suite names
    named = set()
    for node in _nodes(ROOT / "bench" / "tracer.py", ROOT / "tests" / "test_acceptance.py"):
        if isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
        else:
            named.add(_name(node))
    assert sorted(UNREAD_EXPORTS - named) == []
