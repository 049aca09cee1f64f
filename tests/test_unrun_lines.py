import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"

SOURCE = '''"""A module docstring: no statement."""


def keep(f):
    return f


def sign(x):
    """Not a statement either."""
    if x < 0:
        return -1
    return 1


@keep
def never(
    y,
):
    z = y + (
        1
    )
    return z
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_finds_the_statements_that_never_ran(tmp_path):
    tool = _load("unrun_lines", TOOL)
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    hits = tool.collect(lambda: _load("sample", path).sign(2), str(tmp_path))
    assert list(hits) == [str(path)]
    # the untaken branch, and the body of a defined but uncalled function,
    # whose multi-line statement shows whole; the decorated def itself ran
    assert tool.unrun(SOURCE, hits[str(path)]) == [(11, 11), (19, 21), (22, 22)]
    # with nothing run, a def shows its decorator and signature only
    assert tool.unrun(SOURCE, set())[:3] == [(4, 4), (5, 5), (8, 8)]
    assert (15, 18) in tool.unrun(SOURCE, set())
    assert tool._ranges([(4, 4), (5, 5), (8, 8), (15, 18), (19, 21)]) == "4-5, 8, 15-21"
