import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_error_on_both_sides_counts_as_a_difference(capsys):
    tool = _load()
    report = {"z-expansion": ("1e-14", True, {"q_max": 6})}
    assert tool.report_differences(report, dict(report), "w") == 0
    for marker in ("<child error>", "<verify all error>"):
        same = {marker: "Traceback: boom"}
        assert tool.report_differences(same, dict(same), "w") == 1
    assert "<verify all error>" in capsys.readouterr().out


def test_missing_result_file_is_a_child_error(tmp_path):
    tool = _load()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "child.py").write_text("import sys\nsys.exit(3)\n")
    out = tool.run(tmp_path, "a", "identity-window", 0, True, str(tmp_path))
    assert list(out) == ["<child error>"]
    assert "no result file, exit 3" in out["<child error>"]
