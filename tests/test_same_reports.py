import importlib.util
import math
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"


def _load():
    spec = importlib.util.spec_from_file_location("same_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_error_on_both_sides_counts_as_a_difference(capsys):
    tool = _load()
    report = {"z-expansion": ("1e-14", True, {"q_max": 6})}
    assert tool.report_differences(report, dict(report), "w", {}) == 0
    for marker in ("<child error>", "<verify error>"):
        same = {marker: "Traceback: boom"}
        assert tool.report_differences(same, dict(same), "w", {}) == 1
    assert "<verify error>" in capsys.readouterr().out


def test_differences_carry_their_log10_drift(capsys):
    tool = _load()
    params = {"q_max": 6}
    parent = {
        "fe-rearrangement": ("1e-13", True, params),
        "fe-rearrangement-sensitivity": ("0.001", False, params),
        "z-expansion": ("2e-14", True, params),
    }
    change = dict(parent)
    change["fe-rearrangement"] = ("2e-13", True, params)
    change["fe-rearrangement-sensitivity"] = ("0.0005", False, params)
    differing = {}
    assert tool.report_differences(parent, change, "w seed 1", differing) == 2
    out = capsys.readouterr().out
    assert "w seed 1 fe-rearrangement\n" in out
    assert "log10 drift: +0.301" in out
    assert "log10 drift: -0.301" in out
    assert "z-expansion" not in out
    # a second seed's larger drift wins; a residual of 0 or an error has none
    change["fe-rearrangement"] = ("1e-12", True, params)
    tool.report_differences(parent, change, "w seed 2", differing)
    tool.report_differences({"z-expansion": ("0.0", True, params)}, {}, "w", differing)
    assert "log10 drift: n/a" in capsys.readouterr().out
    assert tool.closing_line(differing) == (
        "largest |log10 drift|: 1.000; checks that differ: "
        "fe-rearrangement, fe-rearrangement-sensitivity, z-expansion"
    )
    assert tool.closing_line({}) == "largest |log10 drift|: n/a; checks that differ: none"


def test_missing_result_file_is_a_child_error(tmp_path):
    tool = _load()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "child.py").write_text("import sys\nsys.exit(3)\n")
    out = tool.run(tmp_path, "a", "identity-window", 0, True, str(tmp_path))
    assert list(out) == ["<child error>"]
    assert "no result file, exit 3" in out["<child error>"]


def test_a_differing_report_names_its_parameter_changes(capsys):
    tool = _load()
    parent = {"euler-product": ("3e-13", True, {"n_max": 300, "alt": "1e-1", "levels": "1"})}
    change = {"euler-product": ("3e-13", True, {"n_max": 200, "levels": "1", "new": 7})}
    assert tool.report_differences(parent, change, "w", {}) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w euler-product",
        "  residual: equal (3e-13)",
        "  verdict: equal (True)",
        "  parameter removed: alt = '1e-1'",
        "  parameter changed: n_max: 300 -> 200",
        "  parameter added: new = 7",
        "  log10 drift: +0.000",
    ]
    assert tool.describe(("1e-13", True, {}), ("2e-13", False, {})) == [
        "residual: parent 1e-13, change 2e-13",
        "verdict: parent True, change False",
    ]
    # a report on one side only, or an error, is shown whole
    assert tool.describe(None, ("1e-13", True, {})) == [
        "parent: None",
        "change: ('1e-13', True, {})",
    ]


def _fake_checkout(root, body):
    """A checkout whose gl3voronoi.expsums.kloosterman_matrix is body."""
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "expsums.py").write_text(f"import numpy as np\n\n\ndef kloosterman_matrix(c):\n{body}")
    return root


def test_kernel_run_counts_the_moduli_whose_bytes_differ(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: every kernel's bytes are equal
    assert tool.kernel_run([real, real], str(tmp_path), c_max=12) == 0
    assert capsys.readouterr().out == (
        "kloosterman_matrix(c), c <= 12: 0 of 12 moduli differ, largest |delta| 0\n"
    )
    ones = "    return np.ones((c, c), complex)\n"
    bumped = "    return np.ones((c, c), complex) + (c in (3, 7)) * 2e-14\n"
    parent = _fake_checkout(tmp_path / "parent", ones)
    change = _fake_checkout(tmp_path / "change", bumped)
    assert tool.kernel_run([parent, change], str(tmp_path), c_max=8) == 2
    assert capsys.readouterr().out.endswith("2 of 8 moduli differ, largest |delta| 2e-14\n")
    # a dump that fails counts as a difference on its own
    broken = _fake_checkout(tmp_path / "broken", "    raise RuntimeError('boom')\n")
    assert tool.kernel_run([parent, broken], str(tmp_path), c_max=8) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out


def test_kernel_differences_flag_a_changed_shape(tmp_path):
    tool = _load()
    old, new = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
    np.savez(old, **{"1": np.ones((1, 1)), "2": np.ones((2, 2))})
    np.savez(new, **{"1": np.ones((1, 1)), "2": np.ones((2, 1))})
    assert tool.dump_differences(old, new) == (1, math.inf)
    assert tool.dump_differences(old, old) == (0, 0.0)
    # an array that one dump lacks differs too
    np.savez(new, **{"1": np.ones((1, 1))})
    assert tool.dump_differences(old, new) == (1, math.inf)


# a fake gl3voronoi for the coefficient dump: one nebentypus per level, and
# A(m1, m2) = m1 + i m2, which the contragredient of the level-2 model
# moves by BUMP, exactly when BUMP is a small power of two
FAKE_MODELS = """\
class Model:
    def __init__(self, level, dual=False):
        self.level, self.dual = level, dual

    def contragredient(self):
        return Model(self.level, True)

    def corrupted(self, index, delta):
        return self

    def coefficient(self, m1, m2):
        return complex(m1, m2) + (BUMP if self.level == 2 and self.dual else 0)


def new_model(level, psi, seed):
    return Model(level)
"""


def _fake_model_checkout(root, bump):
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "characters.py").write_text("def enumerate_characters(level):\n    return [None]\n")
    (package / "heckemodel.py").write_text(f"BUMP = {bump!r}\n\n" + FAKE_MODELS)
    return root


def test_coefficient_run_counts_the_models_whose_bytes_differ(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: levels 1-3 with every nebentypus, each
    # model, its dual and its corrupted twin, all equal
    assert tool.coefficient_run([real, real], str(tmp_path), m1_max=6, m2_max=10) == 0
    assert capsys.readouterr().out == (
        "A(m1, m2), m1 <= 6, 0 < |m2| <= 10: 0 of 12 models differ, largest |delta| 0\n"
    )
    parent = _fake_model_checkout(tmp_path / "parent", 0)
    change = _fake_model_checkout(tmp_path / "change", 2**-45)
    assert tool.coefficient_run([parent, change], str(tmp_path), m1_max=4, m2_max=5) == 1
    assert capsys.readouterr().out.endswith("1 of 9 models differ, largest |delta| 2.84e-14\n")
    # a dump that fails counts as a difference on its own
    broken = _fake_model_checkout(tmp_path / "broken", "1 / 0")
    assert tool.coefficient_run([parent, broken], str(tmp_path), m1_max=4, m2_max=5) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out
