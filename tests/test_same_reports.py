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


# a fake gl3voronoi for the Gauss dump: one character per modulus, a
# primitive one above 2, and sums equal to c (tables equal to 1), of
# which BUMP moves the one-column call (tau) at c = 5 and the table at
# c = 2039
FAKE_GAUSS = """\
import numpy as np


def DirichletCharacter(c, exponents):
    return c


def enumerate_characters(c):
    return [c]


def primitive_characters(c):
    return [c] if c > 2 else []


def _gauss_sums(chis, c, ms):
    return np.full((len(chis), len(ms)), complex(c)) + BUMP * (c == 5 and len(ms) == 1)


def gauss_sum_table(chi, c):
    return (complex(1 + BUMP * (c == 2039)),) * c
"""


def _fake_gauss_checkout(root, bump):
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "characters.py").write_text(f"BUMP = {bump!r}\n\n" + FAKE_GAUSS)
    return root


def test_gauss_run_counts_the_moduli_whose_bytes_differ(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: every batched table and every tau equal
    assert tool.gauss_run([real, real], str(tmp_path), c_max=12, large=(1021,)) == 0
    assert capsys.readouterr().out == (
        "Gauss sums mod c, c <= 12 and c in [1021]: 0 of 13 moduli differ, largest |delta| 0\n"
    )
    parent = _fake_gauss_checkout(tmp_path / "parent", 0)
    change = _fake_gauss_checkout(tmp_path / "change", 2**-45)
    assert tool.gauss_run([parent, change], str(tmp_path), c_max=8) == 2
    assert capsys.readouterr().out.endswith("2 of 10 moduli differ, largest |delta| 2.84e-14\n")
    # a dump that fails counts as a difference on its own
    broken = _fake_gauss_checkout(tmp_path / "broken", "1 / 0")
    assert tool.gauss_run([parent, broken], str(tmp_path), c_max=8) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out


# a fake gl3voronoi for the reduction dump: a sweep that folds the
# residuals c, c - 1, ..., 1, and BUMP moves the one at c = 3 of the
# sweep with m2_max 0
FAKE_REDUCTION = {
    "cli.py": "class SuiteConfig:\n    m_set = (1, -1)\n",
    "expsums.py": """\
def worse(worst, *values):
    return max(worst, *values)


def char_kloosterman_reduction_sweep(c_max, m_set, m2_max):
    worst = 0.0
    for c in range(c_max, 0, -1):
        worst = worse(worst, float(c) + BUMP * (c == 3 and m2_max == 0))
    return worst, c_max
""",
}


def _fake_reduction_checkout(root, bump):
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for name, text in FAKE_REDUCTION.items():
        (package / name).write_text(f"BUMP = {bump!r}\n\n" + text)
    return root


def test_reduction_run_counts_the_sweeps_whose_residuals_differ(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: every folded residual equal
    assert tool.reduction_run([real, real], str(tmp_path), sweeps=((8, 2), (6, 0))) == 0
    assert capsys.readouterr().out == (
        "reduction residuals, c_max:m2_max 8:2, 6:0: 0 of 2 sweeps differ, largest |delta| 0\n"
    )
    # a residual below the sweep's maximum differs
    parent = _fake_reduction_checkout(tmp_path / "parent", 0)
    change = _fake_reduction_checkout(tmp_path / "change", 2**-40)
    assert tool.reduction_run([parent, change], str(tmp_path)) == 1
    assert capsys.readouterr().out.endswith("1 of 2 sweeps differ, largest |delta| 9.09e-13\n")
    broken = _fake_reduction_checkout(tmp_path / "broken", "1 / 0")
    assert tool.reduction_run([parent, broken], str(tmp_path)) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out


# a fake gl3voronoi for the per-case dump: a suite whose collapse folds
# the residuals 1, 0.5 and 0.25 and whose orthogonality folds 2 and 3, and
# BUMP moves the collapse residual 0.5
FAKE_CASES = {
    "cli.py": """\
from gl3voronoi import expsums, identities


class SuiteConfig:
    pass


class Report:
    parameters = {}


def run_suite(config, names):
    worst = 0.0
    for r in (1.0, 0.5, 0.25):
        worst = expsums.worse(worst, r + BUMP * (r == 0.5))
    identities.worse(0.0, 2.0, 3.0)
    return [Report() for _ in names]
""",
    "expsums.py": "def worse(worst, *values):\n    return max(worst, *values)\n",
    "identities.py": "def worse(worst, *values):\n    return max(worst, *values)\n",
}


def _fake_case_checkout(root, bump):
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for name, text in FAKE_CASES.items():
        (package / name).write_text(f"BUMP = {bump!r}\n\n" + text)
    return root


def test_case_run_reports_a_one_ulp_change_in_one_collapse_residual(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: every folded residual equal
    assert tool.case_run([real, real], str(tmp_path)) == 0
    assert capsys.readouterr().out == (
        "additive-collapse and orthogonality residuals, default config: "
        "0 of 2 checks differ, largest |delta| 0\n"
    )
    # one ulp on a residual below the collapse's maximum differs
    parent = _fake_case_checkout(tmp_path / "parent", 0)
    change = _fake_case_checkout(tmp_path / "change", math.ulp(0.5))
    assert tool.case_run([parent, change], str(tmp_path)) == 1
    assert capsys.readouterr().out.endswith("1 of 2 checks differ, largest |delta| 1.11e-16\n")
    broken = _fake_case_checkout(tmp_path / "broken", "1 / 0")
    assert tool.case_run([parent, broken], str(tmp_path)) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out


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


# a fake gl3voronoi for the identity dump: three compares of one-term
# series, whose second right side BUMP moves, and one report, which
# carries ERROR as a check's error if it is set
FAKE_SUITE = """\
from gl3voronoi import identities


class SuiteConfig:
    def __init__(self, **kw):
        pass


class Series:
    def __init__(self, terms):
        self.terms = terms


class Report:
    parameters = {"error": ERROR} if ERROR else {}


def run_suite(config, names):
    for i in range(3):
        lhs, rhs = Series({(1, 1, i + 1): 1j}), Series({(1, 1, i + 1): 1j + BUMP * (i == 1)})
        identities.compare(lhs, rhs)
    return [Report()]
"""


def _fake_suite_checkout(root, bump, error=None):
    package = root / "src" / "gl3voronoi"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "identities.py").write_text("def compare(a, b):\n    return 0.0\n")
    (package / "cli.py").write_text(f"BUMP = {bump!r}\nERROR = {error!r}\n\n" + FAKE_SUITE)
    return root


def test_identity_run_counts_the_series_arrays_that_differ(tmp_path, capsys):
    tool = _load()
    real = Path(__file__).resolve().parents[1]
    # this checkout against itself: keys and values of both sides of every
    # compare of the identity checks and both probes, all equal
    assert tool.identity_run([real, real], str(tmp_path), window="16:27:8") == 0
    out = capsys.readouterr().out
    assert out.startswith("identity series, window 16:27:8: 0 of ")
    assert out.endswith(" arrays differ, largest |delta| 0\n")
    parent = _fake_suite_checkout(tmp_path / "parent", 0)
    change = _fake_suite_checkout(tmp_path / "change", 2**-45)
    assert tool.identity_run([parent, change], str(tmp_path)) == 1
    assert capsys.readouterr().out == (
        "identity series, window default: 1 of 12 arrays differ, largest |delta| 2.84e-14\n"
    )
    # a dump that fails counts as a difference on its own
    broken = _fake_suite_checkout(tmp_path / "broken", "1 / 0")
    assert tool.identity_run([parent, broken], str(tmp_path)) == 1
    assert "change dump failed, exit 1" in capsys.readouterr().out
    # so does a check that raised, whose report carries the error
    raised = _fake_suite_checkout(tmp_path / "raised", 0, "ValueError: boom")
    assert tool.identity_run([parent, raised], str(tmp_path)) == 1
    assert "change dump failed, exit 1: ValueError: boom" in capsys.readouterr().out
