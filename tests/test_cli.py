import collections
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gl3voronoi.cli as cli
from gl3voronoi.arith import euler_phi, worse
from gl3voronoi.characters import (
    _gauss_sums,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    primitive_characters,
)
from gl3voronoi.cli import (
    CONFIG_PARSERS,
    DEFAULT_TOLERANCES,
    CHECKS,
    SuiteConfig,
    _build_parser,
    _config_from_args,
    VerificationReport,
    check_fe_rearrangement,
    check_gauss_modulus,
    check_z_expansion,
    emit_report,
    load_config_file,
    main,
    run_suite,
)
from gl3voronoi.heckemodel import HeckeCoefficientModel, new_model
from gl3voronoi.identities import verify_fe_rearrangement, verify_Z_expansion

FAST = SuiteConfig(
    window=(16, 12, 12),
    levels=(1,),
    q_list=(1,),
    cstar_list=(3,),
    seeds_per_case=1,
    c_max=6,
    m_set=(1, -2),
    m2_max=3,
    collapse_c_max=8,
    kloosterman_c_max=30,
    gauss_c_max=12,
    prime_bound=5,
    power_bound=2,
    trials=2,
    euler_n_max=40,
    ramanujan_cstar=(3,),
    ramanujan_levels=(1,),
    ramanujan_m_max=4,
    ramanujan_ell_max=8,
    moebius_q_max=2,
    moebius_m_max=3,
    moebius_cstar=(3,),
    orthogonality_c_max=5,
    orthogonality_n_max=6,
)


def test_report_invariant():
    r = VerificationReport.make("x", {}, 1e-10, 1e-9, 0)
    assert r.passed
    r = VerificationReport.make("x", {}, 2e-9, 1e-9, 0)
    assert not r.passed


def test_report_roundtrip():
    r = VerificationReport.make("demo", {"a": 1, "b": "two"}, 3.25e-11, 1e-9, 17)
    assert VerificationReport.from_dict(r.to_dict()) == r


_param_values = st.dictionaries(
    st.text(st.characters(categories=("Ll",)), min_size=1, max_size=6),
    st.text(max_size=10),
    max_size=4,
)


@given(
    st.text(min_size=1, max_size=20),
    _param_values,
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=1e-12, max_value=1, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_report_roundtrip_property(name, params, residual, tol, ms):
    r = VerificationReport.make(name, params, residual, tol, ms)
    again = VerificationReport.from_dict(json.loads(json.dumps(r.to_dict())))
    assert again == r


def test_emit_formats(tmp_path):
    reports = [
        VerificationReport.make("b-check", {"k": "v"}, 1e-12, 1e-9, 3),
        VerificationReport.make("a-check", {}, 5.0, 1e-9, 1),
    ]
    text = emit_report(reports, "text", None)
    lines = text.strip().splitlines()
    assert lines[0].startswith("PASS") and "b-check" in lines[0]
    assert lines[1].startswith("FAIL") and "a-check" in lines[1]
    path = tmp_path / "out.json"
    payload = json.loads(emit_report(reports, "json", str(path), seed=7))
    assert payload["seed"] == 7 and len(payload["reports"]) == 2
    assert json.loads(path.read_text()) == payload
    assert json.loads(emit_report([], "json", None))["reports"] == []
    with pytest.raises(ValueError):
        emit_report(reports, "xml", None)


def test_all_registered_checks_have_tolerances():
    for name, fn in CHECKS.items():
        assert name in DEFAULT_TOLERANCES
        # the benchmark's tracer rewraps each check as the cli attribute
        # fn.__name__: a registration that lost it would go untimed
        assert getattr(cli, fn.__name__) is fn, name


def _bumped(table, index):
    """A copy of table (array or tuple) with 1e-6 added at index; the
    original may be a cached table and stays as it is."""
    out = np.array(table)
    out[index] += 1e-6
    return out if isinstance(table, np.ndarray) else tuple(out.tolist())


_KERNEL_AT_3 = (
    "identities._gauss_sums",
    lambda g, chis, c, ms: _bumped(g, (0, 0)) if c == 3 else g,
)

# check -> (module.attribute of the layer below it, perturb(value, *args));
# z-expansion and fe-rearrangement have fault-probe reports instead
LAYER_FAULTS = {
    "gauss-modulus": ("cli._gauss_sums", lambda g, prim, c, ms: g + 1e-6 if c == 7 else g),
    "kloosterman-basic": (
        "expsums.kloosterman_matrix",
        lambda s, c: _bumped(s, (1, 2)) if c == 7 else s,
    ),
    "kloosterman-reduction": (
        "expsums._gauss_sums",
        lambda g, prim, c, ms: _bumped(g, (0, 0)) if c == 4 else g,
    ),
    "additive-collapse": (
        "expsums.gauss_sum",
        lambda tau, chi: tau + 1e-6 if chi.modulus == 5 else tau,
    ),
    "hecke-relations": ("cli.new_model", lambda model, *args: model.corrupted((2, 1), 1e-6)),
    "euler-product": ("cli.new_model", lambda model, *args: model.corrupted((1, 4), 1e-6)),
    "ramanujan-lemma": _KERNEL_AT_3,
    "orthogonality": _KERNEL_AT_3,
    "moebius-assembly": ("identities.mobius", lambda mu, n: mu * (1 + 1e-6) if n == 2 else mu),
    "bessel-identity": ("special.bessel_k", lambda k, nu, x: k * (1 + 1e-5)),
    "gamma-unitarity": ("cli.xi_factor", lambda xi, *args: xi * (1 + 1e-6)),
}


@pytest.mark.parametrize("name", sorted(LAYER_FAULTS))
def test_check_fails_on_one_perturbed_value_of_its_layer(name, monkeypatch):
    assert set(LAYER_FAULTS) | {"z-expansion", "fe-rearrangement"} == set(CHECKS)
    report = CHECKS[name](FAST)[0]
    assert report.check_name == name and report.passed
    target, perturb = LAYER_FAULTS[name]
    module, attr = target.rsplit(".", 1)
    original = getattr(importlib.import_module(f"gl3voronoi.{module}"), attr)
    monkeypatch.setattr(
        f"gl3voronoi.{target}", lambda *args, **kw: perturb(original(*args, **kw), *args)
    )
    report = CHECKS[name](FAST)[0]
    # a finite residual over the tolerance: the check saw the fault itself
    assert report.check_name == name and not report.passed
    assert report.tolerance < report.max_residual < math.inf


@pytest.mark.parametrize("index", [1, 2])
def test_fe_rearrangement_fails_on_a_gauss_entry_of_a_zero_weight(index, monkeypatch):
    # g(chi_3, 6, index) is read by exactly zero weights, whose key grids
    # are not walked; entry 1 by those alone, so the compare sees nothing
    # and the ratio of the skipped weight's float FAILs the check by itself
    config = replace(SuiteConfig(), levels=(1,), q_list=(1,), cstar_list=(3,), seeds_per_case=1)
    report = CHECKS["fe-rearrangement"](config)[0]
    assert report.passed and float(report.parameters["max_zero_weight"]) < 1e-14
    chi = primitive_characters(3)[0]
    original = gauss_sum_table

    def bumped(chi_star, c):
        table = original(chi_star, c)
        return _bumped(table, index) if (chi_star, c) == (chi, 6) else table

    monkeypatch.setattr("gl3voronoi.identities.gauss_sum_table", bumped)
    report = CHECKS["fe-rearrangement"](config)[0]
    zero = float(report.parameters["max_zero_weight"])
    assert not report.passed and zero >= 1e-8
    if index == 1:  # the residual is the ratio's, to the 4 digits reported
        assert report.max_residual == pytest.approx(zero, rel=1e-3)
    assert VerificationReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report


@pytest.mark.parametrize(
    "index, power_bound",
    [pytest.param(ix, 2, id=f"index{i}") for i, ix in enumerate([(1, 2), (1, 3), (1, 9), (5, 3)])]
    + [
        pytest.param(ix, 4, id=f"index{i}-power-bound-4")
        for i, ix in enumerate([(1, 8), (1, 16), (5, 8), (1, 27), (1, 81)], 4)
    ],
)
def test_hecke_relations_reads_every_prime_of_a_composite_level(index, power_bound, monkeypatch):
    # at level 6 the mixed part runs at q = 2 and at q = 3: A(1, 3), A(1, 9)
    # and A(5, 3) are read only by the second; the free values A(1, q^J) and
    # A(5, q^J) at J = 3, 4 only once J runs up to the power bound 4
    config = replace(FAST, hecke_levels=(6,), power_bound=power_bound)
    assert CHECKS["hecke-relations"](config)[0].passed

    def corrupt(*args, **kw):
        return new_model(*args, **kw).corrupted(index, 1e-6)

    monkeypatch.setattr("gl3voronoi.cli.new_model", corrupt)
    report = CHECKS["hecke-relations"](config)[0]
    assert not report.passed
    assert report.tolerance < report.max_residual < math.inf


def _count_calls(monkeypatch, targets, key) -> collections.Counter:
    """Patch each gl3voronoi.<module>.<attribute> in targets to count
    key(*args) per call, all into the one returned Counter."""
    calls = collections.Counter()
    for target in targets:
        module, attr = target.rsplit(".", 1)
        original = getattr(importlib.import_module(f"gl3voronoi.{module}"), attr)

        def counted(*args, original=original):
            calls[key(*args)] += 1
            return original(*args)

        monkeypatch.setattr(f"gl3voronoi.{target}", counted)
    return calls


def test_hecke_relations_enumerates_no_divisor_sum(monkeypatch):
    # the check replays one exponent plan per power bound over tables read
    # once per (model, p); the generic verifiers stay as the tests' oracle
    targets = [
        "heckemodel.divisors",
        "heckemodel.hecke_relation_residual_1",
        "heckemodel.hecke_relation_residual_2",
    ]
    calls = _count_calls(monkeypatch, targets, lambda *args: args)
    assert CHECKS["hecke-relations"](replace(FAST, hecke_levels=(1, 2, 6)))[0].passed
    assert calls == collections.Counter()


def test_kloosterman_basic_builds_one_matrix_per_modulus(monkeypatch):
    built = _count_calls(monkeypatch, ["expsums.kloosterman_matrix"], lambda c: c)
    assert CHECKS["kloosterman-basic"](FAST)[0].passed
    assert built == collections.Counter(range(1, FAST.kloosterman_c_max + 1))


def test_ramanujan_lemma_calls_the_gauss_kernel_once_per_modulus(monkeypatch):
    # several characters, levels and m share each call at modulus l1 cstar;
    # with the table cache cleared, a per-character table build would count
    config = replace(
        FAST, ramanujan_cstar=(3, 5, 7), ramanujan_levels=(1, 2, 3), ramanujan_m_max=6
    )
    gauss_sum_table.cache_clear()
    built = _count_calls(
        monkeypatch,
        ["characters._gauss_sums", "identities._gauss_sums"],
        lambda chis, c, ms: c,
    )
    assert CHECKS["ramanujan-lemma"](config)[0].passed
    ell_max = config.ramanujan_ell_max
    assert built == collections.Counter(
        l1 * cstar for cstar in config.ramanujan_cstar for l1 in range(1, ell_max + 1)
    )


def test_shells_build_no_H_series_per_cell(monkeypatch):
    # the shell adds H terms straight in; only moebius-assembly's left side,
    # H(q, m, chi*), is a built series, one per case
    built = _count_calls(
        monkeypatch,
        ["identities.build_H"],
        lambda q, ell, chi, model, window: (q, ell, chi.modulus),
    )
    assert CHECKS["z-expansion"](FAST)[0].passed
    assert not built
    (report,) = CHECKS["moebius-assembly"](FAST)
    assert report.passed
    assert built == collections.Counter(
        (q, m, cstar)
        for cstar in FAST.moebius_cstar
        for q in range(1, FAST.moebius_q_max + 1)
        for m in range(1, FAST.moebius_m_max + 1)
    )
    assert str(sum(built.values())) == report.parameters["runs"]


def test_additive_collapse_evaluates_each_primitive_product_once(monkeypatch):
    # one gauss_sum per primitive theta mod c, and no psi*chi products formed;
    # characters is the one module of the package that binds multiply
    binders = [
        name
        for name, module in sys.modules.items()
        if name.startswith("gl3voronoi") and hasattr(module, "multiply")
    ]
    assert binders == ["gl3voronoi.characters"]
    calls = _count_calls(
        monkeypatch, ["characters.multiply", "expsums.gauss_sum"], lambda *chars: chars
    )
    assert CHECKS["additive-collapse"](FAST)[0].passed
    assert calls == collections.Counter(
        (theta,)
        for c in range(1, FAST.collapse_c_max + 1)
        for theta in primitive_characters(c)
    )


def test_euler_product_takes_one_residual_per_model_and_character(monkeypatch):
    # the models are kept alive as Counter keys, so each is its own key
    calls = _count_calls(
        monkeypatch, ["cli.euler_product_residual"], lambda model, chi, s, n_max: (model, chi)
    )
    assert CHECKS["euler-product"](FAST)[0].passed
    chars = enumerate_characters(FAST.euler_chi_modulus)
    models = {model for model, _ in calls}
    assert set(calls.values()) == {1}
    assert len(models) == sum(euler_phi(level) for level in FAST.euler_levels)
    assert set(calls) == {(model, chi) for model in models for chi in chars}


def test_run_suite_fast_config_passes():
    reports = run_suite(FAST, ["gauss-modulus", "orthogonality", "euler-product"])
    assert [r.check_name for r in reports] == sorted(r.check_name for r in reports)
    assert all(r.passed for r in reports)


def test_run_suite_unknown_check():
    with pytest.raises(ValueError):
        run_suite(FAST, ["nope"])


def test_determinism_modulo_runtime():
    def strip(rep):
        return [
            {k: v for k, v in r.to_dict().items() if k != "runtime_ms"}
            for r in rep
        ]

    a = run_suite(FAST, ["z-expansion", "gamma-unitarity"])
    b = run_suite(FAST, ["z-expansion", "gamma-unitarity"])
    assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        "z-expansion --q-list=",
        "z-expansion --levels 2 --q-list 2",
        "fe-rearrangement --levels 3 --cstar-list 3",
        "ramanujan-lemma --ramanujan-levels 2 --ramanujan-cstar 4",
        "hecke-relations --prime-bound 1",
        "hecke-relations --prime-bound 2 --hecke-levels 2 --trials 1",
        "hecke-relations --hecke-levels=",
        "euler-product --euler-levels=",
        "moebius-assembly --moebius-cstar=",
        "kloosterman-reduction --m-set= --c-max 4",
    ],
    ids=lambda argv: argv.replace(" ", "_"),
)
def test_zero_cases_is_never_a_pass(argv, capsys):
    # a sweep that evaluates nothing proves nothing: one FAIL report, exit 1
    assert main(["verify", *argv.split(), "--format", "json"]) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert report["check_name"] == argv.split()[0]
    assert report["pass"] is False and math.isnan(report["max_residual"])
    assert report["parameters"]["error"] == "no cases evaluated"


def test_a_nan_gauss_entry_fails_additive_collapse_and_orthogonality(monkeypatch):
    # one NaN entry of a Gauss table survives the vectorized sweeps' folds:
    # tau of one primitive character mod 5 for the collapse, and one entry
    # of the orthogonality check's kernel table mod 5
    target = primitive_characters(5)[1]

    def poisoned_table(chi, c):
        values = gauss_sum_table(chi, c)
        return values[:1] + (complex("nan"),) + values[2:] if (chi, c) == (target, 5) else values

    def poisoned_kernel(chis, c, ms):
        out = _gauss_sums(chis, c, ms)
        if c == 5:
            out[2, 1] = complex("nan")
        return out

    monkeypatch.setattr("gl3voronoi.characters.gauss_sum_table", poisoned_table)
    monkeypatch.setattr("gl3voronoi.identities._gauss_sums", poisoned_kernel)
    reports = run_suite(FAST, ["additive-collapse", "orthogonality"])
    assert [r.check_name for r in reports] == ["additive-collapse", "orthogonality"]
    for report in reports:
        assert math.isnan(report.max_residual) and not report.passed, report
        assert "error" not in report.parameters


def test_gauss_modulus_batched_kernel_matches_per_character_loop():
    worst = 0.0
    count = 0
    for c in range(1, 31):
        for chi in primitive_characters(c):
            worst = worse(worst, abs(abs(gauss_sum(chi)) - math.sqrt(c)))
            count += 1
    (report,) = check_gauss_modulus(replace(SuiteConfig(), gauss_c_max=30))
    assert repr(report.max_residual) == repr(worst)
    assert report.parameters["primitive_count"] == str(count)


def test_cli_single_check_pass(capsys):
    code = main(["verify", "gauss-modulus"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS")


def _verdicts(out: str) -> dict[str, str]:
    return {line.split()[1]: line.split()[0] for line in out.splitlines()}


def test_cli_fault_injection_fails(capsys):
    code = main(
        [
            "verify",
            "orthogonality",
            "--fault-injection",
            "--window",
            "48:48:48",
        ]
    )
    verdicts = _verdicts(capsys.readouterr().out)
    assert code == 0
    assert verdicts["z-expansion-fault-injected"] == "FAIL"
    assert verdicts["fe-rearrangement-sensitivity"] == "FAIL"


def test_exit_code_needs_failing_probes_and_passing_checks(capsys, monkeypatch):
    argv = ["verify", "orthogonality", "--fault-injection", "--orthogonality-c-max", "3"]
    # both probes FAIL as they must and the check passes
    assert main(argv + ["--window", "48:48:48"]) == 0
    assert _verdicts(capsys.readouterr().out) == {
        "fe-rearrangement-sensitivity": "FAIL",
        "orthogonality": "PASS",
        "z-expansion-fault-injected": "FAIL",
    }
    # a failing check fails the run even though the probes FAIL
    assert main(argv + ["--window", "48:48:48", "--tol", "1e-300"]) == 1
    assert _verdicts(capsys.readouterr().out)["orthogonality"] == "FAIL"
    # at P = 24 the corrupted dual term A~(1, 2), at Y = 3^3/2, is outside
    # the window and its probe would be blind: a usage error
    assert main(argv + ["--window", "36:24:24"]) == 2
    assert "fault injection" in capsys.readouterr().err
    blind = VerificationReport.make("blind-probe", {"expected": "fail"}, 0.0, 1e-9, 0)
    monkeypatch.setattr("gl3voronoi.cli.check_fault_injection", lambda config: [blind])
    assert main(argv + ["--window", "48:48:48"]) == 1


@pytest.fixture
def no_check_runs(monkeypatch):
    """Every check fails if it is called: the run must stop before one."""

    def never(config):
        raise AssertionError("a check ran")

    monkeypatch.setattr("gl3voronoi.cli.CHECKS", {name: never for name in CHECKS})


def test_unwritable_output_exits_2_before_any_check(tmp_path, capsys, no_check_runs):
    path = tmp_path / "missing" / "r.json"
    assert main(["verify", "gauss-modulus", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write report to {path}")
    assert captured.out == "" and not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_late_output_failure_exits_2_after_the_reports_reach_stdout(capsys):
    # opening /dev/full succeeds, so only the write itself can fail
    assert main(["verify", "gamma-unitarity", "--output", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("PASS  gamma-unitarity")
    assert captured.err.startswith("error: cannot write report to /dev/full")
    assert captured.err.count("\n") == 1


# check -> report parameter -> the SuiteConfig field it echoes
ECHOED = {
    "gauss-modulus": {"c_max": "gauss_c_max"},
    "kloosterman-basic": {"c_max": "kloosterman_c_max"},
    "kloosterman-reduction": {"c_max": "c_max", "m_set": "m_set", "m2_max": "m2_max"},
    "additive-collapse": {"c_max": "collapse_c_max"},
    "hecke-relations": {
        "levels": "hecke_levels",
        "prime_bound": "prime_bound",
        "power_bound": "power_bound",
        "seed": "seed",
    },
    "euler-product": {
        "n_max": "euler_n_max",
        "levels": "euler_levels",
        "chi_modulus": "euler_chi_modulus",
    },
    "ramanujan-lemma": {
        "cstar_list": "ramanujan_cstar",
        "levels": "ramanujan_levels",
        "m_max": "ramanujan_m_max",
        "ell_max": "ramanujan_ell_max",
    },
    **dict.fromkeys(
        ("z-expansion", "fe-rearrangement"),
        {
            "window": "window",
            "levels": "levels",
            "q_list": "q_list",
            "cstar_list": "cstar_list",
            "seeds": "seeds_per_case",
            "seed": "seed",
        },
    ),
    "moebius-assembly": {
        "q_max": "moebius_q_max",
        "m_max": "moebius_m_max",
        "cstar_list": "moebius_cstar",
        "seed": "seed",
    },
    "orthogonality": {
        "c_max": "orthogonality_c_max",
        "n_max": "orthogonality_n_max",
        "seed": "seed",
    },
    "gamma-unitarity": {"nu1": "nu1", "nu2": "nu2"},
}


def _another(name, value):
    """A second valid value of an echoed field at the distinct config."""
    if name == "window":
        return value[:2] + (value[2] + 1,)
    if isinstance(value, tuple):
        return value[:-1]  # every other tuple there has two entries or more
    if isinstance(value, complex):
        return value + 0.1j
    return value + 1


def test_each_parameter_echoes_its_own_field():
    # the run of tools/same_reports.py at which no two echoed fields share
    # a value; at the defaults m2_max = moebius_m_max, so an echo of the
    # wrong one of them would go unseen
    spec = importlib.util.spec_from_file_location(
        "same_reports", Path(__file__).resolve().parents[1] / "tools" / "same_reports.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = tool.VERIFY_RUNS["verify all, distinct echoed values"]
    config = _config_from_args(_build_parser().parse_args(["verify", *argv]))
    assert sorted(ECHOED) == sorted(set(CHECKS) - {"bessel-identity"})
    echoed = {f for fields in ECHOED.values() for f in fields.values()}
    texts = {cli._text(f, getattr(config, f)) for f in echoed}
    assert len(texts) == len(echoed)

    def params(check, config):
        (report,) = CHECKS[check](config)
        assert report.passed, report
        return {p: report.parameters[p] for p in ECHOED[check]}

    for check, fields in ECHOED.items():
        base = params(check, config)
        assert base == {p: cli._text(f, getattr(config, f)) for p, f in fields.items()}
        for param, name in fields.items():
            value = _another(name, getattr(config, name))
            changed = params(check, replace(config, **{name: value}))
            assert changed == {**base, param: cli._text(name, value)}, (check, name)


def test_identity_sweeps_build_each_model_once(monkeypatch):
    config = replace(
        FAST, levels=(1, 2), q_list=(1, 2, 3), cstar_list=(3, 5), seeds_per_case=2
    )
    window = config.window_obj()
    for check, verify in (
        (check_z_expansion, verify_Z_expansion),
        (check_fe_rearrangement, verify_fe_rearrangement),
    ):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return new_model(*args, **kwargs)

        duals = []

        def counting_dual(model, original=HeckeCoefficientModel.contragredient):
            duals.append(model)
            return original(model)

        monkeypatch.setattr(cli, "new_model", counting)
        with monkeypatch.context() as patch:
            patch.setattr(HeckeCoefficientModel, "contragredient", counting_dual)
            (report,) = check(config)
        assert len(built) == len(config.levels) * config.seeds_per_case
        # the fe sweep hands each model's one contragredient to all of its cases
        assert len(duals) == (len(built) if check is check_fe_rearrangement else 0)
        # the same fold over a fresh model per (level, q, cstar, i) case
        worst, runs = 0.0, 0
        for level in config.levels:
            psis = enumerate_characters(level)
            for q in config.q_list:
                for cstar in config.cstar_list:
                    if math.gcd(q * cstar, level) > 1:
                        continue
                    prim = primitive_characters(cstar)
                    for i in range(config.seeds_per_case):
                        model = new_model(level, psis[i % len(psis)], seed=config.seed + i)
                        worst = worse(worst, verify(model, q, prim[i % len(prim)], window))
                        runs += 1
        assert report.passed and report.parameters["runs"] == str(runs)
        assert report.max_residual == worst


def test_report_with_nan_residual_fails():
    assert not VerificationReport.make("x", {}, float("nan"), 1e-9, 0).passed
    assert not VerificationReport.make("x", {}, float("inf"), 1e-9, 0).passed


def test_raising_check_becomes_one_failing_report(capsys, monkeypatch):
    def broken(config):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(CHECKS, "euler-product", broken)
    reports = run_suite(FAST, ["gauss-modulus", "euler-product", "orthogonality"])
    assert [r.check_name for r in reports] == ["euler-product", "gauss-modulus", "orthogonality"]
    failed = reports[0]
    assert not failed.passed
    assert math.isnan(failed.max_residual)
    assert failed.parameters == {"error": "ZeroDivisionError: boom"}
    assert failed.tolerance == DEFAULT_TOLERANCES["euler-product"]
    assert all(r.passed for r in reports[1:])
    assert main(["verify", "euler-product", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (report,) = json.loads(captured.out)["reports"]
    assert report["check_name"] == "euler-product" and report["pass"] is False
    assert report["parameters"]["error"] == "ZeroDivisionError: boom"


def test_bessel_identity_with_no_grid_point_fails(monkeypatch):
    # its two reports are made outside the decorator, by _Fold.report too:
    # an empty grid proves nothing and FAILs, the spot report stands alone
    monkeypatch.setattr(cli, "BESSEL_GRID", ())
    grid, spot = cli.check_bessel_identity(FAST)
    assert grid.check_name == "bessel-identity" and not grid.passed
    assert math.isnan(grid.max_residual)
    assert grid.parameters == {"error": "no cases evaluated", "grid_points": "0"}
    assert spot.check_name == "bessel-identity-spot" and spot.passed


def test_fault_probe_with_a_nan_residual_reports_nan(monkeypatch):
    # a probe's report keeps a NaN from its verifier and FAILs under the
    # tolerance of the check it probes; the other probe is untouched
    monkeypatch.setattr(cli, "verify_Z_expansion", lambda *args: math.nan)
    z_probe, fe_probe = cli.check_fault_injection(replace(FAST, window=(48, 48, 48)))
    assert z_probe.check_name == "z-expansion-fault-injected" and not z_probe.passed
    assert math.isnan(z_probe.max_residual) and "error" not in z_probe.parameters
    assert z_probe.tolerance == DEFAULT_TOLERANCES["z-expansion"]
    assert fe_probe.check_name == "fe-rearrangement-sensitivity" and not fe_probe.passed
    assert fe_probe.tolerance < fe_probe.max_residual < math.inf
    assert fe_probe.tolerance == DEFAULT_TOLERANCES["fe-rearrangement"]


def test_raising_fault_probe_is_not_isolated(monkeypatch):
    def broken(config):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("gl3voronoi.cli.check_fault_injection", broken)
    with pytest.raises(ZeroDivisionError):
        run_suite(replace(FAST, fault_injection=True, window=(48, 48, 48)), ["gauss-modulus"])


def test_cli_tolerance_override(capsys):
    # force a failure by demanding an absurd tolerance
    code = main(["verify", "gauss-modulus", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1 and out.startswith("FAIL")


def test_cli_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2
    assert main(["verify", "gauss-modulus", "--window", "0:1:1"]) == 2


def test_cli_chars_list(capsys):
    assert main(["chars", "list", "--modulus", "8"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(re.search(r"conductor=\d+ parity=[+-]1", ln) for ln in lines)
    assert main(["chars", "list", "--modulus", "8", "--primitive-only"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_cli_chars_list_rejects_nonpositive_modulus(modulus, capsys):
    assert main(["chars", "list", f"--modulus={modulus}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --modulus must be >= 1") and captured.out == ""


@pytest.mark.parametrize("flags", [[], ["--primitive-only"]])
@pytest.mark.parametrize("modulus", [cli.CHARS_LIST_MAX_MODULUS + 1, 2**63, 2**70])
def test_cli_chars_list_rejects_a_modulus_beyond_factorize(modulus, flags, capsys, monkeypatch):
    # the phi(q) value tables of q entries hold q phi(q) values in all; the
    # limit is checked before factorize, which accepts up to 2**63 - 1
    def never(n):
        raise AssertionError("factorize ran")

    monkeypatch.setattr("gl3voronoi.arith.factorize", never)
    assert main(["chars", "list", f"--modulus={modulus}", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --modulus must be >= 1 and <= 4096, got {modulus}\n"
    assert captured.out == ""


def test_identity_checks_run_without_scipy():
    # the package imports no scipy: an identity check must not pull it in
    script = (
        "import sys\n"
        "from gl3voronoi.cli import main\n"
        "assert main(['verify', 'z-expansion', '--window', '16:12:12', '--q-list', '1',"
        " '--cstar-list', '3', '--levels', '1', '--seeds-per-case', '1']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_special_function_checks_run_with_scipy_blocked():
    # a None entry in sys.modules makes any `import scipy` raise ImportError
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gl3voronoi.cli import main\n"
        "assert main(['verify', 'bessel-identity']) == 0\n"
        "assert main(['verify', 'gamma-unitarity']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_hecke_relations_time_grows_with_the_prime_count():
    # a prime power p^k factors in a few steps, not about p/3, so the cap
    # runs in under a second where trial division alone took 11.5 s
    argv = ["verify", "hecke-relations", "--prime-bound", "65536", "--power-bound", "1"]
    argv += ["--trials", "1", "--hecke-levels", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gl3voronoi.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert time.perf_counter() - t0 < 4.0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS  hecke-relations")


def test_gamma_unitarity_gate(capsys):
    # a non-imaginary derived triple would leave the critical-line check
    # with nothing to evaluate, so the config is rejected before it runs
    code = main(
        ["verify", "gamma-unitarity", "--nu1", "0.2+0.1j", "--nu2", "0.4", "--format", "json"]
    )
    assert code == 2
    assert "nu1, nu2" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(
        "# comment\n"
        "seed = 99  # a comment opens after whitespace\n"
        "window = 16:12:12\n"
        "levels = 1\t# or a tab\n"
        "tol.gauss-modulus = 1e-3\n"
        "output = /tmp/run#1.json\n"
    )
    overrides = load_config_file(str(cfg))
    assert overrides["seed"] == 99
    assert overrides["output"] == "/tmp/run#1.json"  # a '#' inside a value stays
    assert overrides["window"] == (16, 12, 12)
    assert overrides["levels"] == (1,)
    assert overrides["tolerances"] == {"gauss-modulus": 1e-3}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


def test_cli_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("gauss_c_max = 10\nseed = 5\n")
    code = main(["verify", "gauss-modulus", "--config", str(cfg), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["seed"] == 5
    (rep,) = payload["reports"]
    assert rep["parameters"]["c_max"] == "10"


# -- configuration: one parser per SuiteConfig field -------------------------


def _from_flags(*argv):
    return _config_from_args(_build_parser().parse_args(["verify", "all", *argv]))


def _from_file(tmp_path, text):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(text)
    return _from_flags("--config", str(cfg))


def _sample(name, default):
    """A non-default value of a field, with its text form."""
    if name == "window":
        return (36, 24, 24), "36:24:24"
    if isinstance(default, tuple):
        value = default[1:] + (7,)
        return value, ",".join(map(str, value))
    if isinstance(default, bool):
        return (not default), str(not default)
    if isinstance(default, (int, complex)):
        value = default + (1 if isinstance(default, int) else 0.5j)
        return value, str(value)
    return "report.json", "report.json"


def test_every_field_has_a_flag_and_a_key(tmp_path):
    names = [f.name for f in fields(SuiteConfig) if f.name != "tolerances"]
    assert list(CONFIG_PARSERS) == names
    for name in names:
        value, text = _sample(name, getattr(SuiteConfig(), name))
        direct = replace(SuiteConfig(), **{name: value})
        assert direct != SuiteConfig()
        flag = "--" + name.replace("_", "-")
        argv = flag if isinstance(value, bool) else f"{flag}={text}"  # '=': text may start with '-'
        assert _from_flags(argv) == direct, name
        assert _from_file(tmp_path, f"{name} = {text}\n") == direct, name


@pytest.mark.parametrize(
    "name, text, value",
    [
        ("window", "144:48:48", (144, 48, 48)),
        ("levels", "1,2", (1, 2)),
        ("levels", "1, 2", (1, 2)),
        ("q_list", "", ()),
        ("m_set", "1,-2", (1, -2)),
        ("seed", "99", 99),
        ("nu1", "0.333+0.3j", complex(0.333, 0.3)),
        ("nu2", "(0.4)", 0.4 + 0j),
        ("output", "out/report.json", "out/report.json"),
        *[("fault_injection", word, True) for word in ("1", "true", "yes", "True", "YES")],
        *[("fault_injection", word, False) for word in ("0", "false", "no", "False")],
    ],
)
def test_config_spellings_keep_their_meaning(tmp_path, name, text, value):
    expected = replace(SuiteConfig(), **{name: value})
    assert _from_file(tmp_path, f"{name} = {text}\n") == expected
    if not isinstance(value, bool):
        assert _from_flags("--" + name.replace("_", "-"), text) == expected


def _bad_config_exit(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 3\n" + text)
    code = main(["verify", "gauss-modulus", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{cfg}:2:" in err


def test_config_rejects_bare_tolerances_key(tmp_path, capsys):
    _bad_config_exit(tmp_path, capsys, "tolerances = 1e-3\n")


def test_config_rejects_tolerance_of_unknown_check(tmp_path, capsys):
    _bad_config_exit(tmp_path, capsys, "tol.gauss-modulos = 1e-30\n")


def test_config_rejects_unknown_bool_word(tmp_path, capsys):
    _bad_config_exit(tmp_path, capsys, "fault_injection = ture\n")


@pytest.mark.parametrize("key, first, second", [("seed", 3, 4), ("tol.gauss-modulus", 1e-9, 1e-3)])
def test_config_rejects_duplicate_key(tmp_path, capsys, key, first, second):
    # a repeated key would otherwise run silently on its last value
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(f"{key} = {first}\n{key} = {second}\n")
    assert main(["verify", "gauss-modulus", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: duplicate key" in capsys.readouterr().err


def _invalid(flag, value, error="", id=None):
    """A config case that must exit 2: its argv, the start of its error
    text after "error: " (any, if empty) and its id, "flag-value"."""
    return pytest.param([flag, value], error, id=id or f"{flag}-{value}")


@pytest.mark.parametrize(
    "argv, error",
    [
        _invalid("--q-list", "0"),
        _invalid("--levels", "0"),
        _invalid("--m-set", "0"),
        _invalid("--cstar-list", "2"),
        _invalid(
            "--power-bound",
            "9",
            "prime_bound, power_bound, hecke_levels: hecke-relations reads A(m1, m2) at an "
            "index 13^18, above 2**63-1",
        ),
        _invalid("--kloosterman-c-max", "1"),
        # beyond factorize's 2**63 - 1
        _invalid("--levels", str(2**70)),
        _invalid("--hecke-levels", str(2**70)),
        _invalid("--q-list", str(2**70)),
        _invalid("--cstar-list", str(2**70)),
        _invalid("--euler-chi-modulus", str(2**70)),
        _invalid("--ramanujan-cstar", str(2**70)),
        # each enumerates the characters of one modulus, past chars list's 4096
        _invalid("--levels", "4097"),
        _invalid("--hecke-levels", "1,4097"),
        _invalid("--euler-levels", "4097"),
        _invalid("--euler-chi-modulus", "4097"),
        _invalid("--cstar-list", "4097"),
        _invalid("--moebius-cstar", "4097"),
        _invalid("--ramanujan-cstar", "4097"),
        _invalid("--cstar-list", "9223372036854775783"),
        # kernels past the modulus cap of 2048
        _invalid("--cstar-list", "1021"),
        _invalid("--q-list", "1,35"),
        _invalid("--window", "1000000:48:48"),
        _invalid("--moebius-m-max", "410"),
        _invalid("--ramanujan-ell-max", "257"),
        _invalid("--c-max", "342"),
        _invalid("--m-set", "1,-52"),
        _invalid("--kloosterman-c-max", "2049"),
        _invalid("--gauss-c-max", "2049"),
        _invalid("--collapse-c-max", "2049"),
        _invalid("--orthogonality-c-max", str(2**62)),
        # sizes that no kernel bounds: value tables, key grids, the sieve
        _invalid("--orthogonality-c-max", "257", "orthogonality_c_max must be <= 256, got 257"),
        _invalid("--window", "144:1025:48", "window P must be <= 1024, got 1025"),
        _invalid("--window", "144:48:1025", "window Q must be <= 1024, got 1025"),
        _invalid("--window", "144:48:480000", "window Q must be <= 1024, got 480000"),
        _invalid("--prime-bound", "65537", "prime_bound must be <= 65536, got 65537"),
        _invalid(
            "--prime-bound=3000000000",
            "--power-bound=1",
            "prime_bound must be <= 65536",
            id="prime-bound-3000000000-power-bound-1",
        ),
        # batched Gauss blocks past 2048**2 entries
        _invalid(
            "--m2-max",
            "1000000000",
            "c_max, m_set, m2_max: a Gauss block of 6400000003200 entries, above 4194304",
        ),
        _invalid("--c-max", "290", "c_max, m_set, m2_max: a Gauss block of 4205000 entries"),
        _invalid(
            "--ramanujan-m-max",
            "2428",
            "ramanujan_cstar, ramanujan_ell_max, ramanujan_m_max: a Gauss block of 4195584",
        ),
        # mixed-part indices q^2 p^4 past factorize's 2**63 - 1
        _invalid(
            "--prime-bound=30000",
            "--power-bound=1",
            "prime_bound, power_bound, hecke_levels: hecke-relations reads A(m1, m2) at an "
            "index 5^2*29989^4, above 2**63-1",
            id="prime-bound-30000-power-bound-1",
        ),
        pytest.param(
            ["--prime-bound=65536", "--power-bound=1", "--hecke-levels=2"],
            "prime_bound, power_bound, hecke_levels: hecke-relations reads A(m1, m2) at an "
            "index 2^2*65521^4",
            id="prime-bound-65536-power-bound-1-hecke-levels-2",
        ),
        _invalid("--nu1", "0.5"),
        _invalid("--nu1", "nan"),
        _invalid("--fault-injection", "--window=36:24:24", id="fault-injection-36:24:24"),
        _invalid("--fault-injection", "--window=3:27:2", id="fault-injection-3:27:2"),
        _invalid("--fault-injection", "--window=36:27:1", id="fault-injection-36:27:1"),
    ],
)
def test_invalid_config_exits_2_before_any_check(argv, error, capsys, no_check_runs):
    assert main(["verify", "all", *argv]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    SuiteConfig().validate()


@pytest.mark.parametrize(
    "argv, names",
    [
        (["--cstar-list", "9223372036854775783"], "cstar_list must be <= 4096"),
        (["--cstar-list", "1021"], "window, q_list, cstar_list: a kernel at modulus 73512"),
        (["--window", "1000000:48:48"], "window, q_list, cstar_list: a kernel at modulus 30000"),
        (
            ["--fault-injection", "--cstar-list", "1", "--q-list", "1", "--window", "491401:48:48"],
            "window, fault_injection: a kernel at modulus 2103",
        ),
        (["--moebius-m-max", "410"], "moebius_m_max, moebius_cstar: a kernel at modulus 2050"),
        (["--ramanujan-ell-max", "257"], "ramanujan_ell_max, ramanujan_cstar: a kernel at"),
        (["--m-set", "1,-52"], "c_max, m_set: a kernel at modulus 2080"),
        (["--orthogonality-c-max", "2049"], "orthogonality_c_max: a kernel at modulus 2049"),
    ],
)
def test_kernel_modulus_cap_names_the_fields(argv, names, capsys, no_check_runs):
    assert main(["verify", "all", *argv]) == 2
    assert f"error: {names}" in capsys.readouterr().err


def test_kernel_modulus_cap_is_inclusive():
    for name in ("kloosterman_c_max", "gauss_c_max", "collapse_c_max"):
        replace(SuiteConfig(), **{name: cli.KERNEL_MAX_MODULUS}).validate()
    # c_max max|m_set| = 2046; one column keeps the Gauss block small
    replace(SuiteConfig(), c_max=cli.KERNEL_MAX_MODULUS // 6, m2_max=0).validate()
    # Gauss blocks of exactly 2048**2 entries: 2048^2 phi(1) 1 and
    # phi(4)^2 512 2048
    replace(SuiteConfig(), c_max=2048, m_set=(1,), m2_max=0).validate()
    replace(
        SuiteConfig(), ramanujan_cstar=(4,), ramanujan_ell_max=512, ramanujan_m_max=2048
    ).validate()
    # the largest c_max at the default m_set and m2_max: 289^2 phi(6) 25
    replace(SuiteConfig(), c_max=289).validate()


def test_size_caps_are_inclusive():
    top = cli.WINDOW_MAX_PQ
    replace(SuiteConfig(), window=(144, top, top)).validate()
    replace(SuiteConfig(), orthogonality_c_max=cli.ORTHOGONALITY_MAX_C).validate()
    replace(
        SuiteConfig(),
        trials=cli.TRIALS_MAX,
        seeds_per_case=cli.SEEDS_PER_CASE_MAX,
        euler_n_max=cli.EULER_N_MAX,
        orthogonality_n_max=cli.ORTHOGONALITY_N_MAX,
        moebius_q_max=cli.MOEBIUS_Q_MAX,
    ).validate()
    # 65521^2 fits factorize; the default power_bound 4 would not, nor would
    # a level > 1, whose mixed part reads q^2 65521^4
    replace(
        SuiteConfig(), prime_bound=cli.PRIME_BOUND_MAX, power_bound=1, hecke_levels=(1,)
    ).validate()
    # at level 2 the largest index is 2^2 p^4: 4 * 38959^4 fits, 4 * 38971^4 not
    replace(SuiteConfig(), prime_bound=38970, power_bound=1, hecke_levels=(2,)).validate()
    with pytest.raises(ValueError, match=r"an index 2\^2\*38971\^4"):
        replace(SuiteConfig(), prime_bound=38971, power_bound=1, hecke_levels=(2,)).validate()


@pytest.mark.parametrize(
    "field", ["trials", "seeds_per_case", "euler_n_max", "orthogonality_n_max", "moebius_q_max"]
)
def test_a_count_of_10_to_the_12_exits_2_at_once(field, capsys, no_check_runs):
    # each passed validate, and its check then ran for hours
    flag = "--" + field.replace("_", "-")
    t0 = time.perf_counter()
    assert main(["verify", "all", flag, str(10**12)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"error: {field} must be <= " in capsys.readouterr().err


def test_prime_bound_cap_comes_before_any_primality_work(monkeypatch, capsys, no_check_runs):
    # the largest prime <= prime_bound comes from the sieve, after the cap:
    # a search down from 2**62 by trial division would take minutes
    def sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(cli, "primes_up_to", sieve)
    assert main(["verify", "all", "--prime-bound", str(2**62), "--power-bound", "1"]) == 2
    assert "error: prime_bound must be <= 65536" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_tolerance_exits_2_before_any_check(source, value, tmp_path, capsys, no_check_runs):
    # NaN or a tolerance <= 0 would FAIL every check, inf PASS every one
    if source == "flag":
        argv = ["verify", "gamma-unitarity", f"--tol={value}"]
    else:
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"tol.gauss-modulus = {value}\n")
        argv = ["verify", "gauss-modulus", "--config", str(cfg)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
