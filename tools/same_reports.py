"""Usage: python3 tools/same_reports.py PARENT CHANGE

For every pinned seed in bench/expected.json, every workload and both
sizes (full and tiny), runs each checkout's bench/child.py with that
checkout's src/ and bench/ on PYTHONPATH and PYTHONHASHSEED=0; then, once
per checkout, each command of VERIFY_RUNS with `--format json`:
`verify all --fault-injection` at the default SuiteConfig, so both fault
probes are compared at the default window too, and hecke-relations at
`--prime-bound 233`, the largest prime whose p^8 (power_bound 4) fits
factorize, so its largest indices take factorize's perfect-power step;
kloosterman-reduction at `--c-max 120`, whose large C batch many g2 rows
into each Gauss-kernel call; kloosterman-reduction at `--m2-max 0
--c-max 60`, where every g2 block and every left side is one column
wide, the shape in which the kernel's order of summation and the
memory order of the left side's operands decide its rounding;
orthogonality at `--orthogonality-c-max 100 --orthogonality-n-max 4`,
whose moduli with phi(c)^2 above half a kernel block take their left
sides one n per block, from operands gathered along their second axis;
and `verify all` at small sizes at which no two config fields that reports
echo share a value, so a parameter that echoes the wrong field differs.
Prints each report whose max_residual repr, verdict or parameters differ
(runtime_ms is not compared): whether its residual repr and its verdict
are equal, each parameter removed, added or changed, and its log10
residual drift, log10(change / parent); then one count line for the
workloads, one per VERIFY_RUNS command and a closing line with the largest
|drift| and the names of the checks that differ, and exits 1 on any
difference.  A change whose only differences are roundoff shows as equal
verdicts and parameters with small drifts.  A run that raised or left no
result counts as a difference on its own, even when both checkouts fail
alike; it, and a report on one side only, is printed whole.

Last, each checkout dumps the bytes of kloosterman_matrix(c) for every
c <= KERNEL_C_MAX, of the coefficients A(m1, m2) for m1 <=
COEFFICIENT_M1_MAX coprime to the level and 0 < |m2| <= COEFFICIENT_M2_MAX
of the models at levels 1-3 with every nebentypus, their contragredients
and a twin with stacked corruptions, and of both sides of every
identities.compare call that z-expansion, fe-rearrangement,
moebius-assembly and both fault probes make at the default SuiteConfig,
each side as its keys, an int64 (n, 3) array in the series' order, and
its values; one line per dump gives how many moduli, models or arrays
differ and the largest |entry difference|.  A kernel, a model or an
array that differs counts toward exit 1, as does a dump that failed.
A fourth dump holds, for every c <= GAUSS_C_MAX, the Gauss kernel's
table _gauss_sums(enumerate_characters(c), c, 0..c-1), one batch of
every character mod c, and tau(chi) of each primitive chi mod c, each
from its own one-character, one-column call (the kernel's accumulate
path), and the one-character gauss_sum_table at each c of
GAUSS_LARGE_MODULI, which the kernel sums in many column blocks; a
modulus whose bytes differ counts toward exit 1 too.  A fifth dump
holds, for each sweep of REDUCTION_SWEEPS, every per-(c, m, m1) residual
that char_kloosterman_reduction_sweep folds into its maximum, sorted,
as the fold order is not part of the result; a sweep whose bytes
differ counts toward exit 1.  A sixth dump holds, sorted, every
per-case residual that additive-collapse (one per (theta, n)) and
orthogonality (one per (c, q, n, a)) fold at the default SuiteConfig,
caught at expsums.worse and identities.worse; a check whose bytes
differ counts toward exit 1.

Blind spot: a rounding change below a report's maximum passes unseen in
the checks that no dump covers, and in the entries of one reduction
tuple below that tuple's maximum; the bit-for-bit tests of Tier-1 are
what see it.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def run(root: Path, tag: str, workload: str, seed: int, tiny: bool, tmp: str) -> dict:
    """check name -> (max_residual repr, verdict, parameters) of one child run."""
    result = os.path.join(tmp, f"{tag}-{workload}-{seed}-{int(tiny)}.json")
    path = os.pathsep.join([str(root / "src"), str(root / "bench")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(root / "bench" / "child.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--result", result] + (["--tiny"] if tiny else [])
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=900,
    )
    if not os.path.exists(result):
        return {"<child error>": f"no result file, exit {proc.returncode}: {proc.stderr}"}
    out = json.loads(Path(result).read_text())
    if "error" in out:
        return {"<child error>": out["error"]}
    return {
        r["check_name"]: (repr(r["max_residual"]), r["pass"], r["parameters"])
        for r in out["reports"]
    }


# where -> verify arguments, each run once per checkout
VERIFY_RUNS = {
    "default verify all": ["all", "--fault-injection"],
    "verify hecke-relations --prime-bound 233 --trials 3": [
        "hecke-relations", "--prime-bound", "233", "--trials", "3",
    ],
    "verify kloosterman-reduction --c-max 120": ["kloosterman-reduction", "--c-max", "120"],
    "verify kloosterman-reduction --m2-max 0 --c-max 60": [
        "kloosterman-reduction", "--m2-max", "0", "--c-max", "60",
    ],
    "verify orthogonality --orthogonality-c-max 100 --orthogonality-n-max 4": [
        "orthogonality", "--orthogonality-c-max", "100", "--orthogonality-n-max", "4",
    ],
    # small sizes at which no two fields that reports echo share a value,
    # so an echo of the wrong field changes a parameter
    "verify all, distinct echoed values": [
        "all", "--window", "16:12:13", "--levels", "1,5", "--q-list", "1,2",
        "--cstar-list", "3,4", "--seeds-per-case", "1", "--hecke-levels", "1,3",
        "--prime-bound", "5", "--power-bound", "9", "--trials", "1", "--c-max", "6",
        "--m-set", "1,-2", "--m2-max", "0", "--collapse-c-max", "8",
        "--kloosterman-c-max", "30", "--gauss-c-max", "12", "--euler-n-max", "40",
        "--euler-levels", "1,2,3", "--euler-chi-modulus", "4", "--ramanujan-cstar", "3,5",
        "--ramanujan-levels", "2,3", "--ramanujan-m-max", "11", "--ramanujan-ell-max", "13",
        "--moebius-q-max", "2", "--moebius-m-max", "3", "--moebius-cstar", "4,7",
        "--orthogonality-c-max", "10", "--orthogonality-n-max", "7",
    ],
}


def run_verify(root: Path, args: list[str]) -> dict:
    """check name -> (max_residual repr, verdict, parameters) of one
    `verify ARGS --format json` run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "gl3voronoi.cli", "verify", *args, "--format", "json"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        return {"<verify error>": proc.stderr}
    return {
        r["check_name"]: (repr(r["max_residual"]), r["pass"], r["parameters"])
        for r in json.loads(proc.stdout)["reports"]
    }


ERRORS = ("<child error>", "<verify error>")


def drift(old, new) -> float | None:
    """log10(change residual / parent residual) of two report entries, or
    None unless both are reports with finite residuals > 0."""
    try:
        a, b = float(old[0]), float(new[0])
    except (TypeError, ValueError):
        return None
    if not (0 < a < math.inf and 0 < b < math.inf):
        return None
    return math.log10(b / a)


def describe(old, new) -> list[str]:
    """How two entries of one check differ: residual repr and verdict,
    equal or not, then each parameter removed, added or changed; an error
    or a missing report is shown whole."""
    if not (isinstance(old, tuple) and isinstance(new, tuple)):
        return [f"parent: {old}", f"change: {new}"]
    lines = [
        f"{what}: " + (f"equal ({a})" if a == b else f"parent {a}, change {b}")
        for what, a, b in (("residual", old[0], new[0]), ("verdict", old[1], new[1]))
    ]
    params_old, params_new = old[2], new[2]
    for key in sorted(params_old.keys() | params_new.keys()):
        if key not in params_new:
            lines.append(f"parameter removed: {key} = {params_old[key]!r}")
        elif key not in params_old:
            lines.append(f"parameter added: {key} = {params_new[key]!r}")
        elif params_old[key] != params_new[key]:
            lines.append(f"parameter changed: {key}: {params_old[key]!r} -> {params_new[key]!r}")
    return lines


def report_differences(old: dict, new: dict, where: str, differing: dict) -> int:
    """Print each check whose entry differs, with its residual drift, and
    each error entry of either side; record in differing the largest
    |drift| per check name (None if no drift could be taken); return how
    many there were."""
    count = 0
    for name in sorted(old.keys() | new.keys()):
        if name in ERRORS or old.get(name) != new.get(name):
            count += 1
            d = None if name in ERRORS else drift(old.get(name), new.get(name))
            print(f"{where} {name}")
            for line in describe(old.get(name), new.get(name)):
                print(f"  {line}")
            print(f"  log10 drift: {'n/a' if d is None else f'{d:+.3f}'}")
            prev = differing.get(name)
            differing[name] = prev if d is None else max(abs(d), prev or 0.0)
    return count


def closing_line(differing: dict) -> str:
    """The largest |log10 drift| over all differing reports and the names
    of the checks that differ."""
    drifts = [d for d in differing.values() if d is not None]
    largest = f"{max(drifts):.3f}" if drifts else "n/a"
    names = ", ".join(sorted(differing)) or "none"
    return f"largest |log10 drift|: {largest}; checks that differ: {names}"


KERNEL_C_MAX = 200

# run in a checkout: save kloosterman_matrix(c) for c <= argv[2] to the .npz
# argv[1]; gl3voronoi is imported before numpy, so its thread pin holds
DUMP_KERNELS = (
    "import sys; from gl3voronoi.expsums import kloosterman_matrix; import numpy as np; "
    "c_max = int(sys.argv[2]); "
    "np.savez(sys.argv[1], **{str(c): kloosterman_matrix(c) for c in range(1, c_max + 1)})"
)

GAUSS_C_MAX = 120
GAUSS_LARGE_MODULI = (1021, 2039)

# run in a checkout: save to the .npz argv[1], for each c <= argv[2], the
# flattened Gauss table of every character mod c, one batched call, then
# tau(chi) of each primitive chi mod c from its own one-column call; and
# for each prime c in argv[3:], gauss_sum_table of the character mod c
# with exponent 1
DUMP_GAUSS = """
import sys
from gl3voronoi.characters import (
    DirichletCharacter, _gauss_sums, enumerate_characters, gauss_sum_table,
    primitive_characters,
)
import numpy as np

out = {}
for c in range(1, int(sys.argv[2]) + 1):
    table = _gauss_sums(enumerate_characters(c), c, np.arange(c)).ravel()
    taus = [_gauss_sums([chi], c, np.array([1]))[0, 0] for chi in primitive_characters(c)]
    out[str(c)] = np.concatenate([table, np.array(taus, dtype=complex)])
for c in map(int, sys.argv[3:]):
    out[f"table {c}"] = np.array(gauss_sum_table(DirichletCharacter(c, (1,)), c))
np.savez(sys.argv[1], **out)
"""

# (c_max, m2_max) of each reduction sweep dumped, at the default m_set
REDUCTION_SWEEPS = ((40, 12), (60, 0))

# run in a checkout: save to the .npz argv[1], for each "c_max:m2_max" in
# argv[2:], the sorted residuals that the reduction sweep folds, one per
# (c, m, m1), at the default m_set
DUMP_REDUCTION = """
import sys
from gl3voronoi import expsums
from gl3voronoi.cli import SuiteConfig
import numpy as np

fold = expsums.worse
residuals = []


def keep(worst, *values):
    residuals.extend(values)
    return fold(worst, *values)


expsums.worse = keep
out = {}
for sweep in sys.argv[2:]:
    c_max, m2_max = map(int, sweep.split(":"))
    residuals.clear()
    expsums.char_kloosterman_reduction_sweep(c_max, SuiteConfig().m_set, m2_max)
    out[sweep] = np.sort(np.array(residuals))
np.savez(sys.argv[1], **out)
"""

# run in a checkout: save to the .npz argv[1], per check, the sorted
# residuals that additive-collapse and orthogonality fold, one per case, at
# the default SuiteConfig; exit 1 if a check raised
DUMP_CASES = """
import sys
from gl3voronoi import expsums, identities
from gl3voronoi.cli import SuiteConfig, run_suite
import numpy as np

out = {}


def keep(module, check):
    fold, residuals = module.worse, out.setdefault(check, [])

    def worse(worst, *values):
        residuals.extend(values)
        return fold(worst, *values)

    module.worse = worse


keep(expsums, "additive-collapse")
keep(identities, "orthogonality")
reports = run_suite(SuiteConfig(), list(out))
np.savez(sys.argv[1], **{check: np.sort(np.array(r, dtype=float)) for check, r in out.items()})
sys.exit("; ".join(r.parameters["error"] for r in reports if "error" in r.parameters) or None)
"""

COEFFICIENT_M1_MAX, COEFFICIENT_M2_MAX = 60, 500

# run in a checkout: save to the .npz argv[1], per model, the rows
# A(m1, m2) for m1 <= argv[2] coprime to the level and 0 < |m2| <= argv[3],
# of the models at levels 1-3 with every nebentypus, their contragredients
# and a twin with stacked corruptions, one of them at a negative m2
DUMP_COEFFICIENTS = """
import math, sys
from gl3voronoi.characters import enumerate_characters
from gl3voronoi.heckemodel import new_model
import numpy as np

m1_max, m2_max = int(sys.argv[2]), int(sys.argv[3])
m2s = [m2 for m2 in range(-m2_max, m2_max + 1) if m2]
out = {}
for level in (1, 2, 3):
    m1s = [m1 for m1 in range(1, m1_max + 1) if math.gcd(m1, level) == 1]
    for i, psi in enumerate(enumerate_characters(level)):
        model = new_model(level, psi, seed=1729 + i)
        stacked = model.corrupted((1, 2), 1e-3).corrupted((5, -4), -2e-3j)
        for name, m in (("model", model), ("dual", model.contragredient()), ("stacked", stacked)):
            rows = [[m.coefficient(m1, m2) for m2 in m2s] for m1 in m1s]
            out[f"level {level} psi {i} {name}"] = np.array(rows, dtype=complex)
np.savez(sys.argv[1], **out)
"""


# run in a checkout: save to the .npz argv[1] both sides of each
# identities.compare call, in call order, that the identity checks and the
# fault probes make at the default SuiteConfig, or at the window argv[2]
# if given; exit 1 if a check raised
DUMP_IDENTITIES = """
import sys
from gl3voronoi import identities
from gl3voronoi.cli import SuiteConfig, run_suite
import numpy as np

arrays = {}
compare = identities.compare


def keep(a, b):
    i = len(arrays) // 4
    for side, series in (("lhs", a), ("rhs", b)):
        keys = np.array(list(series.terms), dtype=np.int64).reshape(-1, 3)
        arrays[f"{i} {side} keys"] = keys
        arrays[f"{i} {side} values"] = np.array(list(series.terms.values()), dtype=complex)
    return compare(a, b)


identities.compare = keep
kw = {"window": tuple(map(int, sys.argv[2].split(":")))} if len(sys.argv) > 2 else {}
config = SuiteConfig(fault_injection=True, **kw)
reports = run_suite(config, ["fe-rearrangement", "moebius-assembly", "z-expansion"])
np.savez(sys.argv[1], **arrays)
sys.exit("; ".join(r.parameters["error"] for r in reports if "error" in r.parameters) or None)
"""


def dump(root: Path, script: str, path: str, *args) -> str | None:
    """Run script in root with the arguments path, *args; None, or the
    error of a dump that failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-c", script, path, *map(str, args)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
    return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr}"


def dump_differences(old: str, new: str) -> tuple[int, float]:
    """How many arrays differ in bytes between two .npz dumps, and the
    largest |entry difference| (inf for an array whose shape changed or
    that one dump lacks)."""
    with np.load(old) as a, np.load(new) as b:
        pairs = [
            (a[key] if key in a else None, b[key] if key in b else None)
            for key in sorted(set(a.files) | set(b.files))
        ]
    count, largest = 0, 0.0
    for x, y in pairs:
        if x is None or y is None or x.shape != y.shape:
            count, largest = count + 1, math.inf
        elif x.tobytes() != y.tobytes():
            count, largest = count + 1, max(largest, float(np.max(np.abs(x - y))))
    return count, largest


def dump_run(roots: list[Path], tmp: str, where: str, script: str, args, unit: str) -> int:
    """Dump with script in both checkouts, print one line of how many of
    the parent's arrays (each one of unit) differ and by how much, and
    return that count (1 if a dump failed).  Each run dumps into its own
    directory under tmp, so no two runs share a file."""
    tmp = tempfile.mkdtemp(dir=tmp)
    paths = [os.path.join(tmp, f"{tag}.npz") for tag in "ab"]
    for root, path, side in zip(roots, paths, ("parent", "change")):
        error = dump(root, script, path, *args)
        if error is not None:
            print(f"{where}: {side} dump failed, {error}")
            return 1
    count, largest = dump_differences(*paths)
    with np.load(paths[0]) as a:
        total = len(a.files)
    print(f"{where}: {count} of {total} {unit} differ, largest |delta| {largest:.3g}")
    return count


def kernel_run(roots: list[Path], tmp: str, c_max: int = KERNEL_C_MAX) -> int:
    """The kernel bytes: kloosterman_matrix(c) for every c <= c_max."""
    where = f"kloosterman_matrix(c), c <= {c_max}"
    return dump_run(roots, tmp, where, DUMP_KERNELS, [c_max], "moduli")


def gauss_run(
    roots: list[Path], tmp: str, c_max: int = GAUSS_C_MAX, large=GAUSS_LARGE_MODULI
) -> int:
    """The Gauss kernel bytes: every table and tau of DUMP_GAUSS."""
    where = f"Gauss sums mod c, c <= {c_max} and c in {list(large)}"
    return dump_run(roots, tmp, where, DUMP_GAUSS, [c_max, *large], "moduli")


def reduction_run(roots: list[Path], tmp: str, sweeps=REDUCTION_SWEEPS) -> int:
    """The reduction sweep's per-tuple residuals of DUMP_REDUCTION."""
    args = [f"{c_max}:{m2_max}" for c_max, m2_max in sweeps]
    where = f"reduction residuals, c_max:m2_max {', '.join(args)}"
    return dump_run(roots, tmp, where, DUMP_REDUCTION, args, "sweeps")


def case_run(roots: list[Path], tmp: str) -> int:
    """The per-case residuals of additive-collapse and orthogonality of DUMP_CASES."""
    where = "additive-collapse and orthogonality residuals, default config"
    return dump_run(roots, tmp, where, DUMP_CASES, [], "checks")


def coefficient_run(
    roots: list[Path], tmp: str, m1_max: int = COEFFICIENT_M1_MAX, m2_max: int = COEFFICIENT_M2_MAX
) -> int:
    """The coefficient bytes: A(m1, m2) of each model of DUMP_COEFFICIENTS."""
    where = f"A(m1, m2), m1 <= {m1_max}, 0 < |m2| <= {m2_max}"
    return dump_run(roots, tmp, where, DUMP_COEFFICIENTS, [m1_max, m2_max], "models")


def identity_run(roots: list[Path], tmp: str, window: str | None = None) -> int:
    """The identity series: both sides of each compare of DUMP_IDENTITIES."""
    where = f"identity series, window {window or 'default'}"
    return dump_run(roots, tmp, where, DUMP_IDENTITIES, [window] if window else [], "arrays")


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    roots = [Path(arg).resolve() for arg in sys.argv[1:]]
    expected = json.loads((roots[0] / "bench" / "expected.json").read_text())
    workloads = sorted({name.split("/")[0] for name in expected["workloads"]})
    compared = differ = 0
    differing: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for tiny in (False, True):
                for seed in expected["seeds"]:
                    old, new = (run(r, t, workload, seed, tiny, tmp) for r, t in zip(roots, "ab"))
                    compared += len(old.keys() | new.keys())
                    size = "tiny" if tiny else "full"
                    where = f"{workload} {size} seed {seed}"
                    differ += report_differences(old, new, where, differing)
    verify_differ = 0
    for where, args in VERIFY_RUNS.items():
        old, new = (run_verify(r, args) for r in roots)
        count = report_differences(old, new, where, differing)
        print(f"{where}: {len(old.keys() | new.keys())} reports compared, {count} differ")
        verify_differ += count
    with tempfile.TemporaryDirectory() as tmp:
        dumps_differ = (
            kernel_run(roots, tmp) + gauss_run(roots, tmp) + reduction_run(roots, tmp)
            + case_run(roots, tmp) + coefficient_run(roots, tmp) + identity_run(roots, tmp)
        )
    print(f"{compared} reports compared, {differ} differ")
    print(closing_line(differing))
    return 1 if differ or verify_differ or dumps_differ else 0


if __name__ == "__main__":
    sys.exit(main())
