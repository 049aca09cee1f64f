"""Usage: python3 tools/same_reports.py PARENT CHANGE

For every pinned seed in bench/expected.json, every workload and both
sizes (full and tiny), runs each checkout's bench/child.py with that
checkout's src/ and bench/ on PYTHONPATH and PYTHONHASHSEED=0; then, once
per checkout, `verify all --format json` at the default SuiteConfig.
Prints each report whose max_residual repr, verdict or parameters differ
(runtime_ms is not compared), one count line for the workloads and one
for the default run, and exits 1 on any difference.  A run that raised
or left no result counts as a difference on its own, even when both
checkouts fail alike.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


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


def run_default(root: Path) -> dict:
    """check name -> (max_residual repr, verdict, parameters) of the
    default `verify all`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "gl3voronoi.cli", "verify", "all", "--format", "json"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):
        return {"<verify all error>": proc.stderr}
    return {
        r["check_name"]: (repr(r["max_residual"]), r["pass"], r["parameters"])
        for r in json.loads(proc.stdout)["reports"]
    }


ERRORS = ("<child error>", "<verify all error>")


def report_differences(old: dict, new: dict, where: str) -> int:
    """Print each check whose entry differs, and each error entry of
    either side; return how many there were."""
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        if name in ERRORS or old.get(name) != new.get(name):
            differ += 1
            print(f"{where} {name}")
            print(f"  parent: {old.get(name)}\n  change: {new.get(name)}")
    return differ


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    roots = [Path(arg).resolve() for arg in sys.argv[1:]]
    expected = json.loads((roots[0] / "bench" / "expected.json").read_text())
    workloads = sorted({name.split("/")[0] for name in expected["workloads"]})
    compared = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for tiny in (False, True):
                for seed in expected["seeds"]:
                    old, new = (run(r, t, workload, seed, tiny, tmp) for r, t in zip(roots, "ab"))
                    compared += len(old.keys() | new.keys())
                    size = "tiny" if tiny else "full"
                    differ += report_differences(old, new, f"{workload} {size} seed {seed}")
    old, new = (run_default(r) for r in roots)
    default_differ = report_differences(old, new, "default verify all")
    print(f"default verify all: {len(old.keys() | new.keys())} reports compared, "
          f"{default_differ} differ")
    print(f"{compared} reports compared, {differ} differ")
    return 1 if differ or default_differ else 0


if __name__ == "__main__":
    sys.exit(main())
