"""Usage: python3 tools/same_reports.py PARENT CHANGE

For every pinned seed in bench/expected.json, every workload and both
sizes (full and tiny), runs each checkout's bench/child.py with that
checkout's src/ and bench/ on PYTHONPATH and PYTHONHASHSEED=0.  Prints
each report whose max_residual repr, verdict or parameters differ
(runtime_ms is not compared) and exits 1 on any difference.
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
    subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, timeout=900)
    out = json.loads(Path(result).read_text())
    if "error" in out:
        return {"<child error>": out["error"]}
    return {
        r["check_name"]: (repr(r["max_residual"]), r["pass"], r["parameters"])
        for r in out["reports"]
    }


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
                    for name in sorted(old.keys() | new.keys()):
                        compared += 1
                        if old.get(name) != new.get(name):
                            differ += 1
                            size = "tiny" if tiny else "full"
                            print(f"{workload} {size} seed {seed} {name}")
                            print(f"  parent: {old.get(name)}\n  change: {new.get(name)}")
    print(f"{compared} reports compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
