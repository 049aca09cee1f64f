"""Benchmark of the gl3voronoi verifier: cold `verify` processes, end to end.

    python3 bench/run.py --workload suite-default --seed 1729 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Load is a closed loop with one client: one fresh child
interpreter at a time (bench/child.py), each running the workload once,
because every `gl3voronoi verify` invocation pays cold imports and cold
caches.  The child gets GL3VORONOI_THREADS=1 and PYTHONHASHSEED=0.

--trace 0 runs the workload in children until --seconds have passed
(at least once), one pinned seed after another starting at --seed.
While a child runs, this process times a small fixed kernel every 10 ms
(see `speed_kernel`), and each child's times are scaled to the kernel's
reference speed, so that the host's speed changing during and between
runs cancels.  It checks every report against bench/expected.json and
prints the end-to-end metrics (medians over the children).

--trace 1 runs the workload once with bench/tracer.py installed, then
once untraced, writes the spans to bench/out/, and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

RUN_LIMIT_S = 170.0  # every child is killed by then; the run exits soon after
SPEED_PERIOD_S = 0.01  # the speed kernel runs this often while a child runs
SPEED_REF_S = 0.0013  # its reference time; see Child.scaled
COUNT_PARAMS = ("cases", "runs", "models", "primitive_count")
PROBES = {
    "identities.verify_Z_expansion": "z-expansion-fault-injected",
    "identities.fe_rearrangement_sensitivity": "fe-rearrangement-sensitivity",
}


@dataclass
class Child:
    """One finished child process and what it reported."""

    wall: float
    cpu: float
    rss_mib: float
    setup: float | None  # spawn to first check entered
    result: dict | None  # the child's result file
    killed: bool
    # (spawn to sample, kernel wall time, kernel CPU time) while it ran
    speed: list[tuple[float, float, float]]

    def kernel_s(self, until: float = math.inf, cpu: bool = False) -> float:
        """Mean speed-kernel wall (or CPU) time over the child's life, or
        over its first `until` seconds."""
        samples = [x for x in self.speed if x[0] <= until] or self.speed
        return statistics.fmean(x[2 if cpu else 1] for x in samples)

    def scaled(self, seconds: float, until: float = math.inf, cpu: bool = False) -> float:
        """`seconds` of this child at the speed kernel's reference speed.

        Reference speed is the kernel taking SPEED_REF_S, about its median
        time while a child runs on the 2-core "Intel(R) Xeon(R) Processor"
        VM the benchmark was written on.  CPU seconds are scaled by the
        kernel's CPU time: time the host takes the core away from the
        child is in the wall times of both, and in neither CPU time.
        """
        return seconds * SPEED_REF_S / self.kernel_s(until, cpu)

    @property
    def reports(self):
        return None if self.result is None else self.result.get("reports")


def speed_kernel(i: int) -> tuple[float, float]:
    """Wall and CPU time of one pass of a fixed pure-Python kernel, about
    1 ms, on core i mod n.

    The host the benchmark was written on is a shared 2-core VM: the
    speed of each core halves and recovers from one half second to the
    next, independently on the two cores, and drifts by up to 50% within
    an hour.  Timed every SPEED_PERIOD_S while a child runs, on each core
    this process may use in turn, the kernel measures the speed the child
    ran at.  It does the kind of work the verifier does (tuple-keyed dict
    updates, Fraction and complex arithmetic) and uses nothing of
    gl3voronoi, so a change to the program does not change it.
    """
    cpus = os.sched_getaffinity(0)
    order = sorted(cpus)
    os.sched_setaffinity(0, {order[i % len(order)]})
    try:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        table: dict = {}
        acc = Fraction(0)
        z = 0j
        for k in range(1, 300):
            key = (k % 61, k % 37)
            table[key] = table.get(key, 0) + k * k % 13
            acc += Fraction(k % 7, 6)
            z += cmath.exp(0.1j * (k % 13))
        return time.perf_counter() - t0, time.thread_time() - c0
    finally:
        os.sched_setaffinity(0, cpus)


def spawn(workload, seed, deadline, tiny=False, trace_out=None) -> Child:
    """Run bench/child.py once and wait for it; kill it at the deadline."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--result",
        str(result_path),
    ]
    if tiny:
        cmd.append("--tiny")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"), GL3VORONOI_THREADS="1", PYTHONHASHSEED="0"
    )
    err_path = OUT / f"child-{os.getpid()}.stderr"
    with open(err_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        speed = []
        exited = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not exited and time.monotonic() < deadline:
                wait = min(SPEED_PERIOD_S, deadline - time.monotonic())
                exited = bool(select.select([pidfd], [], [], max(0.0, wait))[0])
                if not exited:
                    speed.append((time.monotonic() - t0, *speed_kernel(len(speed))))
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        killed = not exited
        if killed:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not speed:
        speed.append((wall, *speed_kernel(0)))
    result = None
    if result_path.exists() and not killed:
        with open(result_path) as fh:
            result = json.load(fh)
    for suffix in ("", ".report.json", ".conf"):
        Path(str(result_path) + suffix).unlink(missing_ok=True)
    if err_path.stat().st_size == 0:
        err_path.unlink()
    setup = None
    if result is not None and result.get("t_first_check") is not None:
        setup = result["t_first_check"] - t0
    return Child(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        setup,
        result,
        killed,
        speed,
    )


# -- correctness gate --------------------------------------------------------


def load_expected(workload: str, tiny: bool) -> dict:
    with open(EXPECTED) as fh:
        pinned = json.load(fh)
    spec = pinned["workloads"][workload + ("/tiny" if tiny else "")]
    return dict(spec, residual_factor=pinned["residual_factor"], margin_cap=pinned["margin_cap"])


def run_seeds(seed: int) -> list[int]:
    """The pinned seeds a run uses, in order, starting with `seed`.

    The gate compares residuals seed by seed, so every child runs a seed
    with pinned expectations.  A run starts at `seed` when it is pinned,
    else at pinned seed number (seed mod count), and its next children
    take the next pinned seeds in turn, so that a run's median does not
    rest on one seed's models.
    """
    with open(EXPECTED) as fh:
        pinned = sorted(json.load(fh)["seeds"])
    start = pinned.index(seed) if seed in pinned else seed % len(pinned)
    return pinned[start:] + pinned[:start]


def gate(reports, spec: dict, seed: int) -> tuple[int, int, float]:
    """(failed, attempted, min_margin) of one child's reports at a pinned seed.

    A report fails when it is missing or unexpected, when its verdict or a
    count parameter differs from the pinned one, or when its residual is
    more than residual_factor times the residual pinned for this seed.

    min_margin is the margin at the default seed, moved by this run's
    drift: the minimum over expected-PASS reports of
    log10(tolerance / residual pinned at DEFAULT_SEED)
    - log10(residual / residual pinned at this seed), within +-margin_cap.
    At the commit that pinned the residuals it reads the same at every
    seed; a change that doubles a residual lowers it by 0.3.
    """
    expected = spec["reports"]
    attempted = len(expected)
    cap = spec["margin_cap"]
    if reports is None:
        return attempted, attempted, -cap
    pinned = spec["residuals"][str(seed)]
    reference = spec["residuals"][str(DEFAULT_SEED)]
    got = {r["check_name"]: r for r in reports}
    failed = sum(1 for name in got if name not in expected)
    margin = cap
    for name, exp in expected.items():
        r = got.get(name)
        if r is None:
            failed += 1
            continue
        floor = r["tolerance"] * 10.0**-cap
        residual = r["max_residual"]
        ok = (
            r["pass"] == exp["pass"]
            and all(r["parameters"].get(k) == v for k, v in exp["counts"].items())
            and residual <= spec["residual_factor"] * max(pinned[name], floor)
        )
        failed += not ok
        if not exp["pass"]:
            continue
        if not math.isfinite(residual):
            margin = -cap
            continue
        at_default = math.log10(r["tolerance"] / max(reference[name], floor))
        drift = math.log10(max(residual, floor) / max(pinned[name], floor))
        margin = min(margin, at_default - drift)
    return min(failed, attempted), attempted, max(margin, -cap)


# -- runs --------------------------------------------------------------------


def measure(workload, seed, seconds, tiny=False, spec=None) -> dict:
    """End-to-end run: children for `seconds`, one after another."""
    spec = spec or load_expected(workload, tiny)
    seeds = run_seeds(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    children = []
    while True:
        c = spawn(workload, seeds[len(children) % len(seeds)], deadline, tiny=tiny)
        children.append(c)
        now = time.monotonic()
        if now - start >= seconds or now + c.wall > deadline:
            break
    failed = attempted = 0
    margin = spec["margin_cap"]
    for i, c in enumerate(children):
        f, a, m = gate(c.reports, spec, seeds[i % len(seeds)])
        failed += f
        attempted += a
        margin = min(margin, m)
    check_ms: dict[str, list[int]] = {}
    for c in children:
        for r in c.reports or ():
            check_ms.setdefault(r["check_name"], []).append(r["runtime_ms"])
    setups = [c.scaled(c.setup, until=c.setup) for c in children if c.setup is not None]
    metrics = {
        "wall_s": (statistics.median(c.scaled(c.wall) for c in children), "s"),
        "setup_s": (statistics.median(setups) if setups else RUN_LIMIT_S, "s"),
        "cpu_s": (statistics.median(c.scaled(c.cpu, cpu=True) for c in children), "s"),
        "peak_rss_mib": (statistics.median(c.rss_mib for c in children), "MiB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
        "min_margin": (margin, "log10"),
    }
    informational = {
        "unscaled wall_s": statistics.median(c.wall for c in children),
        "unscaled cpu_s": statistics.median(c.cpu for c in children),
        "speed kernel wall_s": statistics.median(c.kernel_s() for c in children),
        "speed kernel cpu_s": statistics.median(c.kernel_s(cpu=True) for c in children),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "children": len(children),
        "informational": informational,
        "check_ms": {name: statistics.median(ms) for name, ms in check_ms.items()},
        "errors": [c.result["error"] for c in children if c.result and "error" in c.result],
    }


def traced(workload, seed, tiny=False, spec=None) -> dict:
    """Traced run: one child with the tracer, per-layer metrics from its spans.

    trace.overhead_s is the traced child's scaled wall time minus that of
    one untraced child of the same seed, run right after it.
    """
    spec = spec or load_expected(workload, tiny)
    seed = run_seeds(seed)[0]
    deadline = time.monotonic() + RUN_LIMIT_S
    trace_path = OUT / f"trace-{workload}{'-tiny' if tiny else ''}-{seed}.json"
    trace_path.unlink(missing_ok=True)
    c = spawn(workload, seed, deadline, tiny=tiny, trace_out=trace_path)
    untraced = spawn(workload, seed, deadline, tiny=tiny)
    failed, attempted, _ = gate(c.reports, spec, seed)
    metrics = {}
    if trace_path.exists() and not c.killed and not untraced.killed:
        with open(trace_path) as fh:
            metrics = layer_metrics(json.load(fh))
        metrics["trace.overhead_s"] = (c.scaled(c.wall) - untraced.scaled(untraced.wall), "s")
    else:
        failed = attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": [c.result["error"]] if c.result and "error" in c.result else [],
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics (value, unit) from one traced child's dump."""
    fns, counts = trace["functions"], trace["counts"]

    def calls(*names):
        return sum(fns[n]["calls"] for n in names if n in fns)

    def total(*names):
        return sum(fns[n]["total_s"] for n in names if n in fns)

    def self_s(module):
        return sum(f["self_s"] for n, f in fns.items() if n.startswith(module + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    # every check of cli.CHECKS and both probes, whether or not this workload ran them
    check_s = {name: total(fn) for name, fn in trace["checks"].items()}
    check_s.update(dict.fromkeys(PROBES.values(), 0.0))
    spans = trace["spans"]
    for name, t0, t1, parent in spans:
        if name in PROBES and parent >= 0 and spans[parent][0] == "cli.check_fault_injection":
            check_s[PROBES[name]] += t1 - t0

    coefficient_calls = calls("heckemodel.coefficient")
    table = "characters.gauss_sum_table"
    table_lookups = counts[table + ".hits"] + counts[table + ".misses"]
    pairs = counts.get("formal.series_mul.pairs", 0)
    build_g_calls = calls("identities.build_G")
    verifiers = [n for n in fns if n.startswith("identities.verify_")]
    verifiers += ["identities.fe_rearrangement_sensitivity", "identities.ramanujan_lemma_residual"]
    sweeps = [n for n in fns if n.startswith("expsums.") and n.endswith("_sweep")]
    residuals = ("heckemodel.hecke_relation_residual_1", "heckemodel.hecke_relation_residual_2")

    m = {f"cli.check_s.{name}": (value, "s") for name, value in check_s.items()}
    m.update(
        {
            "cli.self_s": (self_s("cli"), "s"),
            "heckemodel.coefficient.calls": (coefficient_calls, "count"),
            "heckemodel.coefficient.s": (total("heckemodel.coefficient"), "s"),
            "heckemodel.coefficient.distinct_ratio": (
                ratio(counts["heckemodel.coefficient.distinct"], coefficient_calls),
                "ratio",
            ),
            "heckemodel.new_model.calls": (calls("heckemodel.new_model"), "count"),
            "heckemodel.new_model.s": (total("heckemodel.new_model"), "s"),
            "heckemodel.relation_residual.calls": (calls(*residuals), "count"),
            "heckemodel.relation_residual.s": (total(*residuals), "s"),
            "heckemodel.self_s": (self_s("heckemodel"), "s"),
            "characters.chi_call.calls": (calls("characters.chi_call"), "count"),
            "characters.chi_call.s": (total("characters.chi_call"), "s"),
            "characters.angle.calls": (calls("characters.angle"), "count"),
            "characters.gauss_sum_table.calls": (calls(table), "count"),
            "characters.gauss_sum_table.misses": (counts[table + ".misses"], "count"),
            "characters.gauss_sum_table.hit_ratio": (
                ratio(counts[table + ".hits"], table_lookups),
                "ratio",
            ),
            "characters.gauss_sum_table.s": (total(table), "s"),
            "characters.gauss_sum.calls": (calls("characters.gauss_sum"), "count"),
            "characters.gauss_sum.s": (total("characters.gauss_sum"), "s"),
            "characters.multiply.calls": (calls("characters.multiply"), "count"),
            "characters.primitive_part.calls": (calls("characters.primitive_part"), "count"),
            "characters.self_s": (self_s("characters"), "s"),
            "arith.factorize.calls": (calls("arith.factorize"), "count"),
            "arith.factorize.s": (total("arith.factorize"), "s"),
            "arith.divisors.calls": (calls("arith.divisors"), "count"),
            "arith.self_s": (self_s("arith"), "s"),
            "expsums.kloosterman_matrix.calls": (calls("expsums.kloosterman_matrix"), "count"),
            "expsums.kloosterman_matrix.s": (total("expsums.kloosterman_matrix"), "s"),
            "expsums.kernel_flops_computed": (
                counts.get("expsums.kernel_flops_computed", 0),
                "flop",
            ),
            "expsums.sweep.s": (total(*sweeps), "s"),
            "expsums.self_s": (self_s("expsums"), "s"),
            "formal.build_lseries.calls": (calls("formal.build_lseries"), "count"),
            "formal.build_lseries.s": (total("formal.build_lseries"), "s"),
            "formal.build_lseries.terms": (counts.get("formal.build_lseries.terms", 0), "count"),
            "formal.series_mul.calls": (calls("formal.series_mul"), "count"),
            "formal.series_mul.s": (total("formal.series_mul"), "s"),
            "formal.series_mul.pairs": (pairs, "count"),
            "formal.series_mul.kept_ratio": (
                ratio(counts.get("formal.series_mul.out_terms", 0), pairs),
                "ratio",
            ),
            "formal.compare.calls": (calls("formal.compare"), "count"),
            "formal.compare.s": (total("formal.compare"), "s"),
            "formal.compare.keys": (counts.get("formal.compare.keys", 0), "count"),
            "formal.self_s": (self_s("formal"), "s"),
            "identities.build_G.calls": (build_g_calls, "count"),
            "identities.build_G.s": (total("identities.build_G"), "s"),
            "identities.build_G.distinct_ratio": (
                ratio(counts["identities.build_G.distinct"], build_g_calls),
                "ratio",
            ),
            "identities.build_H.calls": (calls("identities.build_H"), "count"),
            "identities.verify.calls": (calls(*verifiers), "count"),
            "identities.verify.s": (total(*verifiers), "s"),
            "identities.self_s": (self_s("identities"), "s"),
            "special.bessel_k.calls": (calls("special.bessel_k"), "count"),
            "special.fourier_bessel_lhs.calls": (calls("special.fourier_bessel_lhs"), "count"),
            "special.quad.s": (total("special.quad"), "s"),
            "special.self_s": (self_s("special"), "s"),
        }
    )
    return m


# -- command line ------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gl3voronoi" / "cli.py").is_file():
        print(f"error: no gl3voronoi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        out = traced(args.workload, args.seed)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    info = {
        "machine": machine_info(),
        "workload": args.workload,
        "first_workload_seed": run_seeds(args.seed)[0],
        "children": out.get("children", 2),
    }
    print(json.dumps(info))
    for error in out["errors"]:
        print(error, file=sys.stderr)
    for name, value in out.get("informational", {}).items():
        print(f"{args.workload:16s} {name:44s} {value:.6g} s (informational)")
    for name, ms in out.get("check_ms", {}).items():
        print(f"{args.workload:16s} {'runtime_ms of ' + name:44s} {ms:g} ms (informational)")
    for name, (value, unit) in out["metrics"].items():
        print(f"{args.workload:16s} {name:44s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0 and bool(out["metrics"]),
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
