"""Usage: python3 tools/unrun_lines.py [ROOT]

Line-traces one process with the standard library's sys.settrace while
it imports ROOT/src/gl3voronoi, runs `verify all --fault-injection` at
the default SuiteConfig, and then cli.run_suite on every workload of
ROOT/bench/workloads.py, at its full and at its tiny overrides.  Prints,
for each module of the package, the statements that never ran, as line
ranges, then one total line.  Docstrings are not statements here.  A
simple statement ran when any line it spans ran; a compound one (def,
class, if, for, with, try, ...) when any line of its whole block ran, so
an unrun block shows its header and each of its statements.

ROOT defaults to the checkout that holds this file.  bench/ is read,
never written: no bytecode is cached while the tool runs.  The whole
run takes about 11 s (CPython 3.11, 2-core AMD EPYC host).
"""

from __future__ import annotations

import ast
import bisect
import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path


def collect(run, prefix: str) -> dict[str, set[int]]:
    """Call run() under sys.settrace; the line numbers that ran, by file,
    for every file whose path starts with prefix."""
    hits: dict[str, set[int]] = {}
    tracers = {}  # one local tracer per file: made per call, it costs a third more time

    def tracer_for(path):
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        if path not in tracers:
            tracers[path] = tracer_for(path)
        return tracers[path]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def unrun(source: str, ran: set[int]) -> list[tuple[int, int]]:
    """The (first, last) line spans, ascending, of the statements of source
    none of whose lines ran; a compound statement shows only its header.
    Docstrings, like any bare constant, compile to no code and are skipped."""
    ran = sorted(ran)
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        i = bisect.bisect_left(ran, first)
        if i < len(ran) and ran[i] <= node.end_lineno:
            continue
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        out.append((first, last))
    return sorted(out)


def _exercise(root: Path) -> None:
    """Import the package of root and run what the checks and the
    benchmark's workloads run."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from gl3voronoi import cli
    from workloads import WORKLOADS

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "all", "--fault-injection"])
    for workload in WORKLOADS.values():
        for overrides in (workload.overrides, workload.tiny):
            config = replace(cli.SuiteConfig(), **overrides)
            cli.run_suite(config, list(workload.checks) if workload.checks else None)


def _ranges(spans: list[tuple[int, int]]) -> str:
    """Ascending spans as line ranges, adjacent spans joined: "3, 7-9"."""
    merged: list[list[int]] = []
    for first, last in spans:
        if merged and first <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], last)
        else:
            merged.append([first, last])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in merged)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = root / "src" / "gl3voronoi"
    sys.dont_write_bytecode = True
    hits = collect(lambda: _exercise(root), str(package))
    total = 0
    for path in sorted(package.glob("*.py")):
        spans = unrun(path.read_text(), hits.get(str(path), set()))
        total += len(spans)
        print(f"{path.name}: {len(spans)} unrun" + (f": {_ranges(spans)}" if spans else ""))
    print(f"{total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
