"""Line reach of the tier-1 suite over src/polyrec, stdlib only.

    PYTHONPATH=src python tests/line_reach.py

Installs a line tracer (sys.settrace and threading.settrace) before polyrec
is first imported, runs the suite in this process and lists, as
`path:line: text`, every executable line of src/polyrec/*.py that did not
run and that ALLOWED does not name.  The executable lines are those the
compiler gives bytecode to: co_lines() over the module's code object and
every code object nested in it.

An ALLOWED entry names one line by module, enclosing function and stripped
text, so it survives edits elsewhere in the file, and must say why no test
reaches the line.  Two entries with the same key cover two such lines.  An
entry that matches no unreached line is stale, and fails the run as well.

Hypothesis runs with a fixed seed, no example database and no deadline, so
a tree's reach is the same on every run and the tracer's slowdown (about
2.5x) trips no timing check.  Lines run only in subprocesses do not count.

Exit status: pytest's, if it is not 0; else 1 when a line is unreached or
an entry stale; else 0.
"""

import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyrec"

# (module, enclosing function, stripped line text, why no test reaches it)
ALLOWED = [
    (
        "asymptotics",
        "solve_saddle",
        "break  # rho stays > 0: saddle_report takes its log",
        "Newton's `rho - step <= 0` guard.  Newton starts where the bisection "
        "stopped: on an exact root, where the step is 0, or one float from a "
        "sign change, where a negative residual moves rho up and a positive "
        "one is at most the residual's rise over one float.  A step as long "
        "as rho needs rounding noise above rho * slope there, and no input "
        "found gives that.  It stays: saddle_report takes log(rho).",
    ),
    (
        "cli",
        "<module>",
        "sys.exit(main())",
        "`python -m polyrec.cli` runs it in a fresh interpreter, which no "
        "in-process tracer sees; test_cli.py's run_module tests run it that "
        "way and check its exit code and bytes.",
    ),
]


def executable_lines(path: Path, source: str) -> dict[int, str]:
    """{line: qualified name of the innermost code object holding it}."""
    lines = {}
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        name = getattr(code, "co_qualname", code.co_name)
        # None and 0 mark instructions of no source line, such as a module's RESUME
        lines.update((line, name) for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def install(paths: list[Path]) -> dict[str, set[int]]:
    """Trace the lines run in `paths` from now on; {real path: lines run}."""
    hits = {os.path.realpath(p): set() for p in paths}

    def lines_into(seen):
        def trace_lines(frame, event, arg):
            seen.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    by_path = {path: lines_into(seen) for path, seen in hits.items()}
    by_name = {}

    # a call's own line (def, class, lambda, comprehension, resumed yield)
    # has already run in its caller's frame, so only line events count
    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = by_path.get(os.path.realpath(name))
        return by_name[name]

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    return hits


def report(sources: dict[Path, str], hits: dict[str, set[int]]) -> int:
    """Print unreached lines and stale entries; 1 if there are any."""
    allowed = Counter((module, function, text) for module, function, text, _ in ALLOWED)
    unreached = []
    for path, source in sources.items():
        texts = source.splitlines()
        seen = hits[os.path.realpath(path)]
        for line, function in sorted(executable_lines(path, source).items()):
            if line in seen:
                continue
            text = texts[line - 1].strip()
            key = (path.stem, function, text)
            if allowed[key]:
                allowed[key] -= 1
                print(f"allowed: {path.relative_to(ROOT)}:{line}: {text}")
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    stale = [key for key, count in allowed.items() for _ in range(count)]
    for entry in unreached:
        print(entry)
    for module, function, text in stale:
        print(f"stale allowlist entry: {module}.{function}: {text!r} matches no unreached line")
    print(f"line reach: {len(unreached)} unreached, {len(stale)} stale")
    return 1 if unreached or stale else 0


class HypothesisProfile:
    """Loads the run's profile once pytest has imported hypothesis itself."""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("line_reach", deadline=None, database=None)
        settings.load_profile("line_reach")


def main() -> int:
    if "polyrec" in sys.modules:
        raise SystemExit("polyrec was imported before the tracer was installed")
    import pytest

    # read before the run, so the lines reported are the lines traced
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    hits = install(list(sources))
    try:
        status = pytest.main([
            "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--hypothesis-seed=0", str(ROOT / "tests"),
        ], plugins=[HypothesisProfile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status) or report(sources, hits)


if __name__ == "__main__":
    sys.exit(main())
