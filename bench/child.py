"""Run one polyrec invocation in this fresh interpreter and report on it.

    python3 bench/child.py SPAWNED TRACE ARG...

SPAWNED is the parent's time.monotonic() taken just before it started this
process, TRACE is 0 or 1, and ARG... is a `polyrec` command line, run once
through polyrec.cli.main, or `@verify_family NAME PARAMS_JSON N`.  The
interpreter keeps its defaults (the int-to-str digit limit included).

The child is ready once polyrec.cli is imported, the arguments are parsed
and the spec or family is resolved: for a command line, when the program's
own cli._resolve first returns (or raises), for @verify_family when
families.catalog returns; `setup_s` in the header is ready - SPAWNED.  The
program's stdout goes to a sink that hashes and counts bytes.
When the invocation ends, one JSON header line, then with TRACE 1 one JSON
line per span, go to the real stdout, and the process exits with the
invocation's exit code.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback


class Sink(io.TextIOBase):
    """A text stdout that keeps only the sha256 and length of what it gets."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha256.update(data)
        self.size += len(data)
        return len(text)


class Ready:
    """The time at which the invocation became ready."""

    def __init__(self):
        self.at = None

    def mark(self) -> None:
        if self.at is None:
            self.at = time.monotonic()

    def around(self, fn):
        """fn, marking ready when it first returns or raises."""

        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return marked


def _entry(argv: list[str], ready: Ready):
    """The invocation to run; it marks `ready` as it goes."""
    import polyrec.cli as cli

    if argv[0] != "@verify_family":
        cli._resolve = ready.around(cli._resolve)
        return lambda: cli.main(argv)
    from polyrec import families, oracle

    def run() -> int:
        descriptor = families.catalog(argv[1], **json.loads(argv[2]))
        ready.mark()
        report = oracle.verify_family(descriptor, int(argv[3]))
        sys.stdout.write(f"{report}\n")
        return 0 if report.ok and not report.skipped else 1

    return run


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    sys.stderr.write(f"{exc.code}\n")
    return 1


def main() -> int:
    spawned, traced, argv = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    ready = Ready()
    tracer = None
    if traced:
        import polyrec.cli  # noqa: F401  (every module the tracer wraps)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = _entry(argv, ready)
    sink = Sink()
    sys.stdout = sink
    started = time.monotonic()
    try:
        rc = run()
    except SystemExit as exc:
        rc = _exit_code(exc)
    except BaseException:
        traceback.print_exc()
        rc = 1
    finally:
        sys.stdout = sys.__stdout__
    header = {
        "rc": rc,
        "setup_s": None if ready.at is None else ready.at - spawned,
        "start_s": started - spawned,
        "sha256": sink.sha256.hexdigest(),
        "bytes": sink.size,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }
    if tracer is not None:
        header.update(tracer.counters())
    sys.stdout.write(json.dumps(header) + "\n")
    if tracer is not None:
        tracer.dump(sys.stdout)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
