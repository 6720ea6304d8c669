"""Record the stdout digest of every job the workloads can generate.

    python3 bench/record.py

Runs each job of `workloads.variants` at both sizes once, untraced, and
writes bench/digests.json.  A job that exits non-zero, or whose output
differs from its independent reference, stops the recording.  Run it only
on a commit whose output is the one to keep: byte-identical CLI output is
the rule, so the table should not need recording again.
"""

from __future__ import annotations

import json
import sys

import reference
import run
import workloads


def main() -> int:
    env = run.child_env()
    digests = {}
    for size in (workloads.FULL, workloads.SMOKE):
        for name in workloads.NAMES:
            for job in workloads.variants(name, size):
                result = run.launch(job.argv, False, env)
                if result.rc != 0 or result.header is None:
                    sys.stderr.write(f"rc={result.rc} for {job.argv}\n{result.stderr}\n")
                    return 1
                if job.ref is not None and reference.expected(job.ref) != result.digest():
                    sys.stderr.write(f"output differs from the reference for {job.argv}\n")
                    return 1
                digests[json.dumps(list(job.argv))] = list(result.digest())
                print(f"{result.wall_s:7.3f} s  {' '.join(job.argv)[:100]}")
    with open(run.BENCH / "digests.json", "w", encoding="utf-8") as handle:
        json.dump({"python": sys.version.split()[0], "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} digests recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
