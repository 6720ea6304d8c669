"""The polyrec benchmark: whole CLI runs, and each module when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it needs only the standard library and
the sources under src/.  Every invocation runs in a fresh interpreter
(bench/child.py), one at a time, the way a shell user runs `polyrec`.  A
pass runs all jobs of the workload once (workloads.py); before each launch
the parent times the start and exit of a bare interpreter (`python3 -c
pass`), the gauge of how fast the machine is right then.  Passes repeat
until S seconds have gone.  Before the passes, the workload's contract
probes run once, untimed.

Every invocation's stdout digest is compared with the independent reference
of reference.py or, failing that, with the digest recorded in digests.json.

On a shared 2-core virtual machine other tenants changed the speed of
everything by up to 2x from one minute to the next, which spread times in
seconds by 0.1-0.6 (IQR/median) over ten runs.  Both timings are therefore
divided by the bare start timed just before each launch, which cancels most
of it.
With --trace 0 the last stdout line reports the end-to-end metrics:
    wall_rel      the pass wall time in bare starts: for each job, the
                  median over passes of its spawn-to-exit time divided by
                  the bare start just before it, summed over the jobs
    setup_s       median over launches of spawn-to-ready (import
                  polyrec.cli, argument parsing, spec resolution) divided
                  by the bare start before it, in seconds of a machine on
                  which a bare start takes REFERENCE_START_S
    peak_rss_mib  median over passes of the largest child ru_maxrss
With --trace 1 untraced and traced passes alternate and the last line
reports the per-module metrics of the traced passes (medians over passes,
each summed over the pass's children; see PER_LAYER_UNITS), wall_s,
setup_wall_s and bare_start_s (the untraced medians in plain seconds),
trace.overhead_ratio (wall_rel of the traced passes over wall_rel of the
untraced ones, minus 1), trace.unattributed_s (child wall time after the
invocation started that no top-level span covers) and failed_ratio, which
counts the probes.

--smoke runs every workload once at tiny sizes, both ways, and checks the
metric names and units against BENCHMARK.json and that every invocation was
gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
# The median bare interpreter start of the machine the bench was designed on
# (2-core virtual machine, Python 3.11.7); setup_s is scaled to it.
REFERENCE_START_S = 0.065

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    **{
        f"{name}.{stat}": unit
        for name in tracer.SPAN_NAMES
        for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    },
    "recurrence.max_coeff_bits": "bits",
    "recurrence.rows_useful_ratio": "ratio",
    "algebra.coeff_mults": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "wall_s": "s",
    "setup_wall_s": "s",
    "bare_start_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "failed_ratio": "ratio",
}


@dataclass
class Launch:
    argv: tuple
    rc: Optional[int]
    spawned: float
    ended: float
    header: Optional[dict]
    spans: list
    stderr: str
    bare_s: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.spawned

    def digest(self) -> Optional[tuple]:
        return None if self.header is None else (self.header["sha256"], self.header["bytes"])


def child_env() -> dict:
    """The caller's environment without any PYTHON* setting, so that the
    children run with interpreter defaults (the int-to-str digit limit,
    bytecode caching as for an installed package), and with polyrec's
    sources on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def bare_start(env: dict) -> float:
    """Wall time to start and exit an interpreter that does nothing."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
    return time.monotonic() - start


def launch(argv: tuple, traced: bool, env: dict) -> Launch:
    """Run one invocation in a child, after timing a bare start next to it."""
    bare_s = bare_start(env)
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), repr(spawned), "1" if traced else "0", *argv]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        stderr = (exc.stderr or b"").decode(errors="replace")
        return Launch(argv, None, spawned, time.monotonic(), None, [], stderr + "\n(timed out)", bare_s)
    ended = time.monotonic()
    lines = proc.stdout.splitlines()
    try:
        header = json.loads(lines[0])
        spans = [json.loads(line) for line in lines[1:]]
    except (IndexError, ValueError):
        header, spans = None, []
    stderr = proc.stderr.decode(errors="replace")
    return Launch(argv, proc.returncode, spawned, ended, header, spans, stderr, bare_s)


@dataclass
class Pass:
    traced: bool
    launches: list

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.launches)


def wall_rel(passes: list) -> float:
    """The sum over the jobs of the median over passes of the job's wall
    time over the bare start timed just before it."""
    jobs = range(len(passes[0].launches))
    return sum(_median(p.launches[j].wall_s / p.launches[j].bare_s for p in passes) for j in jobs)


def ready_launches(passes: list) -> list:
    return [c for p in passes for c in p.launches if c.header and c.header["setup_s"] is not None]


@dataclass
class Measurement:
    result: dict
    gated: int
    notes: list = field(default_factory=list)


def load_digests() -> dict:
    with open(BENCH / "digests.json", encoding="utf-8") as handle:
        recorded = json.load(handle)["digests"]
    return {tuple(json.loads(key)): tuple(value) for key, value in recorded.items()}


def expected_digests(jobs, recorded: dict) -> dict:
    """argv -> (sha256, bytes) the job must print, or None if nothing is
    known about it.  A reference that disagrees with the recorded digest
    is a fault of the bench and stops the run."""
    out = {}
    for job in jobs:
        want = recorded.get(job.argv)
        if job.ref is not None:
            computed = reference.expected(job.ref)
            if want is not None and want != computed:
                raise reference.ReferenceMismatch(f"reference and recorded digest differ for {job.argv}")
            want = computed
        out[job.argv] = want
    return out


def passes_gate(run: Launch, want: Optional[tuple]) -> bool:
    return want is not None and run.rc == 0 and run.digest() == want


def probe_passes(run: Launch, job) -> bool:
    """A probe succeeds with the reference output, or fails the documented
    way: exit code >= 2 and one JSON error line on stderr."""
    if run.rc == 0:
        return job.ref is not None and run.digest() == reference.expected(job.ref)
    lines = run.stderr.strip().splitlines()
    if run.rc is None or run.rc < 2 or len(lines) != 1:
        return False
    try:
        payload = json.loads(lines[0])
    except ValueError:
        return False
    return isinstance(payload, dict) and "error" in payload


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(traced: list, untraced: list, failed_ratio: float) -> dict:
    samples: dict = {name: [] for name in PER_LAYER_UNITS}
    for run in traced:
        totals = {name: [0, 0.0, 0.0] for name in tracer.SPAN_NAMES}
        rows = mults = bits = out_bytes = 0
        unattributed = 0.0
        for child in run.launches:
            stats, top = tracer.aggregate(child.spans)
            for name, (calls, busy, own) in stats.items():
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
            head = child.header or {}
            rows += head.get("rows_distinct", 0)
            mults += head.get("coeff_mults", 0)
            bits = max(bits, head.get("max_coeff_bits", 0))
            out_bytes += head.get("bytes", 0)
            unattributed += child.wall_s - head.get("start_s", 0.0) - top
        value = {}
        for name in tracer.SPAN_NAMES:
            calls, busy, own = totals[name]
            value.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": own})
        advances = totals["recurrence.advance"][0]
        value["recurrence.max_coeff_bits"] = bits
        value["recurrence.rows_useful_ratio"] = rows / advances if advances else 1.0
        value["algebra.coeff_mults"] = mults
        value["cli.self_s"] = totals["cli.main"][2]
        value["cli.stdout_bytes"] = out_bytes
        value["trace.unattributed_s"] = unattributed
        for name, v in value.items():
            samples[name].append(v)
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["wall_s"] = _median(p.wall_s for p in untraced)
    metrics["setup_wall_s"] = _median(c.header["setup_s"] for c in ready_launches(untraced))
    metrics["bare_start_s"] = _median(c.bare_s for p in untraced for c in p.launches)
    metrics["trace.overhead_ratio"] = wall_rel(traced) / wall_rel(untraced) - 1
    metrics["failed_ratio"] = failed_ratio
    return metrics


def end_to_end(untraced: list) -> dict:
    setup_rel = _median(c.header["setup_s"] / c.bare_s for c in ready_launches(untraced))
    return {
        "wall_rel": wall_rel(untraced),
        "setup_s": setup_rel * REFERENCE_START_S,
        "peak_rss_mib": _median(
            max((c.header["rss_kib"] for c in p.launches if c.header), default=0) / 1024
            for p in untraced
        ),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size) -> Measurement:
    env = child_env()
    jobs = workloads.jobs(name, seed, size)
    want = expected_digests(jobs, load_digests())
    notes = []

    probes = workloads.PROBES.get(name, ())
    probe_failures = 0
    for job in probes:
        run = launch(job.argv, False, env)
        ok = probe_passes(run, job)
        probe_failures += not ok
        last = run.stderr.strip().splitlines()[-1:] or [""]
        notes.append(f"probe {'ok' if ok else 'FAILED'}: rc={run.rc} {last[0][:160]!r} <- {' '.join(job.argv)}")

    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(Pass(traced, [launch(job.argv, traced, env) for job in jobs]))
        kinds = {p.traced for p in passes}
        if time.monotonic() - start >= seconds and (not trace or len(kinds) == 2):
            break

    attempted = failed = gated = 0
    for p in passes:
        for run in p.launches:
            attempted += 1
            gated += want[run.argv] is not None
            if not passes_gate(run, want[run.argv]):
                failed += 1
                notes.append(f"FAILED rc={run.rc} {run.stderr.strip()[-300:]!r} <- {' '.join(run.argv)[:200]}")
        notes.append(
            f"pass {'traced' if p.traced else 'untraced'}: wall {p.wall_s:.4f} s, "
            f"bare start {statistics.median(c.bare_s for c in p.launches):.4f} s, {len(p.launches)} launches"
        )
    missing = {t for p in passes for c in p.launches for t in (c.header or {}).get("missing", ())}
    if missing:
        notes.append(f"trace targets not found: {sorted(missing)}")
    digits = {c.header["int_max_str_digits"] for p in passes for c in p.launches if c.header}
    notes.append(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} child int_max_str_digits={sorted(digits)}")

    untraced = [p for p in passes if not p.traced]
    if trace:
        ratio = (failed + probe_failures) / (attempted + len(probes))
        metrics = per_layer([p for p in passes if p.traced], untraced, ratio)
        units = PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(untraced), END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return Measurement(result, gated, notes)


def smoke() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    ok = True
    for name in workloads.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            m = measure(name, workloads.DEFAULT_SEED, 0, trace, workloads.SMOKE)
            want = {d["name"]: d["unit"] for d in declared[key]}
            got = {k: v["unit"] for k, v in m.result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json {key}: {sorted(set(got) ^ set(want))}")
            if not m.result["correct"] or m.gated != m.result["attempted"]:
                problems.append(f"gate: {m.gated} of {m.result['attempted']} gated, {m.result['failed']} failed")
            ok &= not problems
            print(f"{name} trace={int(trace)}: {'ok' if not problems else '; '.join(problems)}")
            for note in m.notes:
                if "FAILED" in note:
                    print(f"  {note}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polyrec" / "cli.py").is_file():
        sys.stderr.write(f"polyrec sources not found under {ROOT / 'src'}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    for note in m.notes:
        print(f"# {note}")
    print(json.dumps(m.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
