"""Run one nullseq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  The
workloads are described in ``workloads.py`` and in ``BENCHMARK.json``.

Every job is a ``nullseq.cli.main(argv)`` call in this process, with the
default single worker, writing its JSONL records to a scratch file under
``.bench_out/``.  A pass runs every job of the workload once; passes repeat
until ``--seconds`` of pass time have been spent (at least one pass).  The
gate then checks every pass's output, outside the timed section.

``--trace 0`` reports the end-to-end metrics: the workload's wall time with
each job at its median over the passes, the peak RSS of the run's
processes, the median set-up time of several fresh processes, and the share
of operations resolved.  Both times are divided by the host's slowdown
during the run, which ``SpeedProbe`` measures.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``layers.py``, unscaled; the traced call counts must equal those read from
the untraced output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, the passes, their raw wall times and the slowdown.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The gate and the tracer count the same things; these pairs must agree.
COUNTS = {
    "engine.calls": "engine_calls",
    "quotient.calls": "quotient_calls",
    "certify.attempts": "cert_attempts",
    "oracle.scan_subsets": "scan_subsets",
    "oracle.verify_subsets": "verify_subsets",
}


class SpeedProbe:
    """Samples the host's speed while jobs run, with a fixed dict-heavy kernel.

    On a shared host, neighbours slow this process by up to twice for
    seconds to minutes at a time, far more than the run-to-run change a
    benchmark must resolve.  The kernel does the engine's kind of work
    (integer-keyed dict updates over a working set of a few MB) but is
    written here, so no change to the program moves it.  A timer signal
    runs it every ``EVERY_S`` while a pass runs, so long jobs are sampled
    along their whole length; its time is taken out of the job's time.
    The median kernel time over ``QUIET_S`` is the run's slowdown.
    """

    EVERY_S = 0.25
    QUIET_S = 0.0055  # its fastest time seen on a 2-core 2.1 GHz Xeon host
    KEYS = [(i * 2654435761) & 0xFFFFFF for i in range(30000)]

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the signal handler

    def kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            terms: dict[int, int] = {}
            for key in self.KEYS:
                terms[key] = terms.get(key, 0) + 1
            shifted: dict[int, int] = {}
            for key, coef in terms.items():
                shifted[key + 1] = shifted.get(key + 1, 0) + coef
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self) -> float:
        if not self.samples:
            self.samples.append(self.kernel())
        return statistics.median(self.samples) / self.QUIET_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh processes: scaled as ``wall_s`` is, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        seconds, kernel = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * SpeedProbe.QUIET_S / kernel)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(cli, wl, outdir: Path, tag: str, probe: SpeedProbe | None = None):
    """Run every job once; return ([wall s per job], cpu s, [(exit status, path)]).

    With a probe, the pass runs under its timer and each job's wall time
    leaves out the time the probe took during the job.
    """
    outputs, job_walls = [], []
    cpu0 = time.process_time()
    with probe if probe is not None else contextlib.nullcontext():
        for i, job in enumerate(wl.jobs):
            path = outdir / f"{tag}-{i}.jsonl"
            spent = probe.spent if probe is not None else 0.0
            start = time.perf_counter()
            try:
                rc = cli.main(job.argv + ["--output", str(path)])
            except Exception:  # a crash is a failed job, reported by the gate
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - start
            if probe is not None:
                wall -= probe.spent - spent
            job_walls.append(wall)
            outputs.append((rc, path))
    return job_walls, time.process_time() - cpu0, outputs


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def normalized(records) -> str:
    """The records without their timings, for comparing passes."""
    return json.dumps(
        [{k: v for k, v in rec.items() if k != "elapsed"} for rec in records], sort_keys=True
    )


class Gate:
    """Checks pass outputs; identical outputs of one job are checked once."""

    def __init__(self, workloads, wl):
        self.workloads = workloads
        self.wl = wl
        self.cache: dict[tuple[int, object, str], object] = {}
        self.seen: dict[int, set[str]] = {}

    def check_pass(self, outputs):
        total = self.workloads.Check()
        for i, (job, (rc, path)) in enumerate(zip(self.wl.jobs, outputs)):
            records = read_records(path)
            key = normalized(records)
            self.seen.setdefault(i, set()).add(key)
            if (i, rc, key) not in self.cache:
                result = job.check(rc, records)
                if rc not in (0, 1):
                    result.failed = result.attempted
                    result.errors.append(f"{' '.join(job.argv)}: exit status {rc}")
                self.cache[i, rc, key] = result
            total.add(self.cache[i, rc, key])
        return total

    def nondeterministic(self) -> list[str]:
        return [
            f"{' '.join(self.wl.jobs[i].argv)}: output differs between passes"
            for i, keys in self.seen.items()
            if len(keys) > 1
        ]


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    import sympy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "rev": git_rev(),
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its finished children."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def job_median_wall(passes) -> float:
    """Workload wall time with each job at its median over the passes.

    Neighbouring tenants on a shared host slow single jobs by up to half, for
    milliseconds to seconds at a time; taking the median job by job drops
    the disturbed runs of each job, where a whole pass keeps them.
    """
    return sum(statistics.median(job) for job in zip(*passes))


def _median(values):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(cli, workloads, wl, seconds, outdir, setup_s):
    gate = Gate(workloads, wl)
    probe = SpeedProbe()
    job_walls, passes = [], []
    while not job_walls or sum(map(sum, job_walls)) < seconds:
        walls, _, outputs = run_pass(cli, wl, outdir, f"p{len(job_walls)}", probe)
        job_walls.append(walls)
        passes.append(outputs)
    rss = peak_rss_mb()
    check = workloads.Check()
    for outputs in passes:
        check.add(gate.check_pass(outputs))
    check.errors.extend(gate.nondeterministic())
    resolved = check.attempted - check.failed - check.unresolved
    metrics = {
        "wall_s": job_median_wall(job_walls) / probe.slowdown(),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
        "resolved_share": resolved / check.attempted if check.attempted else 0.0,
    }
    return check, metrics, [sum(w) for w in job_walls], probe.slowdown()


def measure_traced(cli, workloads, layers, wl, seconds, outdir):
    gate = Gate(workloads, wl)
    check = workloads.Check()
    plain_walls, plain_cpus, traced_walls, samples = [], [], [], []
    while not traced_walls or sum(map(sum, plain_walls + traced_walls)) < seconds:
        n = len(traced_walls)
        walls, cpu, plain = run_pass(cli, wl, outdir, f"u{n}")
        plain_walls.append(walls)
        plain_cpus.append(cpu)
        tracer = layers.Tracer()
        tracer.install()
        try:
            walls, _, traced = run_pass(cli, wl, outdir, f"t{n}")
        finally:
            tracer.uninstall()
        traced_walls.append(walls)
        sample = tracer.metrics()
        sample["reports.bytes"] = sum(path.stat().st_size for _, path in traced if path.exists())
        samples.append(sample)

        plain_check = gate.check_pass(plain)
        check.add(plain_check)
        check.add(gate.check_pass(traced))
        for metric, field in COUNTS.items():
            if sample[metric] != getattr(plain_check, field):
                check.errors.append(
                    f"traced {metric} = {sample[metric]}, untraced output gives "
                    f"{getattr(plain_check, field)}"
                )
    check.errors.extend(gate.nondeterministic())
    metrics = {name: _median([s[name] for s in samples]) for name in samples[0]}
    metrics["run.cpu_s"] = statistics.median(plain_cpus)
    metrics["run.tracing_overhead_s"] = job_median_wall(traced_walls) - job_median_wall(plain_walls)
    return check, metrics, [sum(w) for w in plain_walls + traced_walls], None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nullseq" / "__init__.py").is_file():
        print(f"run.py: no nullseq package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    setup_s, setup_raw_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from nullseq import cli  # noqa: E402
    import layers  # noqa: E402
    import workloads  # noqa: E402

    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            check, metrics, walls, slowdown = measure_traced(
                cli, workloads, layers, wl, args.seconds, outdir
            )
        else:
            check, metrics, walls, slowdown = measure(
                cli, workloads, wl, args.seconds, outdir, setup_s
            )
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    for error in list(dict.fromkeys(check.errors))[:20]:
        print(f"gate: {error}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_facts(), "passes": len(walls), "pass_wall_s": walls,
        "host_slowdown": slowdown, "setup_raw_s": setup_raw_s,
        "unresolved": check.unresolved,
    }))
    print(json.dumps({
        "correct": not check.errors,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
