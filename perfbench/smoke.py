"""Schema smoke check for the benchmark, on a reduced input.

    python3 perfbench/smoke.py

Checks ``BENCHMARK.json`` against the benchmark's contract, runs ``run.py``
in both modes on a few small jobs (a small ``prove`` case, a ``scan`` and a
``verify``) and checks the shape of the result line, then checks that
``run.py`` refuses to run without the package sources.  Takes a few
seconds; it is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.NAMES), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    seen = set(names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(metric["name"]) and metric["name"] not in seen, metric
        assert UNIT_RE.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        seen.add(metric["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def reduced(name: str, seed: int) -> workloads.Workload:
    job = workloads.draw_verify_jobs(seed)[0]
    lam = tuple(int(x) for x in job["lam"].split(","))
    return workloads.Workload(name, [
        workloads.Job(["prove", "--k", "4", "--t", "3"], workloads.prove_check(4, 3)),
        workloads.Job(["scan", "--n", "11", "--k", "5"], workloads.scan_check(11, 5)),
        workloads.Job(
            ["verify", "--p", str(job["p"]), "--t", str(job["t"]), "--lambda", job["lam"],
             "--a", job["a"]],
            workloads.verify_check(job["p"], job["t"], lam, job["subsets"]),
        ),
    ])


def check_result(spec: dict, trace: int) -> None:
    stdout = io.StringIO()
    original = workloads.build
    workloads.build = reduced
    try:
        with contextlib.redirect_stdout(stdout):
            status = run.main(["--workload", "prove-sweep", "--seed", "3", "--seconds", "0.1",
                               "--trace", str(trace)])
    finally:
        workloads.build = original
    assert status == 0, status
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    if trace:
        for name in ("engine.calls", "quotient.calls", "oracle.scan_subsets",
                     "oracle.verify_subsets", "factors.calls"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0, metric


def check_refuses_without_sources() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table1-light", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    for trace in (0, 1):
        check_result(spec, trace)
    check_refuses_without_sources()
    print("benchmark smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
