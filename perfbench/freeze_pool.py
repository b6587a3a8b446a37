"""Regenerate ``oracle_pool.json``, the frozen input pool of ``oracle-crosscheck``.

Run from the repository root::

    python3 perfbench/freeze_pool.py

It proves every case with k <= 6 and t in {2, 3}, keeps each certificate's
(t, lam, a, exceptional primes), and lists for each one the primes p < 40 at
which ``verify`` is admissible and checks between 100 and 5000 subsets.
Each job carries its exhaustive subset count and its measured cost in
milliseconds (the fastest of several runs); the benchmark uses the cost only to draw job lists of equal
total work for every seed.

The pool is data of the benchmark, not of the program: it was frozen when the
benchmark was defined, so later changes to ``prove`` leave the oracle's work
unchanged.  Rewriting it changes the workload and needs a new baseline.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nullseq import cli  # noqa: E402
from nullseq.oracle import verify_nonvanishing_conclusion  # noqa: E402
from nullseq.quotient import QuotientSequencing  # noqa: E402
from workloads import subset_count  # noqa: E402

POOL = Path(__file__).resolve().parent / "oracle_pool.json"
MAX_K = 6
TS = (2, 3)
MAX_P = 40
MIN_SUBSETS, MAX_SUBSETS = 100, 5000
# The cost is the fastest of several runs: on a shared host, slower runs
# measure the neighbours as much as the job.
REPEATS = 7


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _certificates():
    certs = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "case.jsonl")
        for k in range(1, MAX_K + 1):
            for t in TS:
                cli.main(["prove", "--k", str(k), "--t", str(t), "--output", out])
                with open(out, encoding="utf-8") as fh:
                    for line in fh:
                        rec = json.loads(line)
                        if rec["kind"] == "certificate":
                            certs.append(
                                {
                                    "k": rec["k"],
                                    "t": rec["t"],
                                    "lam": rec["lam"],
                                    "a": rec["a"],
                                    "exceptional": rec["exceptional"],
                                }
                            )
    return certs


def main() -> int:
    jobs = []
    for cert in _certificates():
        k, t = cert["k"], cert["t"]
        lam = tuple(int(x) for x in cert["lam"].split(","))
        a = tuple(int(x) for x in cert["a"].split(","))
        exceptional = {int(x) for x in cert["exceptional"].split(",") if x}
        mult = QuotientSequencing(a, t).max_multiplicity
        for p in _primes_below(MAX_P):
            if p <= k or math.gcd(p, t) != 1 or p in exceptional or mult > p:
                continue
            if lam[0] > p - 1 or any(c > p for c in lam[1:]):
                continue
            subsets = subset_count(p, t, lam)
            if not MIN_SUBSETS <= subsets <= MAX_SUBSETS:
                continue
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                report = verify_nonvanishing_conclusion(p, t, lam, a)
                times.append(time.perf_counter() - start)
            if not report.ok or report.subsets_checked != subsets:
                raise SystemExit(f"verify failed for p={p} {cert}")
            jobs.append(
                dict(cert, p=p, subsets=subsets,
                     est_ms=round(1000 * min(times), 2))
            )
    with open(POOL, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(jobs)} jobs written to {POOL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
