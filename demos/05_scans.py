"""Brute-force scans: checking whole groups the slow, honest way.

The certificate engine proves statements for infinitely many primes at
once, but small groups can simply be enumerated.  scan_group walks every
size-k subset of Z_n \\ {0} (or a random sample for big n) and runs the
exhaustive sequencing search on each.  Unit multiples of a subset are
sequenceable together, so an exhaustive scan searches only the canonical
representative of each unit orbit.

Run:  python demos/05_scans.py
"""

import math

from nullseq.oracle import ROTATIONAL_ONLY, scan_group


def main():
    print("exhaustive: every subset size in Z_12")
    for k in range(1, 12):
        r = scan_group(12, k)
        verdict = "all sequenceable" if r.all_sequenceable else "FAILURES"
        print(f"  k={k:2d}: {r.scanned:4d} orbit representatives -> {verdict}")
    print()

    print("one search per unit orbit")
    r = scan_group(12, 5)
    print(f"  k=5: {r.scanned} orbit representatives stand for "
          f"{math.comb(11, 5)} subsets\n")

    print("rotational only: subsets summing to zero")
    r = scan_group(11, 4, ROTATIONAL_ONLY)
    print(f"  Z_11, k=4: {r.scanned} zero-sum representatives, "
          f"all close their walk at 0\n")

    print("sampling mode for larger groups (seeded, reproducible)")
    s = scan_group(40, 10, count=50, seed=7)
    print(f"  Z_40, k=10: {s.sequenceable}/{s.scanned} sampled subsets "
          f"sequenceable (seed {s.seed})")


if __name__ == "__main__":
    main()
