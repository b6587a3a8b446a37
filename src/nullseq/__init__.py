"""nullseq: sequenceability certificates for subsets of Z_p x Z_t.

A subset S of an abelian group is sequenceable when its elements admit an
ordering whose partial sums are distinct (linear when the total is nonzero,
rotational when it is zero).  This package builds integer-coefficient
certificates that settle the question for all subsets of a given size and
pattern across every sufficiently large prime p at once: a factor product
with a nonzero coefficient on a monomial inside its degree bound stays
nonzero modulo every prime that misses the short list of exceptional
divisors, and each such prime yields an ordering.

Layers, bottom up:

* :mod:`nullseq.groups` — group arithmetic, sequencing classification,
  type (pattern) enumeration;
* :mod:`nullseq.quotient` — orderings of the quotient pattern and the
  degree bookkeeping that scores them;
* :mod:`nullseq.factors` — the difference/window factor lists, the
  reduced variant, and zero-fixing;
* :mod:`nullseq.engine` — one target coefficient of a factor product, by
  sparse expansion with divisor pruning, target thresholds and checkpoints;
* :mod:`nullseq.certify` — coefficient certificates, exceptional primes,
  and the per-(k, t) case runner;
* :mod:`nullseq.oracle` — independent brute-force cross-checks;
* :mod:`nullseq.applicability` — which group orders the certified range
  covers;
* :mod:`nullseq.reports` / :mod:`nullseq.cli` — serialized records and
  the command-line frontend;
* :mod:`nullseq.catalog` — frozen known-good coefficient fixtures.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from nullseq.certify import certify_type``.
"""

__version__ = "0.1.0"
