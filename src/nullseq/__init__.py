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
* :mod:`nullseq.engine` — sparse product expansion with divisor pruning,
  target thresholds and checkpoints;
* :mod:`nullseq.certify` — coefficient certificates, exceptional primes,
  and the per-(k, t) case runner;
* :mod:`nullseq.oracle` — independent brute-force cross-checks;
* :mod:`nullseq.applicability` — which group orders the certified range
  covers;
* :mod:`nullseq.reports` / :mod:`nullseq.cli` — serialized records and
  the command-line frontend;
* :mod:`nullseq.catalog` — frozen known-good coefficient fixtures.
"""

from .applicability import ApplicabilityResult, applicability
from .certify import (
    CaseConfig,
    CaseReport,
    Certificate,
    CertificateEntry,
    Factorization,
    assemble_case,
    certify_type,
    exceptional_primes,
    factorize,
    transfer_certificate,
)
from .engine import (
    EngineAbort,
    EngineCheckpoint,
    OpCapExceeded,
    SparsePolynomial,
    TermCapExceeded,
    load_checkpoint,
    multiply_factors,
    naive_expand,
    save_checkpoint,
)
from .factors import (
    FULL,
    REDUCED,
    FactorList,
    InfeasibleFixing,
    apply_fixes,
    bounding_monomial,
    build_p,
    build_q,
    choose_fixes,
)
from .groups import (
    LINEAR,
    ROTATIONAL,
    Cyclic,
    GroupConfig,
    classify_sequencing,
    enumerate_types,
    type_of,
)
from .oracle import (
    ScanReport,
    VerificationReport,
    find_sequencing,
    scan_group,
    verify_nonvanishing_conclusion,
)
from .quotient import (
    QuotientSequencing,
    search_quotient,
    validate_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityResult",
    "CaseConfig",
    "CaseReport",
    "Certificate",
    "CertificateEntry",
    "Cyclic",
    "EngineAbort",
    "EngineCheckpoint",
    "FULL",
    "FactorList",
    "Factorization",
    "GroupConfig",
    "InfeasibleFixing",
    "LINEAR",
    "OpCapExceeded",
    "QuotientSequencing",
    "REDUCED",
    "ROTATIONAL",
    "ScanReport",
    "SparsePolynomial",
    "TermCapExceeded",
    "VerificationReport",
    "applicability",
    "apply_fixes",
    "assemble_case",
    "bounding_monomial",
    "build_p",
    "build_q",
    "certify_type",
    "choose_fixes",
    "classify_sequencing",
    "enumerate_types",
    "exceptional_primes",
    "factorize",
    "find_sequencing",
    "load_checkpoint",
    "multiply_factors",
    "naive_expand",
    "save_checkpoint",
    "scan_group",
    "search_quotient",
    "transfer_certificate",
    "type_of",
    "validate_quotient",
    "verify_nonvanishing_conclusion",
]
