"""Certificates: nonzero integer coefficients that prove sequenceability.

A certificate fixes an arrangement (and possibly some fixed positions) for a
type lam, and records one or more monomials dividing the bounding monomial
whose integer coefficients in the factor product are nonzero.  For a prime p
with p > k, gcd(p, t) = 1 and p not dividing every recorded coefficient, at
least one coefficient stays nonzero mod p, so every subset of that type in
Z_p x Z_t admits a sequencing with that arrangement pattern.

The primes that divide the gcd of all recorded coefficients, are larger than
k and are coprime to t are the exceptional primes: the certificate is silent
for them (smaller primes and divisors of t are outside the usable range
anyway).  An empty exceptional set means the certificate covers every
admissible prime.

certify_type takes the arrangements of a type best first, in the exact
ranking of quotient.search_quotient, each with its greedy fixes and then
with none.  It tries the first RANKED_BLOCK arrangements; past them it walks
on only while every attempt of the type has come back zero, so it ends at
the first nonzero, aborted, skipped or infeasible attempt or when the
ranking runs out.  An abort or a skip means the budget failed, and later
arrangements only cost more; an infeasible arrangement has every later one
infeasible too, as the ranking is by degree.  A type that stops within the
first block makes one search_quotient call; a longer walk reruns it at 4,
16, ... times the block and skips what it has tried.

For each (arrangement, fixes) it computes the coefficients of up to
MAX_CANDIDATES monomials, drawn uniformly from the monomials of the
product's degree dividing the bound (sample_monomials).  The draw is seeded
by the arrangement, the fixes and the variant, so records are reproducible.
Nonzero coefficients are collected until their gcd has no exceptional
prime.

This search policy is fixed, not configured: every certificate is checked
on its own (Certificate.__post_init__, reports.case_from_records), so the
policy decides only which certificate is found, never what it proves.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, replace

from .engine import EngineAbort, multiply_factors, save_checkpoint
from .factors import FULL, REDUCED, InfeasibleFixing, choose_fixes, product
from .groups import canonical_type, enumerate_types, rescale_type, type_orbit
from .primes import factorint, isprime
from .quotient import QuotientSequencing, search_quotient


@dataclass(frozen=True)
class Factorization:
    """sign * product(p^e), the full factorization of a nonzero integer."""

    sign: int
    primes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        ps = [p for p, _ in self.primes]
        if ps != sorted(set(ps)):
            raise ValueError("primes must be distinct and ascending")
        if any(e < 1 for _, e in self.primes):
            raise ValueError("prime exponents must be positive")
        for p in ps:
            if not isprime(p):
                raise ValueError(f"{p} is listed as prime but is not")

    @property
    def value(self) -> int:
        v = self.sign
        for p, e in self.primes:
            v *= p**e
        return v


def factorize(n: int) -> Factorization:
    """The full factorization of the nonzero integer n."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return Factorization(-1 if n < 0 else 1, tuple(sorted(factorint(abs(n)).items())))


def exceptional_primes(coefficients, k: int, t: int) -> tuple[int, ...]:
    """Primes > k, coprime to t, dividing every given (nonzero) coefficient.

    These are exactly the admissible moduli the coefficients cannot speak
    for.  Primes <= k or sharing a factor with t are excluded because no
    admissible modulus is of that kind.
    """
    coeffs = [abs(c) for c in coefficients]
    if not coeffs or any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero and nonempty")
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g == 1:
        return ()
    return tuple(
        q for q in sorted(factorint(g)) if q > k and math.gcd(q, t) == 1
    )


@dataclass(frozen=True)
class CertificateEntry:
    monomial: tuple[int, ...]
    coefficient: int
    factorization: Factorization

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("certificate entries must have nonzero coefficients")
        if self.factorization.value != self.coefficient:
            raise ValueError(
                f"factorization {self.factorization} does not multiply back to "
                f"{self.coefficient}"
            )


@dataclass(frozen=True)
class Certificate:
    """A verified-structure record for one type and arrangement.

    A REDUCED certificate comes from build_q, which drops the windows
    x_{i+1} + x_{i+2}; it holds only for subsets with no two mutually
    inverse elements, and validity_condition says so.
    """

    k: int
    t: int
    lam: tuple[int, ...]
    a: tuple[int, ...]
    fixes: tuple[int, ...]
    variant: str
    degree: int
    bound: tuple[int, ...]
    entries: tuple[CertificateEntry, ...]
    exceptional: tuple[int, ...]

    def __post_init__(self):
        qs, fl, bound = product(self.lam, self.a, self.fixes, self.variant)
        if (self.k, self.t) != (qs.k, qs.t):
            raise ValueError(
                f"k = {self.k}, t = {self.t} but the arrangement {self.a} of "
                f"type {self.lam} has k = {qs.k}, t = {qs.t}"
            )
        if fl.degree != self.degree:
            raise ValueError(
                f"declared degree {self.degree} but the factor list has "
                f"degree {fl.degree}"
            )
        if bound != tuple(self.bound):
            raise ValueError("declared bound does not match the arrangement")
        if self.degree > sum(self.bound):
            raise ValueError("degree exceeds the bound: certificate unusable")
        if not self.entries:
            raise ValueError("a certificate needs at least one entry")
        for entry in self.entries:
            if len(entry.monomial) != self.k:
                raise ValueError("entry monomial has wrong arity")
            if sum(entry.monomial) != self.degree:
                raise ValueError("entry monomial degree must equal the product degree")
            if any(m > b for m, b in zip(entry.monomial, self.bound)):
                raise ValueError("entry monomial must divide the bound")
        expect = exceptional_primes(
            [e.coefficient for e in self.entries], self.k, self.t
        )
        if tuple(self.exceptional) != expect:
            raise ValueError(
                f"declared exceptional primes {self.exceptional} but the "
                f"entries give {expect}"
            )

    @property
    def validity_condition(self) -> str:
        """Human-readable statement of when the certificate applies."""
        base = (
            f"all primes p with p > {self.k} (covering the at most "
            f"{self.k + 1}-fold partial-sum residue repeats) and gcd(p, {self.t}) = 1"
        )
        if self.exceptional:
            base += f", excluding p in {{{', '.join(map(str, self.exceptional))}}}"
        if self.variant == REDUCED:
            base += "; only for subsets with no two mutually inverse elements"
        return base

    def is_valid_for(self, p: int) -> bool:
        """Does this certificate prove the conclusion in Z_p x Z_t?"""
        return (
            isprime(p)
            and p > self.k
            and math.gcd(p, self.t) == 1
            and p not in self.exceptional
        )

    def witness_for(self, p: int) -> CertificateEntry:
        if not self.is_valid_for(p):
            raise ValueError(f"certificate does not apply to p={p}")
        for entry in self.entries:
            if entry.coefficient % p != 0:
                return entry
        raise AssertionError("exceptional-prime bookkeeping is inconsistent")


@dataclass(frozen=True)
class AttemptRecord:
    a: tuple[int, ...]
    fixes: tuple[int, ...]
    monomial: tuple[int, ...] | None
    outcome: str  # nonzero | zero | aborted | infeasible | skipped-degree
    coefficient: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.outcome not in ("nonzero", "zero", "aborted", "infeasible", "skipped-degree"):
            raise ValueError(f"unknown attempt outcome {self.outcome!r}")
        # a coefficient is given exactly for zero and nonzero, and tells them apart
        says = None if self.coefficient is None else "nonzero" if self.coefficient else "zero"
        if says != (self.outcome if self.outcome in ("zero", "nonzero") else None):
            raise ValueError(
                f"an attempt with outcome {self.outcome} cannot have coefficient "
                f"{self.coefficient}"
            )


@dataclass(frozen=True)
class TypeResult:
    """One type's certificate, or the reason it has none."""

    lam: tuple[int, ...]
    orbit: tuple[tuple[int, ...], ...]
    certificate: Certificate | None
    reason: str | None
    attempts: tuple[AttemptRecord, ...]
    derived_from: tuple[int, ...] | None = None  # orbit representative reused

    def __post_init__(self):
        if (self.certificate is None) != (self.reason is not None):
            raise ValueError("a type result has a reason exactly when it has no certificate")


@dataclass(frozen=True)
class CaseReport:
    k: int
    t: int
    results: tuple[TypeResult, ...]

    @property
    def complete(self) -> bool:
        return all(r.certificate is not None for r in self.results)

    def certificates(self) -> tuple[Certificate, ...]:
        return tuple(r.certificate for r in self.results if r.certificate)

    @property
    def exceptional(self) -> tuple[int, ...]:
        """The primes some certificate of the case is silent for, sorted:
        a complete case covers every admissible prime outside them."""
        return tuple(sorted({p for c in self.certificates() for p in c.exceptional}))


# Arrangements every type tries, and the default of qs --qs-limit.
RANKED_BLOCK = 30
# Monomials sampled per (arrangement, fixes).
MAX_CANDIDATES = 24


@dataclass(frozen=True)
class CaseConfig:
    op_cap: int | None = None
    max_degree: int = 60
    variant: str = FULL
    checkpoint_dir: str | None = None

    def __post_init__(self):
        # a budget below its least meaningful value would report every type
        # unresolved for a false reason
        for name, least in (("op_cap", 1), ("max_degree", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


def sample_monomials(bound, degree: int, limit: int, seed: str):
    """Up to limit distinct monomials of the given total degree dividing
    bound, drawn uniformly at random from all of them.

    A monomial dividing bound is its deficit vector d (d_i = bound_i - m_i,
    0 <= d_i <= bound_i) summing to sum(bound) - degree.  ways[i][r] counts
    the ways positions i..k-1 give up r units; min(limit, count) distinct
    ranks are drawn with random.Random(seed).sample and each is unranked
    position by position, so every subset of that size is equally likely
    and a box of at most limit monomials comes back whole.  seed is a
    string, which Random hashes with SHA-512: the same seed gives the same
    monomials in every process.  A generator, so a caller that stops early
    unranks nothing more.
    """
    bound = tuple(bound)
    deficit = sum(bound) - degree
    if deficit < 0:
        return
    k = len(bound)
    ways = [[0] * (deficit + 1) for _ in range(k + 1)]
    ways[k][0] = 1
    for i in range(k - 1, -1, -1):
        below = ways[i + 1]
        ways[i] = [
            sum(below[r - d] for d in range(min(bound[i], r) + 1))
            for r in range(deficit + 1)
        ]
    count = ways[0][deficit]
    for rank in random.Random(seed).sample(range(count), min(limit, count)):
        mono, r = [], deficit
        for i in range(k):
            d = 0
            while rank >= ways[i + 1][r - d]:
                rank -= ways[i + 1][r - d]
                d += 1
            mono.append(bound[i] - d)
            r -= d
        yield tuple(mono)


def _checkpoint_path(directory, qs: QuotientSequencing, fl, monomial):
    """One file per computation: the arrangement, the product's fixes and
    variant, and the monomial all go into the name."""
    name = (
        f"ckpt_k{qs.k}_t{qs.t}"
        f"_lam{'-'.join(map(str, qs.type_vector()))}"
        f"_a{''.join(map(str, qs.a))}"
        f"_{fl.variant}_fix{'-'.join(map(str, sorted(fl.fixed))) or 'none'}"
        f"_m{'-'.join(map(str, monomial))}.bin"
    )
    return os.path.join(directory, re.sub(r"[^A-Za-z0-9_.\-]", "", name))


@dataclass(frozen=True)
class CoefficientResult:
    """One target coefficient, or the abort that stopped it (coefficient
    None).  factorization is given exactly when the coefficient is nonzero."""

    coefficient: int | None
    note: str = ""
    checkpoint: str | None = None
    factorization: Factorization | None = None

    def __post_init__(self):
        value = None if self.factorization is None else self.factorization.value
        if value != (self.coefficient or None):
            raise ValueError(
                f"coefficient {self.coefficient} with factorization {self.factorization}"
            )

    @property
    def outcome(self) -> str:
        if self.coefficient is None:
            return "aborted"
        return "nonzero" if self.coefficient else "zero"


def compute_coefficient(
    qs: QuotientSequencing, fl, bound, monomial, config: CaseConfig, resume=None
) -> CoefficientResult:
    """Coefficient of monomial in the product fl, within config.op_cap,
    factored when nonzero.

    An abort at op_cap or at the engine's TERM_CAP is returned, not raised.
    With config.checkpoint_dir set, the abort's checkpoint is built and
    saved there under a name made from qs, fl's fixes and variant, and the
    monomial; the directory is created if missing.  Without it the
    checkpoint is never built.
    """
    try:
        poly = multiply_factors(
            fl, bound=bound, target=monomial, op_cap=config.op_cap, resume=resume
        )
    except EngineAbort as abort:
        path = None
        if config.checkpoint_dir:
            os.makedirs(config.checkpoint_dir, exist_ok=True)
            path = _checkpoint_path(config.checkpoint_dir, qs, fl, monomial)
            save_checkpoint(path, abort.checkpoint)
        return CoefficientResult(None, note=str(abort), checkpoint=path)
    value = poly.coefficient(monomial)
    factorization = factorize(value) if value else None
    return CoefficientResult(value, factorization=factorization)


def _attempt(lam, a, fixes, config, attempts):
    """Try one (arrangement, fixes) pair; return a Certificate or None."""
    fixes = tuple(sorted(fixes))

    def tried(outcome, monomial=None, coefficient=None, note=""):
        attempts.append(AttemptRecord(a, fixes, monomial, outcome, coefficient, note))

    try:
        qs, fl, bound = product(lam, a, fixes, config.variant)
    except InfeasibleFixing as exc:
        tried("infeasible", note=str(exc))
        return None
    if fl.degree > sum(bound):
        tried("infeasible", note=f"degree {fl.degree} exceeds bound degree {sum(bound)}")
        return None
    if fl.degree > config.max_degree:
        tried("skipped-degree", note=f"degree {fl.degree} above budget {config.max_degree}")
        return None
    entries: list[CertificateEntry] = []
    # the "0:" keeps every draw, and so every record, as seed 0 wrote it
    seed = f"0:{a}:{fixes}:{config.variant}"
    for mono in sample_monomials(bound, fl.degree, MAX_CANDIDATES, seed):
        result = compute_coefficient(qs, fl, bound, mono, config)
        note = result.note
        if result.checkpoint:
            note += f"; checkpoint saved to {result.checkpoint}"
        tried(result.outcome, mono, result.coefficient, note)
        if result.outcome != "nonzero":
            continue
        entries.append(CertificateEntry(mono, result.coefficient, result.factorization))
        if not exceptional_primes([e.coefficient for e in entries], qs.k, qs.t):
            break
    if not entries:
        return None
    return Certificate(
        k=qs.k,
        t=qs.t,
        lam=tuple(lam),
        a=qs.a,
        fixes=fixes,
        variant=config.variant,
        degree=fl.degree,
        bound=bound,
        entries=tuple(entries),
        exceptional=exceptional_primes([e.coefficient for e in entries], qs.k, qs.t),
    )


def _ranked(lam):
    """The type's arrangements best first.  The first RANKED_BLOCK come from
    one search_quotient call; each later call keeps four times as many and
    yields only those not yielded before."""
    done, limit = 0, RANKED_BLOCK
    while True:
        ranking = search_quotient(lam, limit=limit)
        for _, _, a in ranking.candidates[done:]:
            yield a
        if ranking.scanned <= limit:
            return
        done, limit = limit, 4 * limit


def certify_type(lam, t: int, config: CaseConfig | None = None) -> TypeResult:
    """Search a certificate for one type.

    Arrangements come best first from the exact ranking by induced degree;
    for each, the greedy fixing is tried first, then no fixes.  The first
    certificate with no exceptional primes wins; otherwise the one with the
    fewest exceptional primes (ties: fewer entries) is kept.  The first
    RANKED_BLOCK arrangements are always tried; an attempt past them is made
    only while every attempt so far came back zero (see the module
    docstring).
    """
    if config is None:
        config = CaseConfig()
    lam = tuple(lam)
    if len(lam) != t:
        raise ValueError(f"type {lam} does not have {t} parts")
    attempts: list[AttemptRecord] = []
    best: Certificate | None = None

    def walk_on(rank):
        return rank < RANKED_BLOCK or all(rec.outcome == "zero" for rec in attempts)

    # checked before each arrangement is drawn, so that a type which stops
    # at the block's end does not rerun the search
    arrangements, rank = _ranked(lam), 0
    while walk_on(rank) and (a := next(arrangements, None)) is not None:
        qs, fl, _ = product(lam, a, variant=config.variant)
        greedy = tuple(sorted(choose_fixes(fl, lam, qs)))
        for fixes in [greedy, ()] if greedy else [()]:
            if not walk_on(rank):
                break
            cert = _attempt(lam, a, fixes, config, attempts)
            if cert is not None:
                if not cert.exceptional:
                    return TypeResult(
                        lam, type_orbit(lam), cert, None, tuple(attempts)
                    )
                if best is None or (
                    (len(cert.exceptional), len(cert.entries))
                    < (len(best.exceptional), len(best.entries))
                ):
                    best = cert
        rank += 1
    if best is not None:
        return TypeResult(lam, type_orbit(lam), best, None, tuple(attempts))
    reason = unresolved_reason(rec.outcome for rec in attempts)
    return TypeResult(lam, type_orbit(lam), None, reason, tuple(attempts))


def unresolved_reason(outcomes) -> str:
    """Why a type whose attempts had these outcomes has no certificate.
    certify_type writes it and reports.case_from_records checks it."""
    outcomes = set(outcomes)
    if "aborted" in outcomes or "skipped-degree" in outcomes:
        return "work budget exhausted before a nonzero coefficient was found"
    if "zero" in outcomes:
        return "every candidate monomial tried had coefficient zero"
    return "no arrangement satisfied the degree condition"


def transfer_certificate(cert: Certificate, u: int) -> Certificate:
    """Certificate for the unit-rescaled type u * lam.

    Multiplying second coordinates by a unit of Z_t is a group automorphism,
    and it preserves the equality pattern of both the arrangement and its
    partial sums, so the factor list, bound and coefficients carry over
    verbatim; only the residue labels change.
    """
    if math.gcd(u, cert.t) != 1:
        raise ValueError(f"{u} is not a unit modulo {cert.t}")
    return replace(
        cert,
        lam=rescale_type(cert.lam, u),
        a=tuple((u * v) % cert.t for v in cert.a),
    )


def derived_result(base: TypeResult, lam) -> TypeResult:
    """The result of the orbit member lam, derived from base, its orbit
    representative's result: base's certificate transferred by the least
    unit u of Z_t with u * base.lam == lam, or base's reason for staying
    unresolved.  assemble_case writes derived results with it and
    reports.case_from_records checks them against it."""
    t = len(lam)
    unit = next(
        u for u in range(1, t) if math.gcd(u, t) == 1 and rescale_type(base.lam, u) == lam
    )
    return TypeResult(
        lam,
        base.orbit,
        None if base.certificate is None else transfer_certificate(base.certificate, unit),
        base.reason,
        (),
        derived_from=base.lam,
    )


def assemble_case(k: int, t: int, config: CaseConfig | None = None) -> CaseReport:
    """Certificates for every type of size-k subsets of Z_p x Z_t.

    One representative per orbit under unit rescaling of the second
    coordinate is computed from scratch; the other orbit members reuse its
    certificate with relabeled residues (the underlying factor product is
    identical), marked with derived_from.
    """
    if config is None:
        config = CaseConfig()
    if not 1 <= t <= 5:
        raise ValueError(f"supported envelope is 1 <= t <= 5, got t={t}")
    if not 1 <= k <= 15:
        raise ValueError(f"supported envelope is 1 <= k <= 15, got k={k}")
    computed: dict[tuple[int, ...], TypeResult] = {}
    results = []
    for lam in enumerate_types(k, t):
        rep = canonical_type(lam)
        if rep == lam:
            computed[lam] = certify_type(lam, t, config)
            results.append(computed[lam])
        else:
            results.append(derived_result(computed[rep], lam))
    return CaseReport(k, t, tuple(results))
