"""Command-line frontend.

Subcommands::

    prove       run the full case pipeline for (k, t) and emit certificates
    coeff       compute one integer coefficient of a factor-list product
    qs          rank quotient sequencings for a type
    scan        brute-force sequenceability scan of small cyclic groups
    verify      cross-check a certificate's conclusion by exhaustion
    applicable  coverage checker for a modulus/size pair
    table1      recompute the curated coefficient fixtures and compare

Output is line-delimited JSON on stdout (or ``--output``).  Exit status:
0 success, 1 for unresolved/failed cases, 2 for usage errors (an
``--output`` or ``--checkpoint-dir`` that cannot be written among them,
refused before any work starts), 141 when stdout is closed before the
records are written (as by ``| head``).  ``main`` may be called again and
again inside another program: it builds its parser once per process, on
the first call (``build_parser`` is cached), and each call parses into a
fresh namespace.

Settings come from flags only: a flag given overrides the default of the
``CaseConfig`` field or the parameter it names, and a flag left out is not
passed on, so each default is written once: ``certify`` holds those of
``CaseConfig`` and ``RANKED_BLOCK`` (the default of ``qs --qs-limit``), and
``oracle`` those of ``scan --kind`` and ``--seed``.  ``prove``'s search
policy (the arrangements, fixes and monomials it tries), ``applicable``'s
factoring effort (``applicability.EFFORT_BITS``) and the brute-force
oracle's one search per class of unit multiples are not settings.
A subcommand accepts only the flags it reads: ``--op-cap`` and
``--checkpoint-dir`` belong to ``prove``, ``coeff`` and ``table1``;
``--seed`` to ``scan``, and only with ``--count``; ``--qs-limit`` to
``qs``; ``--output`` to all.
``prove``, ``coeff`` and ``table1`` build every product with
``factors.product`` and compute every coefficient through
``certify.compute_coefficient``, so ``--op-cap``, the one budget, and
checkpoints act alike in all three (the engine's live-term guard,
``engine.TERM_CAP``, is a constant); ``coeff`` and ``table1`` rows share
one coefficient job (``_coefficient_job``) and its record.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

from . import catalog, reports
from .applicability import applicability
from .certify import (
    RANKED_BLOCK,
    CaseConfig,
    assemble_case,
    compute_coefficient,
)
from .engine import load_checkpoint
from .factors import FULL, REDUCED, product
from .oracle import AUTO, scan_group, verify_nonvanishing_conclusion
from .quotient import search_quotient


class UsageError(Exception):
    pass


def _given(args, *names) -> dict:
    """The named flags that were given, by name; a flag left out is not
    passed on, so the default of what it is passed to holds."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _case_config(args) -> CaseConfig:
    """CaseConfig with the fields given as flags overriding its defaults."""
    return CaseConfig(**_given(args, *(f.name for f in dataclasses.fields(CaseConfig))))


def _parse_vector(text: str, name: str) -> tuple[int, ...]:
    try:
        return reports.parse_exponents(text)
    except ValueError as exc:
        raise UsageError(f"--{name} must be comma-separated integers: {text!r}") from exc


def _check_paths(args) -> None:
    """Refuse an --output or --checkpoint-dir that cannot be written, before
    any work starts; an existing output file is left as it is."""
    path = getattr(args, "output", "-")
    if path != "-":
        parent = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else parent
        if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
            raise UsageError(f"cannot write --output {path}")
    directory = getattr(args, "checkpoint_dir", None)
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise UsageError(
                f"cannot use --checkpoint-dir {directory}: {exc.strerror}"
            ) from None


def _emit(records, args) -> None:
    """Write records (any iterable, consumed lazily) to --output or stdout."""
    path = getattr(args, "output", None)
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as stream:
            reports.write_records(records, stream)
    else:
        try:
            reports.write_records(records, sys.stdout)
        finally:
            sys.stdout.flush()


# ---------------------------------------------------------------------------
# subcommand handlers (return the exit status)


def _cmd_prove(args) -> int:
    config = _case_config(args)
    start = time.monotonic()
    report = assemble_case(args.k, args.t, config)
    _emit(reports.case_records(report, elapsed=time.monotonic() - start), args)
    return 0 if report.complete else 1


def _coefficient_job(qs, fl, bound, monomial, config, *, resume):
    """Compute and time one coefficient of factors.product's (qs, fl,
    bound); return the result and its record."""
    start = time.monotonic()
    result = compute_coefficient(qs, fl, bound, monomial, config, resume=resume)
    record = reports.coefficient_record(
        result, qs, fl, bound, monomial, elapsed=time.monotonic() - start
    )
    return result, record


def _coeff_inputs(args):
    k = args.k
    t = args.t if args.t is not None else 1
    if args.lam is not None:
        lam = _parse_vector(args.lam, "lambda")
        if sum(lam) != k:
            raise UsageError(f"--k {k} must equal the sum of --lambda {args.lam}")
        if args.t is not None and args.t != len(lam):
            raise UsageError(f"--t {args.t} must equal the length of --lambda {args.lam}")
        t = len(lam)
    elif t == 1:
        lam = (k,)
    else:
        raise UsageError("--lambda is required when t > 1")
    if getattr(args, "a", None) is not None:
        a = _parse_vector(args.a, "a")
    elif t == 1:
        a = (0,) * k
    else:
        raise UsageError("--a is required when t > 1")
    fixes = _parse_vector(args.fixes, "fixes") if args.fixes else ()
    return lam, a, fixes


def _cmd_coeff(args) -> int:
    config = _case_config(args)
    lam, a, fixes = _coeff_inputs(args)
    qs, fl, bound = product(lam, a, fixes, config.variant)
    monomial = _parse_vector(args.monomial, "monomial")
    if len(monomial) != qs.k:
        raise UsageError(f"--monomial must have {qs.k} entries")
    resume = None
    if args.resume:
        try:
            resume = load_checkpoint(args.resume)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load checkpoint {args.resume}: {exc}") from exc
    result, record = _coefficient_job(qs, fl, bound, monomial, config, resume=resume)
    _emit([record], args)
    return 0 if result.coefficient else 1


def _cmd_qs(args) -> int:
    lam = _parse_vector(args.lam, "lambda")
    start = time.monotonic()
    result = search_quotient(lam, limit=args.qs_limit)
    elapsed = time.monotonic() - start
    records = [
        reports.quotient_record(i, lam, candidate, result.scanned, elapsed=elapsed)
        for i, candidate in enumerate(result.candidates)
    ]
    _emit(records, args)
    return 0 if any(rec["feasible"] for rec in records) else 1


def _cmd_scan(args) -> int:
    if args.seed is not None and args.count is None:
        raise UsageError("--seed is read only with --count")
    start = time.monotonic()
    report = scan_group(args.n, args.k, count=args.count, **_given(args, "kind", "seed"))
    _emit([reports.scan_record(report, elapsed=time.monotonic() - start)], args)
    return 0 if report.all_sequenceable else 1


def _cmd_verify(args) -> int:
    lam = _parse_vector(args.lam, "lambda")
    a = _parse_vector(args.a, "a")
    start = time.monotonic()
    report = verify_nonvanishing_conclusion(
        args.p, args.t, lam, a, max_subsets=args.max_subsets
    )
    _emit([reports.verification_record(report, elapsed=time.monotonic() - start)], args)
    return 0 if report.ok else 1


def _cmd_applicable(args) -> int:
    subset = _parse_vector(args.subset, "subset") if args.subset else None
    start = time.monotonic()
    result = applicability(args.n, args.k, subset=subset)
    _emit(
        [reports.applicability_record(result, elapsed=time.monotonic() - start)], args
    )
    return 0 if result.verdict in ("yes", "conditional") else 1


def _cmd_table1(args) -> int:
    config = _case_config(args)
    if args.name:
        try:
            targets = (catalog.by_name(args.name),)
        except KeyError:
            raise UsageError(f"unknown fixture {args.name!r}") from None
    else:
        pool = catalog.TABLE1 if args.table_only else catalog.ALL_FIXTURES
        tiers = {
            "light": (catalog.LIGHT,),
            "heavy": (catalog.LIGHT, catalog.HEAVY),
            "massive": (catalog.LIGHT, catalog.HEAVY, catalog.MASSIVE),
        }[args.tier]
        targets = tuple(f for f in pool if f.tier in tiers)
    failures = 0

    def rows():
        nonlocal failures
        for fx in targets:
            result, record = _coefficient_job(
                *product(fx.lam, fx.a, fx.fixes), fx.monomial, config, resume=None
            )
            record["name"] = fx.name
            if result.coefficient is not None:
                record.update(
                    expected=str(fx.coefficient),
                    match=result.coefficient == fx.coefficient,
                )
            failures += result.coefficient != fx.coefficient
            yield record

    _emit(rows(), args)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    It holds no per-call state: its defaults are immutable and each
    parse_args returns a fresh namespace.  The _cmd_* handlers and
    RANKED_BLOCK (the default of qs --qs-limit) are bound when it is
    first built.
    """
    # shared flags, each given only to the subcommands that read it
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-", help="write records here ('-' = stdout)")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--op-cap", dest="op_cap", type=int,
                      help="abort after this many term operations")
    caps.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                      help="directory for engine checkpoints")

    parser = argparse.ArgumentParser(
        prog="nullseq",
        description="Sequenceability certificates for subsets of Z_p x Z_t.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("prove", parents=[output, caps],
                       help="certify every type for a given (k, t)")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--t", type=int, required=True, help="quotient order (1..5)")
    p.add_argument("--variant", choices=(FULL, REDUCED))
    p.add_argument("--max-degree", dest="max_degree", type=int,
                   help="skip types whose product degree exceeds this")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("coeff", parents=[output, caps],
                       help="one coefficient of one factor-list product")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--t", type=int, help="quotient order (default 1)")
    p.add_argument("--lambda", dest="lam", help="type vector (default k,0,... for t=1)")
    p.add_argument("--a", help="arrangement (default all zeros for t=1)")
    p.add_argument("--fixes", help="positions fixed to zero, comma-separated")
    p.add_argument("--monomial", required=True, help="target monomial exponents")
    p.add_argument("--variant", choices=(FULL, REDUCED))
    p.add_argument("--resume", help="resume from an engine checkpoint file")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("qs", parents=[output],
                       help="rank quotient sequencings for a type")
    p.add_argument("--lambda", dest="lam", required=True, help="type vector")
    p.add_argument("--qs-limit", dest="qs_limit", type=int, default=RANKED_BLOCK,
                   help=f"number of candidates to keep (default {RANKED_BLOCK})")
    p.set_defaults(func=_cmd_qs)

    p = sub.add_parser("scan", parents=[output],
                       help="brute-force scan of subsets of Z_n")
    p.add_argument("--n", type=int, required=True, help="cyclic group order")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--kind", choices=("linear", "rotational", AUTO))
    p.add_argument("--count", type=int, help="sample this many subsets instead")
    p.add_argument("--seed", type=int, help="seed of the --count sample")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", parents=[output],
                       help="exhaustively check a certificate's conclusion")
    p.add_argument("--p", type=int, required=True, help="prime modulus")
    p.add_argument("--t", type=int, required=True, help="quotient order")
    p.add_argument("--lambda", dest="lam", required=True, help="type vector")
    p.add_argument("--a", required=True, help="arrangement")
    p.add_argument("--max-subsets", dest="max_subsets", type=int,
                   help="refuse if more subsets than this")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("applicable", parents=[output],
                       help="does the covered range include (n, k)?")
    p.add_argument("--n", type=int, required=True, help="group order")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--subset", help="concrete subset of Z_n, comma-separated")
    p.set_defaults(func=_cmd_applicable)

    p = sub.add_parser("table1", parents=[output, caps],
                       help="recompute curated fixtures and compare")
    p.add_argument("--tier", default="light",
                   choices=("light", "heavy", "massive"),
                   help="include fixtures up to this cost tier")
    p.add_argument("--table-only", action="store_true",
                   help="only the size-10 quotient-2 table rows")
    p.add_argument("--name", help="run a single fixture by name")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_paths(args)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        # bad input: InfeasibleFixing, InfeasibleVerification and a rejected
        # checkpoint are ValueErrors too
        print(f"nullseq: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early.  Point it at devnull so the flush at exit
        # cannot raise again; no signal handler is changed, since callers
        # may run main inside their own process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # what a shell reports for a process killed by SIGPIPE
    except Exception as exc:
        # a crash, out of memory included, is not a result: exit 1 is one
        print(f"nullseq: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
