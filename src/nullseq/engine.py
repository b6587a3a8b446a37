"""Sparse expansion of products of degree-1 factors with pruning.

Monomials are packed into a single integer, one byte per position (position 1
is the lowest byte), so dictionary keys are small ints and successor keys are
computed with shifts and adds.

Pruning while multiplying factor-by-factor:

* divisor rule: a partial exponent may never exceed its cap (the bounding
  monomial, or the target monomial when one is requested);
* capacity rule (target only): each remaining factor raises the total degree
  by exactly 1, so position v can gain at most as many units as there are
  remaining factors containing x_v.  A partial term that cannot reach the
  target any more is dropped.

The capacity rule is applied incrementally.  When a factor is multiplied in,
the requirement tightens by one exactly for the variables of that factor, so
a term only needs checking against those variables: if two of them are
already below their post-factor thresholds the term has no valid successor at
all, and if one is, the only valid successor is the one that increments it.

A deliberately naive expansion over tuple keys (no packing, no pruning) is
provided as an independent cross-check for small instances.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

from .factors import FactorList

CHECKPOINT_MAGIC = b"NSEQCKP2"
_OLD_MAGIC = b"NSEQCKP1"  # before plan_hash; refused on load


def pack(exponents) -> int:
    key = 0
    for idx, e in enumerate(exponents):
        if not 0 <= e <= 255:
            raise ValueError(f"exponent {e} does not fit in one byte")
        key |= e << (8 * idx)
    return key


def unpack(key: int, k: int) -> tuple[int, ...]:
    return tuple((key >> (8 * idx)) & 255 for idx in range(k))


@dataclass
class SparsePolynomial:
    """Integer polynomial stored as packed-monomial -> coefficient."""

    k: int
    terms: dict[int, int]

    def coefficient(self, exponents) -> int:
        return self.terms.get(pack(exponents), 0)

    def num_terms(self) -> int:
        return len(self.terms)

    def max_abs_coefficient(self) -> int:
        return max((abs(c) for c in self.terms.values()), default=0)

    def items(self):
        """Yield (exponent tuple, coefficient) sorted by packed key."""
        for key in sorted(self.terms):
            yield unpack(key, self.k), self.terms[key]

    def to_tuple_dict(self) -> dict[tuple[int, ...], int]:
        return {unpack(key, self.k): c for key, c in self.terms.items()}


@dataclass
class EngineCheckpoint:
    """Resumable state: the accumulated terms before factor factor_index.

    plan_hash identifies the computation (k and the per-factor plan: factor
    terms, exponent caps, target thresholds); a resume must match it.
    """

    k: int
    factor_index: int
    terms: dict[int, int] = field(repr=False)
    plan_hash: bytes = b""


class EngineAbort(RuntimeError):
    def __init__(self, message: str, checkpoint: EngineCheckpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


class TermCapExceeded(EngineAbort):
    pass


class OpCapExceeded(EngineAbort):
    pass


def save_checkpoint(path, cp: EngineCheckpoint) -> None:
    """Binary, deterministic (keys sorted), round-trips bit-exactly.

    The file is written next to path and renamed into place, so a crash
    leaves either the old file or the complete new one.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<BIQB", cp.k, cp.factor_index, len(cp.terms),
                                 len(cp.plan_hash)))
            fh.write(cp.plan_hash)
            for key in sorted(cp.terms):
                coef = cp.terms[key]
                mag = abs(coef)
                mb = mag.to_bytes(max(1, (mag.bit_length() + 7) // 8), "little")
                fh.write(key.to_bytes(cp.k, "little"))
                fh.write(struct.pack("<BI", 1 if coef < 0 else 0, len(mb)))
                fh.write(mb)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> EngineCheckpoint:
    """Read a checkpoint; a wrong magic, a short read or trailing bytes raise ValueError."""
    with open(path, "rb") as fh:

        def read(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path} is truncated")
            return data

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic == _OLD_MAGIC:
            raise ValueError(
                f"{path} is a {magic.decode()} checkpoint, which does not record "
                f"the computation it belongs to; recompute it"
            )
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not an engine checkpoint")
        k, factor_index, count, hash_len = struct.unpack("<BIQB", read(14))
        plan_hash = read(hash_len)
        terms: dict[int, int] = {}
        for _ in range(count):
            key = int.from_bytes(read(k), "little")
            neg, mlen = struct.unpack("<BI", read(5))
            mag = int.from_bytes(read(mlen), "little")
            terms[key] = -mag if neg else mag
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after {count} terms")
        return EngineCheckpoint(k, factor_index, terms, plan_hash)


def _plan_hash(k: int, plans) -> bytes:
    """Digest of what the engine multiplies; computed only for checkpoints."""
    return hashlib.sha256(repr((k, plans)).encode()).digest()


def _factor_plan(fl: FactorList, bound, target):
    """Per-factor tuples (shift, sign, threshold, cap) for the inner loop.

    threshold is the minimum exponent the variable must hold *after* this
    factor for the target to stay reachable (0 when no target: never binding).
    cap is the effective per-position maximum (target when given, else bound).
    """
    k = fl.k
    eff = list(target) if target is not None else list(bound)
    remaining = [0] * (k + 1)
    plans: list[tuple[tuple[int, int, int, int], ...]] = [()] * len(fl.factors)
    for f in range(len(fl.factors) - 1, -1, -1):
        entries = []
        for v, sign in fl.factors[f].terms():
            if target is not None:
                thr = target[v - 1] - remaining[v]
                if thr < 0:
                    thr = 0
            else:
                thr = 0
            entries.append((8 * (v - 1), sign, thr, eff[v - 1]))
        plans[f] = tuple(entries)
        for v, _ in fl.factors[f].terms():
            remaining[v] += 1
    return plans


def _run_factors(plans, terms, start, k, term_cap, op_cap, on_step):
    ops = 0
    for f in range(start, len(plans)):
        fac = plans[f]
        new: dict[int, int] = {}
        for key, coef in terms.items():
            viol = None
            dead = False
            for entry in fac:
                if (key >> entry[0]) & 255 < entry[2]:
                    if viol is not None:
                        dead = True
                        break
                    viol = entry
            if dead:
                continue
            if viol is not None:
                shift, sign, _, cap = viol
                if (key >> shift) & 255 < cap:
                    nk = key + (1 << shift)
                    c = new.get(nk, 0) + sign * coef
                    if c:
                        new[nk] = c
                    elif nk in new:
                        del new[nk]
                continue
            for shift, sign, _, cap in fac:
                if (key >> shift) & 255 < cap:
                    nk = key + (1 << shift)
                    c = new.get(nk, 0) + sign * coef
                    if c:
                        new[nk] = c
                    elif nk in new:
                        del new[nk]
        ops += len(terms) * len(fac)
        if term_cap is not None and len(new) > term_cap:
            raise TermCapExceeded(
                f"term count {len(new)} exceeds cap {term_cap} at factor {f}",
                EngineCheckpoint(k, f, terms, _plan_hash(k, plans)),
            )
        if op_cap is not None and ops > op_cap:
            raise OpCapExceeded(
                f"operation budget {op_cap} exhausted at factor {f}",
                EngineCheckpoint(k, f + 1, new, _plan_hash(k, plans)),
            )
        terms = new
        if on_step is not None:
            on_step(f, len(new))
    return terms


def multiply_factors(
    fl: FactorList,
    bound=None,
    target=None,
    term_cap=200_000_000,
    op_cap=None,
    resume: EngineCheckpoint | None = None,
    on_step=None,
) -> SparsePolynomial:
    """Expand the factor product, keeping only terms that can still matter.

    bound caps every exponent (monomial-divisibility pruning).  target asks
    for a single monomial: its entries become the caps and the capacity rule
    prunes terms that can no longer reach it.  With neither, the product is
    expanded in full.

    Factors are multiplied in one at a time and on_step(f, live_terms) is
    called after each.  Exceeding term_cap or op_cap raises TermCapExceeded /
    OpCapExceeded carrying a resumable checkpoint for this factor list (pass
    it back via resume); the checkpoint holds the engine's term dict itself,
    not a copy.  A resume is rejected unless the checkpoint's plan_hash
    matches this call's k, factors, caps and target.
    """
    k = fl.k
    n = len(fl.factors)
    if bound is not None:
        bound = tuple(bound)
        if len(bound) != k or any(not 0 <= g <= 255 for g in bound):
            raise ValueError(f"bound must be {k} exponents in 0 .. 255")
        if n > sum(bound):
            raise ValueError(
                f"product degree {n} exceeds bound degree {sum(bound)}: "
                f"no surviving term is possible"
            )
    if target is not None:
        target = tuple(target)
        if len(target) != k or any(g < 0 for g in target):
            raise ValueError(f"target must be {k} nonnegative exponents")
        if bound is not None and any(g > b for g, b in zip(target, bound)):
            raise ValueError("target must divide the bound")
        if sum(target) != n:
            # the product is homogeneous of degree n
            raise ValueError(
                f"target degree {sum(target)} does not match product degree {n}"
            )
    if bound is None and target is None:
        bound = (255,) * k

    plans = _factor_plan(fl, bound, target)
    if resume is not None:
        if resume.k != k:
            raise ValueError(f"checkpoint is for k={resume.k}, factor list has k={k}")
        start = resume.factor_index
        if not 0 <= start <= n:
            raise ValueError(f"checkpoint factor index {start} out of range 0 .. {n}")
        if resume.plan_hash != _plan_hash(k, plans):
            raise ValueError(
                "checkpoint was saved from a different computation (factors, "
                "bound or target monomial differ)"
            )
        terms = dict(resume.terms)
    else:
        start = 0
        terms = {0: 1}

    terms = _run_factors(plans, terms, start, k, term_cap, op_cap, on_step)
    return SparsePolynomial(k, terms)


def naive_expand(fl: FactorList, max_k: int = 8, max_degree: int = 25) -> SparsePolynomial:
    """Full expansion with no pruning: the independent small-case oracle.

    The multiplication works over plain exponent tuples and shares no key
    packing or pruning logic with multiply_factors; only the final result is
    repackaged.  Guarded so it is never mistakenly used on instances where
    it would blow up.
    """
    if fl.k > max_k:
        raise ValueError(f"naive expansion limited to k <= {max_k}, got {fl.k}")
    if fl.degree > max_degree:
        raise ValueError(
            f"naive expansion limited to degree <= {max_degree}, got {fl.degree}"
        )
    poly: dict[tuple[int, ...], int] = {(0,) * fl.k: 1}
    for factor in fl.factors:
        new: dict[tuple[int, ...], int] = {}
        for exps, coef in poly.items():
            for v, sign in factor.terms():
                bumped = list(exps)
                bumped[v - 1] += 1
                key = tuple(bumped)
                new[key] = new.get(key, 0) + sign * coef
        poly = {key: c for key, c in new.items() if c}
    return SparsePolynomial(fl.k, {pack(exps): c for exps, c in poly.items()})

