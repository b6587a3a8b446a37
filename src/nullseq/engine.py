"""Sparse expansion of products of degree-1 factors with pruning.

Monomials are packed into a single integer, one byte per position (position 1
is the lowest byte), so dictionary keys are small ints and successor keys are
computed with shifts and adds.

Every call asks for one coefficient: that of a target monomial, which
divides the bounding monomial when one is given.  It is found from two
frontiers, both pruned towards the target:

* the head multiplies fl.factors in list order, which factors._emit decides;
* the tail starts from 1 and multiplies the same factors from the last one
  backwards.

Each step goes to the side with fewer live terms, to the head on a tie, and
to the tail only while it holds at most MEET_TERMS (2**13) live terms: two
big frontiers on the dict kernel cost more time and memory than one on
arrays.  Once the head has taken factors [0, i) and the tail [i, n), the
join Σ_m H[m] · T[target − m] is the coefficient, and nothing more is
multiplied.  target − m cannot borrow, since no digit exceeds its cap and
no cap its target digit; the smaller frontier is iterated and each
complement looked up in the other, by np.searchsorted on arrays.
on_step's f and a checkpoint's factor_index and tail_index are positions
in fl.factors.

Pruning while multiplying factor-by-factor:

* divisor rule: a partial exponent may never exceed its cap, the target's;
* capacity rule: each factor a side has not multiplied yet raises the total
  degree by exactly 1, so position v can gain at most as many units as
  there are such factors containing x_v: for the head those after the
  step's factor, for the tail those before it.  Both counts include the
  other side's factors, so the rule stays a necessary condition.  A
  partial term that cannot reach the target any more is dropped.

The capacity rule is applied incrementally.  When a factor is multiplied in,
the requirement tightens by one exactly for the variables of that factor, so
a term only needs checking against those variables: if two of them are
already below their post-factor thresholds the term has no valid successor at
all, and if one is, the only valid successor is the one that increments it.

Domain.  Every request has k <= 16 and every target exponent at most 15;
multiply_factors raises ValueError for any other before its first step.
The program's requests lie inside: a bounding monomial's exponents are
lambda_v - 1 less the positions fixed in coset v, so at most k - 1, and
assemble_case stops at k = 15.  So every digit fits a 4-bit lane, and the
array kernel below serves every request.

Lane test.  Each term is classified against a factor with one packed test
instead of a loop over the factor's variables.  Every cap is the target's
exponent clamped to the number of factors containing its variable, which
changes no live term, so caps are at most 15 and thresholds at most 16.
So a digit d plus 128 - x sets its byte's bit 7 exactly when d >= x, with
no carry into the next byte.  With a = sum of (128 - threshold) and
b = sum of (128 - cap) over the factor's bytes and m their bit-7 mask,
(((key + a) & m) << 1) | ((key + b) & m) is a state that selects the term's
successors from a table filled lazily by the rule above.

Set-up paid once.  Calls are many and small (prove --k 9 --t 3
makes 987, most of a few thousand term-ops), so their fixed costs are shared:

* the plan skeleton, each variable's occurrence count and each factor's
  entries with the occurrences after it (the head's) and before it (the
  tail's), depends on the factor list alone: FactorList.occurrences
  computes it once per list for every monomial tried on it, and a call
  only applies its target, building a factor's plan tuple when a side
  takes its step;
* a state's bits mean "reached threshold" and "reached cap" whatever the
  numeric thresholds and caps are, so a term's successors depend on the
  factor's shape ((variable, sign) per lane) and its state alone: the
  tables are keyed by shape and shared by every step, side, call and
  product in the process (_successors says what bounds them).

Array kernel.  A call picks its kernel before its first step, from the
product's degree n = len(fl.factors): from ARRAY_DEGREE (70) on, both
sides, fresh or resumed, become numpy arrays before step 0; below it the
call stays on dicts.  Peak live terms grow with the degree: the k <= 9
sweep (degree <= 56) peaks at 5 469, the light tier (<= 69) at 10 268,
(9,0)'s degree-71 products at 39 355, 10-2-a (89) at 356 021 and 11-a
(109) at 3.13M.  So numpy stays off the light and sweep paths.  A side
on arrays is uint64 keys with 4-bit lanes (the digit of x_v at bits
4(v - 1)), sorted, and a coefficient column; the domain makes each digit
fit its lane.  A step marks, in a uint16 mask per term, the branches the
term keeps: branch j keeps it when its digit j is below its cap and the
number of the factor's digits below their thresholds equals [digit j
below threshold], which is _successors' rule, so both kernels keep the
same live terms.  Each branch's keys are the sorted keys plus one
increment, so they stay sorted and distinct.  The output keys are cut
into ranges at every MERGE_RANGE-th input key (2**13); per range, the
branches' slices are concatenated and stably sorted, equal keys are
summed with np.add.reduceat and zeros are dropped, and the ranges are
concatenated in order.  So no step copies a whole array once per branch,
and its sort temporaries are bounded by a range.  The column starts as
int64.  Each new coefficient sums at most len(factor) old ones, so before a
step with max|c| * len(factor) >= 2**63 the column is converted once to
object dtype, exact Python ints, which the same merge handles.  The join
multiplies coefficients as Python ints.  Checkpoints are always dicts of
8-bit-lane keys, so arrays become a dict again only when an abort's
checkpoint is read.  numpy is imported on the array path only.

Budget.  op_cap, the one budget a caller sets, bounds the term-ops of a
call, summed over both sides, and so its memory too: a step never leaves
more live terms than the term-ops it just spent.  TERM_CAP is a fixed guard
on each side's live terms, far above any known job.

A deliberately naive expansion over tuple keys (no packing, no pruning) is
provided as an independent cross-check for small instances.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import os
import struct
from dataclasses import dataclass, field

from .factors import FactorList

CHECKPOINT_MAGIC = b"NSEQCKP5"
# refused on load: NSEQCKP1 has no plan_hash; NSEQCKP2 counts factor_index
# in canonical order and hashes unclamped caps; NSEQCKP3 has no digest, so a
# damaged coefficient in it would resume into a wrong number; NSEQCKP4
# holds the head alone.
_OLD_MAGICS = (b"NSEQCKP1", b"NSEQCKP2", b"NSEQCKP3", b"NSEQCKP4")
# k, factor_index, tail_index, the two term counts and the plan hash's length
_HEADER = struct.Struct("<BIIQQB")


def pack(exponents) -> int:
    key = 0
    for idx, e in enumerate(exponents):
        if not 0 <= e <= 255:
            raise ValueError(f"exponent {e} does not fit in one byte")
        key |= e << (8 * idx)
    return key


@dataclass
class SparsePolynomial:
    """Integer polynomial stored as packed-monomial -> coefficient."""

    k: int
    terms: dict[int, int]

    def coefficient(self, exponents) -> int:
        return self.terms.get(pack(exponents), 0)


@dataclass
class EngineCheckpoint:
    """Resumable state: both frontiers and the factors left between them.

    terms is the head, the product of fl.factors[:factor_index], and
    tail_terms the tail, the product of fl.factors[tail_index:] (tail_index
    is n, and tail_terms {0: 1}, while the tail has multiplied nothing);
    the factors [factor_index, tail_index) are left to multiply.  plan_hash
    identifies the computation (k and the per-step plan in list order:
    factor terms, exponent caps, target thresholds; the tail's plan is
    derived from the same inputs); a resume must match it.
    """

    k: int
    factor_index: int
    terms: dict[int, int] = field(repr=False)
    tail_index: int
    tail_terms: dict[int, int] = field(repr=False)
    plan_hash: bytes = b""


class EngineAbort(RuntimeError):
    """An abort at a cap; its checkpoint is built when first read."""

    def __init__(self, message: str, make_checkpoint):
        super().__init__(message)
        self._make_checkpoint = make_checkpoint

    @functools.cached_property
    def checkpoint(self) -> EngineCheckpoint:
        return self._make_checkpoint()


class TermCapExceeded(EngineAbort):
    pass


class OpCapExceeded(EngineAbort):
    pass


def save_checkpoint(path, cp: EngineCheckpoint) -> None:
    """Binary, deterministic (keys sorted), round-trips bit-exactly.

    The magic is followed by a header, the head's terms, the tail's terms
    and a SHA-256 digest of the header and both term blocks, which
    load_checkpoint checks.  The file is written next to path, synced to
    disk and only then renamed into place, so a crash, of the process or of
    the OS, leaves either the old file or the complete new one.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            digest = hashlib.sha256()

            def write(data: bytes) -> None:
                digest.update(data)
                fh.write(data)

            fh.write(CHECKPOINT_MAGIC)
            write(_HEADER.pack(cp.k, cp.factor_index, cp.tail_index, len(cp.terms),
                               len(cp.tail_terms), len(cp.plan_hash)))
            write(cp.plan_hash)
            for terms in (cp.terms, cp.tail_terms):
                for key in sorted(terms):
                    coef = terms[key]
                    mag = abs(coef)
                    mb = mag.to_bytes(max(1, (mag.bit_length() + 7) // 8), "little")
                    write(key.to_bytes(cp.k, "little")
                          + struct.pack("<BI", 1 if coef < 0 else 0, len(mb)) + mb)
            fh.write(digest.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> EngineCheckpoint:
    """Read a checkpoint; a wrong magic, a short read, trailing bytes or a
    digest that does not match raise ValueError, so no term of a damaged
    file reaches a resume."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic in _OLD_MAGICS:
            raise ValueError(
                f"{path} is a {magic.decode()} checkpoint from an earlier engine "
                f"version; recompute it"
            )
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not an engine checkpoint")
        left = os.fstat(fh.fileno()).st_size - len(magic)
        digest = hashlib.sha256()

        def read(n: int) -> bytes:
            nonlocal left
            # checked before reading, so a damaged length allocates nothing
            if n > left:
                raise ValueError(f"{path} is truncated")
            left -= n
            data = fh.read(n)
            digest.update(data)
            return data

        def read_terms(count: int) -> dict[int, int]:
            terms: dict[int, int] = {}
            for _ in range(count):
                key = int.from_bytes(read(k), "little")
                neg, mlen = struct.unpack("<BI", read(5))
                mag = int.from_bytes(read(mlen), "little")
                terms[key] = -mag if neg else mag
            return terms

        k, factor_index, tail_index, count, tail_count, hash_len = _HEADER.unpack(
            read(_HEADER.size))
        plan_hash = read(hash_len)
        terms = read_terms(count)
        tail_terms = read_terms(tail_count)
        stored = fh.read(digest.digest_size)
        if len(stored) != digest.digest_size:
            raise ValueError(f"{path} is truncated")
        if fh.read(1):
            raise ValueError(
                f"{path} has trailing bytes after {count} + {tail_count} terms")
        if stored != digest.digest():
            raise ValueError(f"{path} is damaged: its SHA-256 digest does not match")
        return EngineCheckpoint(k, factor_index, terms, tail_index, tail_terms, plan_hash)


def _plan_hash(k: int, plans) -> bytes:
    """Digest of what the engine multiplies; computed only for checkpoints."""
    return hashlib.sha256(repr((k, plans)).encode()).digest()


def _caps(fl: FactorList, target) -> list[int]:
    """Each variable's exponent cap: the target's exponent, clamped to the
    number of factors containing the variable, so it never changes which
    terms live."""
    return [min(e, c) for e, c in zip(target, fl.occurrences[0])]


def _step_plan(target, caps, terms, lefts) -> tuple:
    """One step's tuple of (shift, sign, threshold, cap), one per factor term.

    terms are a factor's (variable, sign) pairs and lefts, per pair, how
    many factors the side has yet to multiply contain the variable: those
    after the factor for the head, those before it for the tail, as
    FactorList.occurrences' steps give them.  threshold is the minimum
    exponent the variable must hold *after* this step for the target to
    stay reachable, clamped to cap + 1.
    """
    return tuple(
        (8 * (v - 1), sign, min(max(target[v - 1] - left, 0), caps[v - 1] + 1),
         caps[v - 1])
        for (v, sign), left in zip(terms, lefts)
    )


def _factor_plan(fl: FactorList, target):
    """The head's step tuples, one per factor in list order: plans[f]
    describes fl.factors[f].  A call builds each tuple when a side takes
    its step; the whole plan is built for a checkpoint's plan_hash."""
    caps = _caps(fl, target)
    return [_step_plan(target, caps, terms, after)
            for terms, after, _ in fl.occurrences[1]]


# a product of this many factors or more runs on the array kernel from step
# 0, any other on dicts; the module docstring gives the peaks behind 70
ARRAY_DEGREE = 70
# an array step merges its branches per range of output keys, cut at every
# MERGE_RANGE-th input key, so its sort temporaries are bounded by a range
MERGE_RANGE = 1 << 13
# the tail steps only while it holds at most this many live terms: uncapped,
# the tail of 10-2-a grows to 311 624 terms beside the head's 358 993, and
# the job takes about 1.4 times the time and 30 % more memory
MEET_TERMS = 1 << 13
# the array coefficient column is int64 while max|c| * len(factor) is below this
INT64_LIMIT = 1 << 63
# a step that leaves more live terms than this raises TermCapExceeded; the
# largest known job (12-a) peaks at 27.9M
TERM_CAP = 200_000_000


# factor shape -> {lane state -> successors}: a memo of _successors, shared
# by every step, call and product in the process
_SUCCESSORS: dict[tuple[tuple[int, int], ...], dict[int, tuple[tuple[int, int], ...]]] = {}


def _successors(shape, state: int) -> tuple[tuple[int, int], ...]:
    """(key increment, sign) pairs for a term in the given lane state.

    shape is a factor's terms(), (v, sign) per lane; the lane of x_v sits at
    shift 8(v - 1).  Bit shift + 8 of state is set when the digit at shift
    has reached its threshold, bit shift + 7 when it has reached its cap.
    Two digits below threshold: the term is dead.  One: only its increment
    can keep the target reachable.  None: every digit below its cap may grow.

    The bits say "reached" whatever the numeric thresholds and caps are, so
    the answer depends on the shape and the state alone: _SUCCESSORS keeps
    it for the life of the process and can never hold a stale entry.  Its
    size is bounded by the shapes that occur (a difference per pair of
    positions, a window per run of positions less its fixed ones) times the
    states their terms reach, at most 4**len(shape) each; the k <= 9 prove
    sweep fills about 2 200 entries.
    """
    lanes = [(8 * (v - 1), sign) for v, sign in shape]
    below = [lane for lane in lanes if not state >> (lane[0] + 8) & 1]
    if len(below) > 1:
        return ()
    return tuple(
        (1 << shift, sign)
        for shift, sign in (below or lanes)
        if not state >> (shift + 7) & 1
    )


def _dict_step(fac, shape, terms: dict[int, int]) -> dict[int, int]:
    """Multiply the terms by one factor, classifying each by the lane test."""
    # lane constants: a digit d plus 128 - x sets its lane's bit 7 iff
    # d >= x, with no carry out of the lane since d <= 15 and x <= 16
    a = b = m = 0
    for shift, _, thr, cap in fac:
        a |= (128 - thr) << shift
        b |= (128 - cap) << shift
        m |= 128 << shift
    table = _SUCCESSORS.setdefault(shape, {})
    new: dict[int, int] = {}
    get = new.get
    for key, coef in terms.items():
        state = (((key + a) & m) << 1) | ((key + b) & m)
        try:
            succ = table[state]
        except KeyError:
            succ = table[state] = _successors(shape, state)
        for delta, sign in succ:
            nk = key + delta
            c = get(nk, 0) + sign * coef
            if c:
                new[nk] = c
            else:
                del new[nk]
    return new


def _nibbles(x):
    """Byte lanes (each digit <= 15) of uint64s, packed as 32-bit nibble lanes."""
    x = (x | (x >> 4)) & 0x00FF00FF00FF00FF
    x = (x | (x >> 8)) & 0x0000FFFF0000FFFF
    return (x | (x >> 16)) & 0x00000000FFFFFFFF


def _bytes(x):
    """The inverse of _nibbles: 32-bit nibble lanes spread to byte lanes."""
    x = (x | (x << 16)) & 0x0000FFFF0000FFFF
    x = (x | (x << 8)) & 0x00FF00FF00FF00FF
    return (x | (x << 4)) & 0x0F0F0F0F0F0F0F0F


def _to_arrays(terms: dict[int, int], k: int):
    """The terms as (keys, coefs): 4-bit-lane uint64 keys, sorted, and a
    coefficient column, int64 unless a coefficient is already too large."""
    import numpy as np

    n = len(terms)
    # every digit is at most 15, so byte lanes and nibble lanes order keys
    # alike and each 64-bit half of a key is below 2**60
    ordered = sorted(terms)
    low = np.fromiter((key & 0xFFFFFFFFFFFFFFFF for key in ordered), np.uint64, n)
    keys = _nibbles(low)
    if k > 8:
        high = np.fromiter((key >> 64 for key in ordered), np.uint64, n)
        keys |= _nibbles(high) << 32
    coefs = [terms[key] for key in ordered]
    wide = max(map(abs, coefs), default=0) >= INT64_LIMIT  # a resumed side may be empty
    return keys, np.array(coefs, object if wide else np.int64)


def _to_dict(keys, coefs, k: int) -> dict[int, int]:
    """The inverse of _to_arrays: a dict of 8-bit-lane int keys and int coefficients."""
    low = _bytes(keys & 0xFFFFFFFF).tolist()
    if k <= 8:
        return dict(zip(low, coefs.tolist()))
    high = _bytes(keys >> 32).tolist()
    return {lo | hi << 64: c for lo, hi, c in zip(low, high, coefs.tolist())}


def _array_step(fac, keys, coefs):
    """_dict_step on sorted arrays: the same successors, merged per key range.

    A term keeps branch j when its digit d_j is below cap_j and the number
    of the factor's digits below their thresholds equals [d_j < thr_j]:
    _successors' rule.  Bit j of a uint16 mask per term records it (a factor
    has at most k <= 16 terms).  Output keys are cut into ranges at every
    MERGE_RANGE-th input key; branch j's inputs for a range are the input
    keys in the range shifted down by its increment, found by searchsorted.
    Each range concatenates its branch slices, which are sorted runs, sorts
    them with one stable argsort, sums equal keys with np.add.reduceat
    (which serves the object column too) and drops zeros, so the sort's
    temporaries are bounded by a range, not by the whole output.
    """
    import numpy as np

    n = len(keys)
    keep = np.zeros(n, np.uint16)  # bit j: d_j < cap_j
    below = np.zeros(n, np.uint16)  # bit j: d_j < thr_j
    for j, (shift, _, thr, cap) in enumerate(fac):
        d = (keys >> (shift // 2)).astype(np.uint8) & 15
        keep |= (d < cap).astype(np.uint16) << j
        below |= (d < thr).astype(np.uint16) << j
    # no digit below its threshold: every branch may live; one: only its
    # own; two or more (below is not a power of two): none
    keep &= np.where(below == 0, np.uint16(0xFFFF), below)
    keep[(below & (below - 1)) != 0] = 0
    del below, d
    cuts = keys[MERGE_RANGE::MERGE_RANGE]
    branches = []
    for j, (shift, sign, _, _) in enumerate(fac):
        inc = np.uint64(1 << shift // 2)
        # a cut below the increment takes no input; clamp, since uint64 wraps
        starts = np.searchsorted(keys, np.maximum(cuts, inc) - inc).tolist()
        branches.append((np.uint16(1 << j), inc, sign, [0, *starts, n]))
    out_keys, out_coefs = [], []
    for r in range(len(cuts) + 1):
        run_keys, run_coefs = [], []
        for bit, inc, sign, bounds in branches:
            lo, hi = bounds[r], bounds[r + 1]
            sel = (keep[lo:hi] & bit).astype(bool)
            run_keys.append(keys[lo:hi][sel] + inc)
            more = coefs[lo:hi][sel]
            run_coefs.append(-more if sign < 0 else more)
        merged = np.concatenate(run_keys)
        order = merged.argsort(kind="stable")
        merged = merged[order]
        first = np.ones(len(merged), bool)
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        at = np.flatnonzero(first)
        sums = np.add.reduceat(np.concatenate(run_coefs)[order], at)
        nonzero = sums != 0
        out_keys.append(merged[at[nonzero]])
        out_coefs.append(sums[nonzero])
    return np.concatenate(out_keys), np.concatenate(out_coefs)


def _as_dict(terms, k: int) -> dict[int, int]:
    return terms if isinstance(terms, dict) else _to_dict(*terms, k)


def _size(terms) -> int:
    return len(terms) if isinstance(terms, dict) else len(terms[0])


def _step(fac, shape, terms):
    """Multiply one side's terms, a dict or arrays, by one factor, and
    return the new terms.

    An array column is widened first when the step could overflow it.
    shape is the factor's terms(), the key of its successor table.
    """
    if isinstance(terms, dict):
        return _dict_step(fac, shape, terms)
    keys, coefs = terms
    # each new coefficient sums at most len(fac) old ones
    if coefs.dtype != object and int(abs(coefs).max(initial=0)) * len(fac) >= INT64_LIMIT:
        coefs = coefs.astype(object)
    return _array_step(fac, keys, coefs)


def _join(head, tail, target) -> int:
    """Σ_m H[m] · T[target − m]: the target's coefficient from the frontiers.

    The complement target − m cannot borrow, since no digit exceeds its
    cap and no cap its target digit.  The smaller frontier is iterated:
    on dicts each complement is looked up in the other dict, on arrays all
    are found in the other side's sorted 4-bit-lane keys by
    np.searchsorted.  Coefficients are multiplied as Python ints.
    """
    small, big = (tail, head) if _size(tail) <= _size(head) else (head, tail)
    if isinstance(big, dict):
        key = pack(target)
        get = big.get
        return sum(c * get(key - m, 0) for m, c in small.items())
    keys, coefs = big
    import numpy as np

    wanted = np.uint64(sum(e << 4 * v for v, e in enumerate(target))) - small[0]
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    hit = keys[at] == wanted
    return sum(map(operator.mul, small[1][hit].tolist(), coefs[at[hit]].tolist()))


def _checkpoint(fl: FactorList, target, lo, head, hi, tail) -> EngineCheckpoint:
    k = fl.k
    return EngineCheckpoint(k, lo, _as_dict(head, k), hi, _as_dict(tail, k),
                            _plan_hash(k, _factor_plan(fl, target)))


def _meet(fl: FactorList, target, caps, lo, head, hi, tail, op_cap, on_step) -> int:
    """Multiply fl.factors[lo:hi] into the head (from lo up) and the tail
    (from hi - 1 down) until they meet, then join them.

    head and tail are both dicts or both arrays.  Returns the target's
    coefficient: 0 as soon as either side empties.
    """
    steps = fl.occurrences[1]
    ops = 0
    while lo < hi:
        tail_live = _size(tail)
        on_tail = tail_live < _size(head) and tail_live <= MEET_TERMS
        side = tail if on_tail else head
        f = hi - 1 if on_tail else lo
        shape, after, before = steps[f]
        fac = _step_plan(target, caps, shape, before if on_tail else after)
        new = _step(fac, shape, side)
        live = _size(new)
        ops += _size(side) * len(fac)
        # a checkpoint is built only when read, from the state before the
        # step (term cap) or after it (op cap)
        if live > TERM_CAP:
            raise TermCapExceeded(
                f"term count {live} exceeds cap {TERM_CAP} at factor {f}",
                functools.partial(_checkpoint, fl, target, lo, head, hi, tail),
            )
        if on_tail:
            hi, tail = f, new
        else:
            lo, head = f + 1, new
        if op_cap is not None and ops > op_cap:
            raise OpCapExceeded(
                f"operation budget {op_cap} exhausted at factor {f}",
                functools.partial(_checkpoint, fl, target, lo, head, hi, tail),
            )
        if on_step is not None:
            on_step(f, live)
        if not live:
            # the product is 0; the steps left would each see no term
            if on_step is not None:
                for g in range(lo, hi):
                    on_step(g, 0)
            return 0
    return _join(head, tail, target)


def _check_resume_terms(terms, k: int, degree: int, caps, where: str) -> None:
    """Reject resumed terms that this plan's steps cannot have made.

    The product is homogeneous, so every live term of a side that has
    multiplied degree factors has total degree degree, and no digit exceeds
    its planned cap.  Each key is tested with packed lanes: no byte may
    reach 128 (bit 7, mask m), and then adding 127 - cap to each byte sets
    bit 7 exactly when its digit exceeds its cap.  Digits within caps of at
    most 15 sum to below 255, and 256 is 1 modulo 255, so key % 255 is then
    the total degree.
    """
    m = sum(128 << 8 * v for v in range(k))
    over = sum((127 - cap) << 8 * v for v, cap in enumerate(caps))
    for key in terms:
        if (not 0 <= key < 1 << (8 * k) or key & m or (key + over) & m
                or key % 255 != degree):
            raise ValueError(
                f"checkpoint term {key:#x} does not fit {where}: each term has "
                f"degree {degree} and exponents within their caps"
            )


def multiply_factors(
    fl: FactorList,
    bound=None,
    *,
    target,
    op_cap=None,
    resume: EngineCheckpoint | None = None,
    on_step=None,
) -> SparsePolynomial:
    """The coefficient of the target monomial in the factor product, as a
    polynomial with that one term, or none when the coefficient is 0.

    The target's entries cap the exponents and the capacity rule prunes the
    terms that can no longer reach it.  The request must lie in the
    engine's domain, k <= 16 and every target exponent at most 15, or a
    ValueError is raised before any step.  bound, when given, is checked:
    the product's degree must not exceed it and the target must divide it.

    The head multiplies factors in list order and the tail from the last
    one backwards, one factor per step, until they meet.  on_step(f,
    live_terms) is called once per factor, f its position in fl.factors
    and live_terms the count of the side that multiplied it: head positions
    rise from 0, tail positions fall from n - 1.  Once a side holds no
    term the product is 0: the factors left are not multiplied in, and
    on_step sees each of them, in list order, with 0 live terms.
    Exceeding op_cap (None: no cap; it counts both sides' term-ops) or
    TERM_CAP on either side raises OpCapExceeded / TermCapExceeded carrying
    a resumable checkpoint of both sides for this factor list (pass it back
    via resume); the checkpoint holds the engine's term dicts themselves,
    not copies, or, on arrays (a product of ARRAY_DEGREE factors or more
    runs on them from its first step), dicts rebuilt from them when it is
    first read.  A resume is rejected unless the
    checkpoint's plan_hash matches this call's k, factors in their order,
    caps and target, and unless every resumed head term has total degree
    factor_index, every tail term n - tail_index, and each exponent is
    within its cap.
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
    target = tuple(target)
    if len(target) != k or min(target, default=0) < 0:
        raise ValueError(f"target must be {k} non-negative exponents")
    if k > 16 or max(target, default=0) > 15:
        raise ValueError(
            f"k={k} and target {','.join(map(str, target))} are outside the "
            f"engine's domain: k <= 16 and every target exponent at most 15, "
            f"one 4-bit lane each"
        )
    if bound is not None and any(g > b for g, b in zip(target, bound)):
        raise ValueError("target must divide the bound")
    if sum(target) != n:
        # the product is homogeneous of degree n
        raise ValueError(
            f"target degree {sum(target)} does not match product degree {n}"
        )

    caps = _caps(fl, target)
    if resume is not None:
        if resume.k != k:
            raise ValueError(f"checkpoint is for k={resume.k}, factor list has k={k}")
        lo, hi = resume.factor_index, resume.tail_index
        if not 0 <= lo <= hi <= n:
            raise ValueError(
                f"checkpoint factor index {lo} and tail index {hi} are not in "
                f"order within 0 .. {n}"
            )
        if resume.plan_hash != _plan_hash(k, _factor_plan(fl, target)):
            raise ValueError(
                "checkpoint was saved from a different computation (factors, "
                "factor order, bound or target monomial differ)"
            )
        _check_resume_terms(resume.terms, k, lo, caps, f"factor index {lo}")
        _check_resume_terms(resume.tail_terms, k, n - hi, caps, f"tail index {hi}")
        head, tail = dict(resume.terms), dict(resume.tail_terms)
    else:
        lo, head, hi, tail = 0, {0: 1}, n, {0: 1}
    if n >= ARRAY_DEGREE:
        head, tail = _to_arrays(head, k), _to_arrays(tail, k)

    coef = _meet(fl, target, caps, lo, head, hi, tail, op_cap, on_step)
    return SparsePolynomial(k, {pack(target): coef} if coef else {})


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

