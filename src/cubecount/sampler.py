"""Glauber dynamics for the hard-core model on Q_d, with defect extraction.

Single-site heat bath: pick a uniform vertex; if some neighbor is occupied
the vertex becomes vacant, otherwise it becomes occupied with probability
lam/(1+lam).  The stationary law is the hard-core measure at fugacity lam.
Runs are fully deterministic given a seed: step t draws the vertex
random.Random(seed).getrandbits(d) and then the coin .random(), as a
per-step loop over random.Random would.

Those draws are replayed in bulk with the standard library alone.  CPython's
getrandbits(k) for k <= 32 is the next 32-bit word w shifted right, and
random() is ((w1 >> 5) * 2^26 + (w2 >> 6)) / 2^53, so step t reads three
words w0, w1, w2.  One getrandbits(96 b) call makes the next b steps' words,
the first least significant, and its little-endian bytes put w0's top 16
bits at offsets 12t + 2 and 12t + 3: the vertex is those bits shifted right
by 16 - d, which needs d <= SAMPLER_MAX_DIM = 16.  The coin is decided from
w1's top byte against a table, and from the full words in the 1-in-256 ties.
When p = k/256 (lam = 1, 1/3, 3, ...) the threshold falls on a byte edge and
there are no ties.

The chain steps the vacancy mask vac = occ ^ (2^n - 1), n = 2^d, not the
occupancy: a clear step at v is vac |= 2^v, with no test, and an occupy step
is one subset test, vac ^= 2^v when vac holds X[v] = N(v) + {v}, since v
can become occupied only when it and all its neighbours are vacant.  Each
snapshot turns vac back into the occupancy once.  The step tables hold
2^(d+1) integers of up to 2^d bits: about n^2/16 bytes of single-vertex
masks and n^2/9 of the masks X[v], 0.18 n^2 in all (767 MB at d = 16, where
ru_maxrss reads 753 MB), so larger d is refused before anything is built.

A long run splits across two processes, the only way the sampler uses a
second CPU: sample_chains runs its chains one after another.  When at least
_SPLIT_MIN_STEPS steps follow the burn-in, two CPUs are usable and
d <= _SPLIT_MAX_DIM, glauber_run forks once, before the burn-in.  The child
discards the draws up to a snapshot step H near the middle while the parent
runs the burn-in, and the parent then hands it the post-burn-in state in one
message on a pipe.  The child runs the chain from H starting at that state,
writes each snapshot as a fixed-size record of a shared anonymous mapping
and exits.  Two copies of the chain that use the same draws meet within a
few thousand steps (the grand coupling of Propp and Wilson), so the parent
steps the true chain past H until the child has exited cleanly and the two
are equal at a snapshot, and then yields the child's records, which are
exact from there on.  If no snapshot matches, or the child fails, the
parent finishes alone: the snapshots never depend on the split.

Defects are the distance-2 components of the minority side of a sample
(ties resolved to the odd side); their type statistics are compared against
census predictions m_T = n_T * w_T.  Poisson goodness-of-fit p-values come
from the pure-Python chi-square tail in `chisq`, so the sampler loads
neither numpy nor scipy.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import random
import signal
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Iterator, NamedTuple

from . import hypercube as hc
from . import polymers as pm
from .chisq import chdtrc

SAMPLER_MAX_DIM = 16  # the step tables take 0.18 n^2 bytes; d = 17 would need ~3 GB


class ChainState(NamedTuple):
    """A snapshot of the chain: occupancy bitmask plus running tallies."""

    d: int
    step: int
    occupancy: int  # bit v set <=> vertex v in I
    size: int
    odd_size: int
    even_size: int


class DefectReport(NamedTuple):
    """Defect decomposition of one snapshot."""

    step: int
    side: str  # "odd" | "even" (minority, ties to odd)
    type_counts: tuple[tuple[str, int], ...]  # sorted (type key, count)
    total_size: int  # sum of defect sizes
    nbhd_total: int  # sum of |N(S)| over defects


@lru_cache(maxsize=hc.MAX_DIM)  # one entry per dimension; 4 MB in all
def _parity_mask(d: int) -> int:
    mask = 0
    for v in range(1 << d):
        if hc.parity(v):
            mask |= 1 << v
    return mask


def check_sampler_dim(d: int) -> None:
    hc.check_dim(d)
    if d > SAMPLER_MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the sampler's maximum "
                         f"{SAMPLER_MAX_DIM}")


def default_burn_in(d: int) -> int:
    # empirical choice: ten sweeps times dimension
    return 10 * (1 << d) * d


# steps per bulk draw: a 197 KB draw of 3 * 2^14 words and 64 KB of codes.
# Whole d = 10 chains (lam = 1, 4.2M steps) ran within 1% of one another
# at 2^12, 2^13 and 2^14 steps per block and 2-3% slower at 2^15
_DRAW_BLOCK = 1 << 14

# A run splits across two processes when its post-burn-in steps reach
# _SPLIT_MIN_STEPS and at least _SPLIT_MIN_SNAPSHOTS snapshots follow the
# split step H.  Refcount changes dirty the step tables' pages, so each
# process soon holds its own copy: the child's Private_Dirty
# (/proc/PID/smaps_rollup) read 8 MB at d = 12, 52 MB at d = 14 and 458 MB
# at d = 16, so runs at d > _SPLIT_MAX_DIM stay in one process.
_SPLIT_MIN_STEPS = 1 << 20
_SPLIT_MIN_SNAPSHOTS = 8
_SPLIT_MAX_DIM = 14
# _SPLIT_BALANCE is r = c_discard / c_step, the cost of discarding a step's
# draws against that of the step: 0.013 against 0.112 us at d = 10, lam = 1.
# In units of c_step, the parent runs the burn-in B and steps on to H, where
# it is at time H.  The child, forked at time 0, discards H steps' draws by
# time rH, but it starts stepping only when it also holds the state the
# parent hands it at time B, so at max(B, rH), and it ends last - H later.
# Both finish together when H = max(B, rH) + last - H, that is at
# H = last / (2 - r) where rH >= B and at H = (B + last) / 2 where rH <= B.
# The right side less H falls as H grows, so H is the larger of the two, and
# the cases switch exactly where rH = B.  A larger d makes a step dearer and
# r smaller, but the burn-in of 10 d 2^d steps then sets H.  Against a fork
# after the burn-in with H = (B + last) / 1.9, cold `sample --lam 1 --thin
# 4096` runs fell from 328 to 310 ms at d = 10 (1000 samples, seed 7; the
# discard case), 292 to 266 ms at d = 12 and 1331 to 1255 ms at d = 14 (400
# samples, seed 3; the burn-in case), medians of 15, 11 and 7 on 2 vCPUs.
# A balance on the discard alone would leave the child at d = 12 and 14
# blocked on a burn-in that outlasts its discard.
_SPLIT_BALANCE = 0.013 / 0.112


def _coin_table(t: int) -> bytes:
    """The coin c = K / 2^53 against the threshold c < p <=> K < t, decided
    from w1's top byte i = K >> 45: entry i is 1 (accept) below t >> 45, 0
    (refuse) above it, and 2 (a tie, settled from the full words) at
    t >> 45 unless t is a multiple of 2^45, as for p = k/256, when every K
    with that top byte is at least t and the entry is 0."""
    tie = t >> 45 if t & (1 << 45) - 1 else -1
    return bytes(1 if i < t >> 45 else 2 if i == tie else 0
                 for i in range(256))


def _step_codes(seed: int, d: int, p: float, steps: int,
                skip: int = 0) -> Iterator[memoryview]:
    """The chain's draws for steps skip + 1 .. steps, in blocks of at most
    _DRAW_BLOCK steps; the draws of the first `skip` steps are discarded a
    block at a time.

    A step that draws vertex v and coin c is coded v + 2^d * [c < p].
    """
    rng = random.Random(seed)
    # a step takes three 32-bit words, so any whole number of steps' words
    # leaves the generator where the per-step loop would
    rng.getrandbits(96 * (skip % _DRAW_BLOCK))
    for _ in range(skip // _DRAW_BLOCK):
        rng.getrandbits(96 * _DRAW_BLOCK)
    steps -= skip
    # c = K / 2^53 with K an integer, so c < p <=> K < T = ceil(p * 2^53)
    t = math.ceil(p * 9007199254740992.0)
    table = _coin_table(t)
    # the low d + 1 bits of every 4-byte lane of a full block, which serves
    # a short last block too
    mask = int.from_bytes(((1 << (d + 1)) - 1).to_bytes(4, "little")
                          * min(steps, _DRAW_BLOCK), "little")
    while steps > 0:
        b = min(steps, _DRAW_BLOCK)
        buf = rng.getrandbits(96 * b).to_bytes(12 * b, "little")
        add = bytearray(buf[7::12].translate(table))
        i = add.find(2)
        while i >= 0:
            w1 = int.from_bytes(buf[12 * i + 4:12 * i + 8], "little")
            w2 = int.from_bytes(buf[12 * i + 8:12 * i + 12], "little")
            add[i] = ((w1 >> 5) << 26 | w2 >> 6) < t
            i = add.find(2, i + 1)
        # lane [B2, B3, add, 0] read as a little-endian word is
        # (w0 >> 16) + 2^16 * add; shifting right by 16 - d leaves the code
        # in its low d + 1 bits, and the mask clears the bits the shift
        # brings down from the next lane
        lanes = bytearray(4 * b)
        lanes[0::4] = buf[2::12]
        lanes[1::4] = buf[3::12]
        lanes[2::4] = add
        codes = int.from_bytes(lanes, "little") >> (16 - d) & mask
        # in host order the words read natively; a big-endian host holds
        # them last step first
        words = memoryview(codes.to_bytes(4 * b, sys.byteorder)).cast("I")
        yield words if sys.byteorder == "little" else words[::-1]
        steps -= b


def _snapshots(codes: Iterable[memoryview], bits: list[int], occupy: list[int],
               occ: int, done: int, first: int,
               thin: int) -> Iterator[tuple[int, int]]:
    """Step the chain from occupancy `occ` after `done` steps through the
    blocks of step codes `codes`, yielding (step, occupancy) at step `first`
    and every `thin` steps after it while the codes last.

    The loop steps the vacancy mask vac = occ ^ full, not the occupancy.
    `bits` and `occupy` are indexed by step code: code v < n clears v, one
    OR that sets v's bit of vac; code n + v occupies v when v and all its
    neighbours are vacant, that is when vac holds occupy[n + v], the mask of
    N(v) and v.  An occupied v fails that test, and occupying it would
    change nothing.
    """
    n = len(bits) // 2
    full = (1 << n) - 1
    vac = occ ^ full
    for block in codes:
        pos, stop = 0, len(block)
        while pos < stop:
            cut = min(stop, first - done)
            for c in block[pos:cut]:
                if c < n:
                    vac |= bits[c]
                elif vac & occupy[c] == occupy[c]:
                    vac ^= bits[c]
            pos = cut
            if done + cut == first:
                yield first, vac ^ full
                first += thin
        done += stop


def _split_step(d: int, burn_in: int, last: int, thin: int) -> int | None:
    """The snapshot step H from which a forked child runs the chain ahead, or
    None when the run stays in one process."""
    if (d > _SPLIT_MAX_DIM or last - burn_in < _SPLIT_MIN_STEPS
            or not hasattr(os, "fork")):
        return None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    h = max(last / (2 - _SPLIT_BALANCE), (burn_in + last) / 2)
    # h - burn_in >= (last - burn_in) / 2, so wherever the snapshot gate
    # passes, h rounds to a snapshot step after the burn-in
    h = burn_in + round((h - burn_in) / thin) * thin
    return h if (last - h) // thin >= _SPLIT_MIN_SNAPSHOTS else None


def _split_snapshots(chain: Iterator[tuple[int, int]],
                     ahead: Iterator[memoryview], bits: list[int],
                     occupy: list[int], h: int, last: int, thin: int,
                     ) -> Iterator[tuple[int, int]]:
    """The snapshots of `chain`, the first of them the state after the
    burn-in, with those after step h computed ahead by a child forked before
    the burn-in.

    The child takes the first block of `ahead`, the step codes after step h,
    which discards the draws up to h while the parent runs the burn-in.  The
    parent then writes the post-burn-in occupancy to a pipe as one message of
    nbytes = n/8 bytes, at most 2 KiB, less than PIPE_BUF, so the write is
    whole.  The child runs the chain from that occupancy after h steps with
    `bits` and `occupy` and writes its snapshot at step h + (k + 1) * thin as
    record k of a shared mapping, `nbytes` little-endian bytes at offset
    k * nbytes; it exits 0 only after the last record, and 1 if the pipe
    closes before the whole message.  The parent steps `chain` on and checks
    at each snapshot whether the child has exited.  The chain stepped from the
    true state at step h and the child's use the same draws, so once the two
    are equal at some snapshot they stay equal: after a child that exited 0,
    from the first snapshot equal to its record on, the records are yielded.
    If no pair is equal, or the child fails, `chain` yields the rest.
    """
    nbytes = (len(bits) // 2 + 7) // 8
    records = mmap.mmap(-1, (last - h) // thin * nbytes)
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        records.close()
        yield from chain
        return
    if pid == 0:
        # the child writes only records and never returns into the caller's
        # frames, whose stdio buffers and finally clauses are the parent's
        code = 1
        try:
            os.close(wfd)
            # the discard, which the parent's burn-in overlaps
            head = next(ahead)
            msg = b""
            while len(msg) < nbytes:
                part = os.read(rfd, nbytes - len(msg))
                if not part:
                    raise EOFError("no state after the burn-in")
                msg += part
            for _, x in _snapshots(itertools.chain((head,), ahead), bits,
                                   occupy, int.from_bytes(msg, "little"), h,
                                   h + thin, thin):
                records.write(x.to_bytes(nbytes, "little"))
            code = 0
        finally:
            os._exit(code)
    os.close(rfd)
    reaped = done = False
    try:
        try:
            post = next(chain)  # the burn-in
            os.write(wfd, post[1].to_bytes(nbytes, "little"))
        except BrokenPipeError:
            # the child failed before the handoff: it exits non-zero, so the
            # parent finishes alone
            pass
        finally:
            os.close(wfd)
        yield post
        for step, occ in chain:
            yield step, occ
            if not reaped:
                reaped, status = os.waitpid(pid, os.WNOHANG)
                done = reaped and status == 0
            end = (step - h) // thin * nbytes
            if done and step > h and (records[end - nbytes:end]
                                      == occ.to_bytes(nbytes, "little")):
                break
        else:
            return
        for end in range(end, len(records), nbytes):
            step += thin
            yield step, int.from_bytes(records[end:end + nbytes], "little")
    finally:
        if not reaped:
            # the child may still be stepping; a signal to one that has
            # exited but is not yet reaped is harmless
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        records.close()


def glauber_run(d: int, lam: Fraction, steps: int,
                burn_in: int | None = None, thin: int = 1, seed: int = 0,
                debug: bool = False, start: int = 0) -> Iterator[ChainState]:
    """Yield snapshots every `thin` steps after `burn_in`, up to `steps`.

    steps counts all attempted updates including burn-in, so steps == burn_in
    yields nothing.  The chain starts from the configuration `start`
    (default empty), which must be an independent set.  With `debug`, each
    snapshot is checked to be an independent set.
    """
    check_sampler_dim(d)
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    if burn_in is None:
        burn_in = default_burn_in(d)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if steps < burn_in:
        raise ValueError("steps must be at least burn_in")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    n = 1 << d
    if start < 0 or start >> n:
        raise ValueError("start configuration out of range")
    if not hc.is_independent(start, d):
        raise ValueError("start configuration is not an independent set")

    odd_mask = _parity_mask(d)
    p = float(lam / (1 + lam))
    bits = [1 << v for v in range(n)] * 2
    # N(v) and v, built in place: a second list would hold both lists of
    # masks at once, n^2/9 bytes more at the peak
    occupy = hc.neighbor_masks(d)
    for v in range(n):
        occupy[v] |= bits[v]
    occupy = [0] * n + occupy
    # steps after the last snapshot are never observed
    last = burn_in + (steps - burn_in) // thin * thin

    chain = _snapshots(_step_codes(seed, d, p, last), bits, occupy, start, 0,
                       burn_in, thin)
    # The child waits for the post-burn-in state so that it starts in the
    # true chain's phase.  At d = 10, lam = 1, thin 4096 and seeds 7 and
    # 100-103, a child started at H from the empty set met the true chain at
    # one seed (after 6 snapshots); at the other four it fell into the other
    # phase and had not met it by the last of 472 snapshots.  From the
    # post-burn-in state it met after 2-5 snapshots.
    h = _split_step(d, burn_in, last, thin)
    if h is not None:
        chain = _split_snapshots(chain, _step_codes(seed, d, p, last, h), bits,
                                 occupy, h, last, thin)
    try:
        # the first snapshot is the state after the burn-in, which is not
        # yielded
        next(chain, None)
        for step, occ in chain:
            if debug:
                assert hc.is_independent(occ, d), \
                    f"dependent state at step {step}"
            size = occ.bit_count()
            odd = (occ & odd_mask).bit_count()
            yield ChainState(d=d, step=step, occupancy=occ, size=size,
                             odd_size=odd, even_size=size - odd)
    finally:
        chain.close()


def extract_defects(state: ChainState, debug: bool = False) -> DefectReport:
    """Classify the distance-2 components of the snapshot's minority side."""
    d = state.d
    odd_mask = _parity_mask(d)
    if state.odd_size <= state.even_size:
        side, bits = "odd", state.occupancy & odd_mask
    else:
        side, bits = "even", state.occupancy & ~odd_mask
    if not bits:
        return DefectReport(step=state.step, side=side, type_counts=(),
                            total_size=0, nbhd_total=0)
    vertices = []
    while bits:
        low = bits & -bits
        vertices.append(low.bit_length() - 1)
        bits ^= low
    comps = hc._square_components(vertices, d)
    if debug:
        assert sorted(v for c in comps for v in c) == vertices
    counts: dict[str, int] = {}
    nbhd_total = 0
    for comp in comps:
        if len(comp) <= pm.MAX_TYPE_SIZE:
            t = pm.DefectType(*pm._type_of(*pm._shape(comp)))
            key = t.key
            nbhd_total += t.nbhd_size(d)
        else:
            key = f"s{len(comp)}:big"
            nbhd_total += len(hc._neighborhood(comp, d))
        counts[key] = counts.get(key, 0) + 1
    return DefectReport(
        step=state.step, side=side,
        type_counts=tuple(sorted(counts.items())),
        total_size=len(vertices), nbhd_total=nbhd_total)


# -- statistics ---------------------------------------------------------------------


def _float_sum(xs: Iterable[float]) -> float:
    """The floats added left to right, rounded at each step, as sum() adds
    them before Python 3.12; from 3.12 sum() compensates the rounding, which
    moves the last digits of the printed statistics."""
    return reduce(add, xs, 0)


def _mean_var(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    m = _float_sum(xs) / n
    if n < 2:
        return m, 0.0
    return m, _float_sum((x - m) ** 2 for x in xs) / (n - 1)


def _poisson_pmf(k: int, mean: float) -> float:
    """The Poisson(mean) probability of k as the float expression
    exp(-mean) * mean^k / k!, which the pinned sample digests depend on, and
    as exp(k log mean - mean - lgamma(k+1)) where mean^k or k! is too large
    for a float, as k! is for every k > 170."""
    if k <= 170:
        try:
            return math.exp(-mean) * mean ** k / math.factorial(k)
        except OverflowError:  # mean ** k
            pass
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) if mean > 0 else 0.0


def _pooled_bins(counts: list[int], mean: float) -> tuple[list[int], list[float]]:
    """Observed and expected counts of the Poisson(mean) bins k = 0 .. max(counts)
    and k > max(counts), pooled until every expected count is at least 5.

    The two top bins are merged while either expects less than 5, then
    likewise the two bottom bins.  The Poisson pmf is unimodal, so each bin
    between the second and the second-to-last expects at least the smaller
    of those two, and so at least 5, unless one bin is left.  Last, the two
    top bins are merged while more than 41 remain, so df = bins - 1 <= 40,
    the range of `chisq.chdtrc`; that only grows the top bin.

    The pmf values come from _poisson_pmf, which no count overflows.
    """
    n = len(counts)
    top = max(counts)
    probs = []
    acc = 0.0
    for k in range(top + 1):
        p = _poisson_pmf(k, mean)
        probs.append(p)
        acc += p
    probs.append(max(1.0 - acc, 0.0))  # tail bucket >= top+1

    observed = [0] * (top + 2)
    for c in counts:
        observed[c] += 1
    while len(probs) > 1 and n * min(probs[-2:]) < 5.0:
        p, o = probs.pop(), observed.pop()
        probs[-1] += p
        observed[-1] += o
    while len(probs) > 1 and n * min(probs[:2]) < 5.0:
        p, o = probs.pop(0), observed.pop(0)
        probs[0] += p
        observed[0] += o
    while len(probs) > 41:
        p, o = probs.pop(), observed.pop()
        probs[-1] += p
        observed[-1] += o
    return observed, [n * p for p in probs]


def _poisson_gof(counts: list[int], mean: float) -> dict | None:
    """Chi-square goodness of fit against Poisson(mean) over `_pooled_bins`;
    None when fewer than two bins survive."""
    observed, expected = _pooled_bins(counts, mean)
    if len(expected) < 2:
        return None
    stat = 0.0
    for o, e in zip(observed, expected):
        stat += (o - e) ** 2 / e
    df = len(expected) - 1
    # chdtrc(df, x) is what scipy.stats.chi2.sf(x, df) evaluates for x >= 0
    return {"stat": stat, "df": df, "p": chdtrc(df, stat),
            "bins": len(expected)}


def _moments(xs: list[float]) -> dict:
    n = len(xs)
    m, v = _mean_var(xs)
    sd = math.sqrt(v) if v > 0 else 0.0
    skew = kurt = 0.0
    if sd > 0:
        skew = _float_sum((x - m) ** 3 for x in xs) / n / sd ** 3
        kurt = _float_sum((x - m) ** 4 for x in xs) / n / sd ** 4 - 3.0
    return {"mean": m, "var": v, "skew": skew, "excess_kurtosis": kurt}


class SamplerSummary(NamedTuple):
    """Aggregated defect statistics against census predictions."""

    d: int
    lam: str
    samples: int
    size_stats: dict
    per_type: dict  # key -> stats dict
    clt: dict  # moments of total size and neighborhood size
    joint: dict | None

    def to_json(self) -> dict:
        return {
            "d": self.d, "lam": self.lam, "samples": self.samples,
            "size_stats": self.size_stats, "per_type": self.per_type,
            "clt": self.clt, "joint": self.joint,
        }


def defect_statistics(states: Iterable[ChainState],
                      reports: Iterable[DefectReport],
                      cen: pm.Census, lam: Fraction) -> SamplerSummary:
    """Compare sampled defect-type counts with m_T = n_T * w_T predictions.

    Emits per-type mean/variance with z-scores against the null standard
    error sqrt(m_T/n), Poisson goodness of fit where the pooled bins allow
    it, CLT-style moment diagnostics for the total defect size and
    neighborhood, and the correlation between the two commonest types.
    """
    states = list(states)
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two samples for statistics")
    if len(states) != len(reports):
        raise ValueError("states and reports must align")
    n = len(reports)
    lam = Fraction(lam)

    counts = [dict(r.type_counts) for r in reports]
    census_keys = cen.by_key()
    keys = sorted({k for c in counts for k in c} | set(census_keys))
    columns = {key: [c.get(key, 0) for c in counts] for key in keys}
    per_type: dict[str, dict] = {}
    for key in keys:
        mean, var = _mean_var([float(x) for x in columns[key]])
        entry: dict = {"mean": mean, "var": var}
        if key in census_keys:
            m_t = float(cen.expected_type_count(key, lam))
            se = math.sqrt(m_t / n)
            entry.update({
                "m_T": m_t,
                "null_se": se,
                "z": (mean - m_t) / se if se > 0 else 0.0,
                "var_over_mean": var / mean if mean > 0 else None,
            })
            if m_t < 20:
                entry["poisson_gof"] = _poisson_gof(columns[key], m_t)
        per_type[key] = entry

    sm, sv = _mean_var([float(s.size) for s in states])
    size_stats = {"mean": sm, "var": sv, "se": math.sqrt(sv / n),
                  "odd_mean": _float_sum(float(s.odd_size) for s in states) / n,
                  "even_mean": _float_sum(float(s.even_size) for s in states) / n}

    clt = {"total_size": _moments([float(r.total_size) for r in reports]),
           "nbhd_total": _moments([float(r.nbhd_total) for r in reports])}

    joint = None
    totals = {k: sum(columns[k]) for k in keys}
    observed = [k for k in keys if totals[k] > 0]
    observed.sort(key=lambda k: -totals[k])
    if len(observed) >= 2:
        a, b = observed[:2]
        ma, va = per_type[a]["mean"], per_type[a]["var"]
        mb, vb = per_type[b]["mean"], per_type[b]["var"]
        cov = _float_sum((x - ma) * (y - mb)
                         for x, y in zip(columns[a], columns[b])) / (n - 1)
        corr = cov / math.sqrt(va * vb) if va > 0 and vb > 0 else 0.0
        joint = {"types": [a, b], "cov": cov, "corr": corr}

    return SamplerSummary(
        d=states[0].d, lam=str(lam), samples=n, size_stats=size_stats,
        per_type=per_type, clt=clt, joint=joint)


def reports_to_csv(states: Iterable[ChainState],
                   reports: Iterable[DefectReport]) -> str:
    """CSV log: step, |I|, |I on odd|, |I on even|, defect type counts."""
    lines = ["step,size,odd,even,defects"]
    for s, r in zip(states, reports):
        defects = ";".join(f"{k}:{c}" for k, c in r.type_counts)
        lines.append(f"{s.step},{s.size},{s.odd_size},{s.even_size},{defects}")
    return "\n".join(lines) + "\n"


def sample_chains(d: int, lam: Fraction, steps: int,
                  burn_in: int | None = None, thin: int = 1, seed: int = 0,
                  chains: int = 1,
                  debug: bool = False) -> list[list[ChainState]]:
    """Run independent chains one after another, chain i with seed
    seed + 1000003*i; each is a `glauber_run`, so a long one splits across
    two CPUs."""
    if chains < 1:
        raise ValueError("need at least one chain")
    return [list(glauber_run(d, lam, steps, burn_in, thin,
                             seed + 1000003 * i, debug))
            for i in range(chains)]


def two_chain_diagnostic(d: int, lam: Fraction, steps: int, seed: int = 0,
                         thin: int | None = None) -> dict:
    """Crude mixing check: chains from the two fully-packed ground states.

    Tracks the odd-minus-even occupancy imbalance of both chains; once the
    chains have each visited both signs, the run has at least crossed
    between the two modes.  Reported, never asserted.
    """
    check_sampler_dim(d)
    n = 1 << d
    if thin is None:
        thin = n
    odd_mask = _parity_mask(d)
    even_mask = ((1 << n) - 1) ^ odd_mask
    runs = []
    for tag, start in (("from_odd", odd_mask), ("from_even", even_mask)):
        trace = []
        for st in glauber_run(d, lam, steps, burn_in=0, thin=thin,
                              seed=seed, start=start):
            trace.append((st.step, st.odd_size - st.even_size))
        runs.append((tag, trace))
    out = {"d": d, "lam": str(Fraction(lam)), "steps": steps, "thin": thin}
    for tag, trace in runs:
        signs = {1 if imb > 0 else (-1 if imb < 0 else 0) for _, imb in trace}
        out[tag] = {
            "snapshots": len(trace),
            "final_imbalance": trace[-1][1] if trace else None,
            "visited_both_modes": (1 in signs) and (-1 in signs),
        }
    return out
