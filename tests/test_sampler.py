"""Glauber dynamics: invariants, determinism, and defect extraction."""

import collections
import math
import os
import random
from fractions import Fraction

import pytest

from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount import sampler as sm


def run(d=3, lam=Fraction(1), steps=4000, burn_in=200, thin=20, seed=5, **kw):
    return list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                               seed=seed, **kw))


def reference_run(d, lam, steps, burn_in, thin, seed, start=0, kinds=None,
                  skip=0):
    """The cross-check for glauber_run: the chain stepped one draw at a time.

    Each step calls random.Random(seed).getrandbits(d) and then .random(),
    and |I| and |I on odd| are tallied step by step.  glauber_run replays the
    same draws in bulk and must yield the same snapshots.  A Counter passed
    as `kinds` counts the steps of each kind.  With `skip`, the draws of
    steps 1 .. skip are discarded and the chain runs from `start` after step
    `skip`, as a split run's child does.
    """
    nbr = hc.neighbor_masks(d)
    odd_mask = sum(1 << v for v in hc.odd_side(d))
    p = float(Fraction(lam) / (1 + Fraction(lam)))
    rng = random.Random(seed)
    for _ in range(skip):
        rng.getrandbits(d)
        rng.random()
    occ, size, odd = start, start.bit_count(), (start & odd_mask).bit_count()
    out = []
    for step in range(skip + 1, steps + 1):
        v = rng.getrandbits(d)
        coin = rng.random()
        bit = 1 << v
        newbit = 0 if occ & nbr[v] else (1 if coin < p else 0)
        old = occ & bit
        if kinds is not None:
            kinds[step_kind(coin < p, old, occ & nbr[v])] += 1
        if newbit and not old:
            occ |= bit
            size += 1
            odd += 1 if bit & odd_mask else 0
        elif old and not newbit:
            occ &= ~bit
            size -= 1
            odd -= 1 if bit & odd_mask else 0
        if step > burn_in and (step - burn_in) % thin == 0:
            out.append(sm.ChainState(d=d, step=step, occupancy=occ, size=size,
                                     odd_size=odd, even_size=size - odd))
    return out


def step_kind(occupy, occupied, blocked):
    if not occupy:
        return "clear occupied" if occupied else "clear vacant"
    if occupied:
        return "occupy occupied"
    return "occupy blocked" if blocked else "occupy vacant"


SEEDS = (0, 7, -3, 2 ** 70 + 1)
LAMS = (Fraction(1), Fraction(1, 3), Fraction(2), Fraction(1, 20))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 12])
def test_bulk_draws_match_per_step_reference(d):
    # p = 1/4 and 1/21 are not exact in binary, so coin < p is tested at a
    # rounded threshold; the odd side fully packed is a nonzero start
    full_odd = sum(1 << v for v in hc.odd_side(d))
    kinds = collections.Counter()
    for lam in LAMS:
        for seed in SEEDS:
            for burn_in, thin, start in ((50, 7, 0), (0, 1, full_odd)):
                steps = burn_in + 1500
                got = list(sm.glauber_run(d, lam, steps, burn_in=burn_in,
                                          thin=thin, seed=seed, start=start))
                want = reference_run(d, lam, steps, burn_in, thin, seed, start,
                                     kinds if start else None)
                assert got == want, (d, lam, seed, burn_in, thin, start)
    # from the packed start every branch of the vacancy-mask step ran: a
    # clear step at an occupied and at a vacant vertex, and an occupy step at
    # an occupied vertex, at one with an occupied neighbour and at one that
    # becomes occupied
    assert len(kinds) == 5, kinds


def reference_draws(seed, d, steps):
    rng = random.Random(seed)
    return [(rng.getrandbits(d), rng.random()) for _ in range(steps)]


def reference_codes(seed, d, p, steps):
    return [v + (1 << d) * (c < p) for v, c in reference_draws(seed, d, steps)]


def first_coin(seed):
    rng = random.Random(seed)
    rng.getrandbits(32)
    return rng.random()


@pytest.mark.parametrize("d", range(1, sm.SAMPLER_MAX_DIM + 1))
def test_step_codes_match_per_step_draws(d):
    # a full block and a short last one; p = 5e-324 and 1 - 2^-53 put the
    # threshold at the ends of the top-byte table, and 1/2 on a byte edge.
    # With p the first step's coin c, or the float just above it, the first
    # step ties on w1's top byte and only the full words decide c < p.
    steps = sm._DRAW_BLOCK + 1000
    seed = 11 * d
    c = first_coin(seed)
    for p in (1 / 2, 1 / 4, 1 / 21, 1000 / 1001, 5e-324, 1 - 2 ** -53,
              c, math.nextafter(c, 1.0)):
        blocks = list(sm._step_codes(seed, d, p, steps))
        assert [len(b) for b in blocks] == [sm._DRAW_BLOCK, 1000]
        codes = [x for b in blocks for x in b]
        assert codes == reference_codes(seed, d, p, steps), (d, p)
        assert codes[0] >> d == (c < p)
    # the draws of a part of a block and a full block discarded
    skip = sm._DRAW_BLOCK + 5
    rest = [x for b in sm._step_codes(seed, d, 1 / 2, steps, skip) for x in b]
    assert rest == reference_codes(seed, d, 1 / 2, steps)[skip:]


@pytest.mark.parametrize("lam,tie", [
    (Fraction(1), False), (Fraction(1, 3), False), (Fraction(3), False),
    (Fraction(1, 255), False), (Fraction(2), True), (Fraction(1, 20), True)])
def test_coin_ties_unless_p_is_a_multiple_of_one_256th(lam, tie):
    # p = k/256 puts the threshold t = ceil(p 2^53) on a top-byte edge, so a
    # coin whose top byte is t >> 45 is refused from that byte alone and the
    # full words are never read; for other p such coins fall on both sides
    p = float(lam / (1 + lam))
    t = math.ceil(p * 2 ** 53)
    assert (2 in sm._coin_table(t)) == tie
    d, seed, steps = 7, 5, 20000
    # about 1 in 256 coins has the threshold's top byte
    edge = {c < p for _, c in reference_draws(seed, d, steps)
            if int(c * 256) == t >> 45}
    assert edge == ({False, True} if tie else {False})
    got = [x for b in sm._step_codes(seed, d, p, steps) for x in b]
    assert got == reference_codes(seed, d, p, steps)


def test_bulk_draws_match_reference_across_draw_blocks():
    # one snapshot interval spans two draw blocks, the run ends mid-block,
    # and steps past the last snapshot are never observed
    thin = sm._DRAW_BLOCK + 123
    steps = 3 * thin + 1000
    for seed in (7, 2 ** 70 + 1):
        got = list(sm.glauber_run(6, Fraction(1, 3), steps, burn_in=0,
                                  thin=thin, seed=seed))
        assert [s.step for s in got] == [thin, 2 * thin, 3 * thin]
        assert got == reference_run(6, Fraction(1, 3), steps, 0, thin, seed)


def test_coin_is_compared_at_full_precision():
    # set p to the first step's coin c, and to the floats just beside it; the
    # first step then accepts exactly when c < p, so a coin off by one ulp
    # or a comparison of c <= p would show at the first snapshot
    for seed in range(40):
        rng = random.Random(seed)
        rng.getrandbits(4)
        c = rng.random()
        for p in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0)):
            lam = Fraction(p) / (1 - Fraction(p))
            got = list(sm.glauber_run(4, lam, 3, burn_in=0, thin=1, seed=seed))
            assert got == reference_run(4, lam, 3, 0, 1, seed), (seed, p)
            assert got[0].size == (1 if c < p else 0)


@pytest.fixture
def split(monkeypatch):
    """Gates low enough for runs of a few thousand steps to split, on any
    machine.  Returns a dict that records each fork's child pid ("forks")
    and the steps whose draws this process made from step 0 on ("drawn")."""
    monkeypatch.setattr(sm, "_SPLIT_MIN_STEPS", 1000)
    monkeypatch.setattr(sm, "_SPLIT_MIN_SNAPSHOTS", 4)
    monkeypatch.setattr(sm, "_DRAW_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    seen = {"forks": [], "drawn": 0}
    fork, step_codes = os.fork, sm._step_codes

    def recording_fork():
        pid = fork()
        if pid:
            seen["forks"].append(pid)
        return pid

    def counted_codes(seed, d, p, steps, skip=0):
        for block in step_codes(seed, d, p, steps, skip):
            if not skip:
                seen["drawn"] += len(block)
            yield block

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sm, "_step_codes", counted_codes)
    return seen


def blocking_wait(monkeypatch):
    """Make the parent's poll of the child wait for its exit, so that the
    child has always finished before the parent's first snapshot after H."""
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: waitpid(pid, 0))


SPLIT_RUNS = [  # d, lam, seed, burn_in, thin, steps, start on the odd side
    (4, Fraction(1, 20), 0, 50, 3, 50 + 3 * 700, False),
    (5, Fraction(1), 7, 200, 10, 200 + 10 * 300, False),
    (6, Fraction(1, 3), -3, 0, 1, 3000, True),
    (8, Fraction(2), 2 ** 70 + 1, 1000, 50, 1000 + 50 * 200, False),
]


@pytest.mark.parametrize("d,lam,seed,burn_in,thin,steps,odd", SPLIT_RUNS)
def test_split_run_matches_reference(split, monkeypatch, d, lam, seed,
                                     burn_in, thin, steps, odd):
    start = sum(1 << v for v in hc.odd_side(d)) if odd else 0
    want = reference_run(d, lam, steps, burn_in, thin, seed, start)
    kw = dict(burn_in=burn_in, thin=thin, seed=seed, start=start, debug=True)
    # the parent reads the records once the child has exited, so either
    # process may run ahead
    assert list(sm.glauber_run(d, lam, steps, **kw)) == want
    assert len(split["forks"]) == 1
    # with the child done before H, the parent stops stepping at the first
    # snapshot after H where the chains meet, in the draw block that holds
    # it; with no meeting it steps to the end
    h = sm._split_step(d, burn_in, steps, thin)
    post = reference_run(d, lam, burn_in, 0, burn_in, seed, start)[-1] \
        .occupancy if burn_in else start
    ahead = reference_run(d, lam, steps, h, thin, seed, post, skip=h)
    meet = next((a.step for a, b in zip(ahead, want[-len(ahead):])
                 if a == b), None)
    blocking_wait(monkeypatch)
    split["drawn"] = 0
    assert list(sm.glauber_run(d, lam, steps, **kw)) == want
    assert len(split["forks"]) == 2
    assert split["drawn"] == (steps if meet is None else
                              min(steps, -(-meet // sm._DRAW_BLOCK)
                                  * sm._DRAW_BLOCK))


def test_split_run_without_a_meeting_finishes_alone(split, monkeypatch):
    # at lam = 8 the chain from the packed even side stays even, and the
    # child, started from the packed odd side, stays odd
    d, lam, steps = 6, Fraction(8), 4000
    odd = sum(1 << v for v in hc.odd_side(d))
    even = ((1 << (1 << d)) - 1) ^ odd
    # the parent's one write is the handoff, which here carries the odd side
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data:
                        write(fd, odd.to_bytes(len(data), "little")))
    blocking_wait(monkeypatch)
    got = list(sm.glauber_run(d, lam, steps, burn_in=0, thin=20, seed=1,
                              start=even))
    assert got == reference_run(d, lam, steps, 0, 20, 1, even)
    assert all(s.even_size > s.odd_size for s in got)
    assert len(split["forks"]) == 1 and split["drawn"] == steps


@pytest.mark.parametrize("blocks", [0, 3, None])
def test_split_run_survives_a_failing_child(split, monkeypatch, blocks):
    # the child raises before its first record, after a few, or (None) after
    # writing every record: the parent never reads the records of a child
    # that exits non-zero
    parent = os.getpid()
    step_codes = sm._step_codes

    def failing_codes(seed, d, p, steps, skip=0):
        child = os.getpid() != parent
        for i, block in enumerate(step_codes(seed, d, p, steps, skip)):
            if child and i == blocks:
                raise RuntimeError("child fails")
            yield block
        if child:
            raise RuntimeError("child fails")

    monkeypatch.setattr(sm, "_step_codes", failing_codes)
    blocking_wait(monkeypatch)
    d, lam, seed, burn_in, thin, steps, _ = SPLIT_RUNS[1]
    got = list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                              seed=seed))
    assert got == reference_run(d, lam, steps, burn_in, thin, seed)
    assert len(split["forks"]) == 1 and split["drawn"] == steps
    monkeypatch.undo()  # a left child would make the blocking wait hang
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_burn_in_leaves_no_process(split, monkeypatch):
    # the parent raises during the burn-in, after the fork and before the
    # handoff, while the child discards draws or waits for the state
    parent = os.getpid()
    step_codes = sm._step_codes

    def failing_codes(seed, d, p, steps, skip=0):
        for i, block in enumerate(step_codes(seed, d, p, steps, skip)):
            if os.getpid() == parent and i == 3:
                raise RuntimeError("burn-in fails")
            yield block

    monkeypatch.setattr(sm, "_step_codes", failing_codes)
    d, lam, seed, burn_in, thin, steps, _ = SPLIT_RUNS[3]
    assert burn_in > 4 * sm._DRAW_BLOCK
    with pytest.raises(RuntimeError, match="burn-in fails"):
        list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                            seed=seed))
    assert len(split["forks"]) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_child_gone_before_the_handoff_breaks_the_pipe(split, monkeypatch):
    # the child fails as it starts its discard, and the parent's burn-in
    # waits for it to exit, so the handoff finds no reader
    parent = os.getpid()
    step_codes = sm._step_codes

    def failing_codes(seed, d, p, steps, skip=0):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        # wait for the child's exit, and leave it to be reaped
        os.waitid(os.P_PID, split["forks"][-1], os.WEXITED | os.WNOWAIT)
        yield from step_codes(seed, d, p, steps, skip)

    broken = []
    write = os.write

    def recording_write(fd, data):
        try:
            return write(fd, data)
        except BrokenPipeError:
            broken.append(len(data))
            raise

    monkeypatch.setattr(sm, "_step_codes", failing_codes)
    monkeypatch.setattr(os, "write", recording_write)
    d, lam, seed, burn_in, thin, steps, _ = SPLIT_RUNS[1]
    got = list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                              seed=seed))
    assert broken == [(1 << d) // 8]
    assert got == reference_run(d, lam, steps, burn_in, thin, seed)
    assert len(split["forks"]) == 1 and split["drawn"] == steps
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_step_balances_discard_and_burn_in(monkeypatch):
    # the child starts stepping at max(B, r H) step-times and the parent
    # reaches H at H: with r H >= B (d = 10) H = last / (2 - r), and with
    # r H <= B (d = 12, and d = 14, where last / (2 - r) < B) H = (B + last)/2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    r, thin = sm._SPLIT_BALANCE, 4096
    for d, samples, regime in ((10, 1000, "discard"), (12, 400, "burn-in"),
                               (14, 400, "burn-in")):
        b = sm.default_burn_in(d)
        last = b + samples * thin
        target = last / (2 - r) if regime == "discard" else (b + last) / 2
        assert (r * target >= b) == (regime == "discard")
        h = sm._split_step(d, b, last, thin)
        assert h is not None and (h - b) % thin == 0
        assert b < h and abs(h - target) <= thin / 2, (d, h, target)
        assert (last - h) // thin >= sm._SPLIT_MIN_SNAPSHOTS
    # at r H = B the two cases give one H
    last = 10 ** 7
    b = r * last / (2 - r)
    assert math.isclose(last / (2 - r), (b + last) / 2)
    # no split past _SPLIT_MAX_DIM, below _SPLIT_MIN_STEPS, or with too few
    # snapshots after H
    assert sm._split_step(sm._SPLIT_MAX_DIM + 1, 0, 1 << 24, 4096) is None
    assert sm._split_step(10, 0, sm._SPLIT_MIN_STEPS - 1, 1) is None
    assert sm._split_step(10, 0, 1 << 21, 1 << 18) is None


def test_closing_a_split_run_early_leaves_no_process(split):
    run = sm.glauber_run(8, Fraction(1), 10 ** 6, burn_in=100, thin=100,
                         seed=3)
    next(run)
    assert len(split["forks"]) == 1
    run.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("where", ["one cpu", "no affinity"])
def test_split_needs_two_cpus(split, monkeypatch, where):
    if where == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    d, lam, seed, burn_in, thin, steps, _ = SPLIT_RUNS[1]
    got = list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                              seed=seed))
    assert got == reference_run(d, lam, steps, burn_in, thin, seed)
    assert split["drawn"] == steps


def test_steps_equal_to_burn_in_yields_nothing():
    assert run(steps=200, burn_in=200) == []
    assert reference_run(3, Fraction(1), 200, 200, 20, 5) == []


def test_snapshots_are_independent_sets_with_consistent_tallies():
    states = run(debug=True)
    assert states, "expected at least one snapshot"
    for st in states:
        assert hc.is_independent(st.occupancy, 3)
        assert st.size == st.occupancy.bit_count()
        assert st.odd_size + st.even_size == st.size
        odd_bits = sum(1 for v in range(8)
                       if st.occupancy >> v & 1 and hc.parity(v))
        assert st.odd_size == odd_bits


def test_snapshot_schedule():
    states = run(steps=1000, burn_in=100, thin=30)
    assert [st.step for st in states] == list(range(130, 1001, 30))


def test_same_seed_reproduces_trajectory():
    a, b = run(seed=42), run(seed=42)
    assert [(s.step, s.occupancy) for s in a] == [(s.step, s.occupancy) for s in b]
    c = run(seed=43)
    assert [s.occupancy for s in a] != [s.occupancy for s in c]


def test_input_validation():
    with pytest.raises(ValueError):
        run(lam=Fraction(0))
    with pytest.raises(ValueError):
        run(steps=10, burn_in=100)
    with pytest.raises(ValueError):
        run(thin=0)
    # it once yielded snapshots at steps -4..-1 and replayed draws out of order
    with pytest.raises(ValueError, match="burn_in"):
        run(steps=20, burn_in=-5, thin=1)
    with pytest.raises(ValueError):
        list(sm.glauber_run(2, Fraction(1), 100, burn_in=0, start=0b0011))


def test_dimension_above_sampler_max_is_refused():
    # the step tables grow as 4^d: 770 MB of RSS at d = 16, gigabytes beyond
    d = sm.SAMPLER_MAX_DIM + 1
    assert d <= hc.MAX_DIM
    with pytest.raises(ValueError, match="sampler's maximum"):
        run(d=d, steps=2, burn_in=0)
    with pytest.raises(ValueError, match="sampler's maximum"):
        sm.two_chain_diagnostic(d, Fraction(1), steps=2)


def test_start_configuration_is_respected():
    # burn_in=0, thin=1: the first snapshot is one step from `start`
    full_odd = 0
    for v in hc.odd_side(3):
        full_odd |= 1 << v
    states = list(sm.glauber_run(3, Fraction(1), 1, burn_in=0, thin=1,
                                 seed=0, start=full_odd))
    assert len(states) == 1
    assert abs(states[0].size - 4) <= 1


def test_extract_defects_identifies_planted_polymer():
    # one odd vertex among an otherwise even-side configuration
    d = 4
    odd_v = hc.odd_side(d)[0]
    occupied = 1 << odd_v
    for v in range(1 << d):
        if not hc.parity(v) and not hc.neighbor_masks(d)[v] & occupied:
            occupied |= 1 << v
    assert hc.is_independent(occupied, d)
    st = sm.ChainState(d=d, step=0, occupancy=occupied,
                       size=occupied.bit_count(),
                       odd_size=1, even_size=occupied.bit_count() - 1)
    rep = sm.extract_defects(st, debug=True)
    assert rep.side == "odd"
    assert rep.total_size == 1
    assert rep.type_counts == (("s1c0g0", 1),)
    assert rep.nbhd_total == d


def test_extract_defects_neighbourhood_total_matches_components():
    # a chain at d = 6 (typed components), and a d = 6 state whose odd
    # minority is the odd side of the subcube x4 = x5 = 0, one component
    # of size 8, reported as "s8:big"; its even side lies in x4 = x5 = 1
    low = [v for v in range(16) if hc.parity(v)]
    high = [v | 0b110000 for v in range(16) if not hc.parity(v)]
    occ = sum(1 << v for v in low + high)
    assert hc.is_independent(occ, 6)
    big = sm.ChainState(d=6, step=0, occupancy=occ, size=16, odd_size=8,
                        even_size=8)
    states = [big] + list(sm.glauber_run(6, Fraction(1), 6000, burn_in=1000,
                                         thin=250, seed=2))
    for s in states:
        rep = sm.extract_defects(s)
        side = [v for v in range(1 << s.d)
                if s.occupancy >> v & 1 and hc.parity(v) == (rep.side == "odd")]
        comps = hc.square_components(side, s.d)
        assert rep.nbhd_total == sum(len(hc.neighborhood(c, s.d)) for c in comps)
    assert sm.extract_defects(big).type_counts == (("s8:big", 1),)


def reference_extract_defects(state):
    """The cross-check for extract_defects: the minority side's components
    from the public, checked square_components, each typed by classify."""
    d = state.d
    odd_mask = sm._parity_mask(d)
    if state.odd_size <= state.even_size:
        side, side_mask = "odd", odd_mask
    else:
        side, side_mask = "even", ~odd_mask
    bits = state.occupancy & side_mask
    vertices = set()
    while bits:
        low = bits & -bits
        vertices.add(low.bit_length() - 1)
        bits ^= low
    comps = hc.square_components(vertices, d)
    counts = {}
    nbhd_total = 0
    for comp in comps:
        if len(comp) <= pm.MAX_TYPE_SIZE:
            t = pm.classify(comp, d)
            key = t.key
            nbhd_total += t.nbhd_size(d)
        else:
            key = f"s{len(comp)}:big"
            nbhd_total += len(hc._neighborhood(comp, d))
        counts[key] = counts.get(key, 0) + 1
    return sm.DefectReport(
        step=state.step, side=side,
        type_counts=tuple(sorted(counts.items())),
        total_size=sum(len(c) for c in comps),
        nbhd_total=nbhd_total)


def state_of(occ, d):
    odd = (occ & sm._parity_mask(d)).bit_count()
    return sm.ChainState(d=d, step=0, occupancy=occ, size=occ.bit_count(),
                         odd_size=odd, even_size=occ.bit_count() - odd)


def random_independent_set(rng, d, odd_weight, even_weight):
    """Vertices tried in random order, each kept with its side's weight
    when no neighbour is in the set."""
    nbr = hc.neighbor_masks(d)
    occ = 0
    for v in rng.sample(range(1 << d), 1 << d):
        weight = odd_weight if hc.parity(v) else even_weight
        if not occ & nbr[v] and rng.random() < weight:
            occ |= 1 << v
    return occ


def test_extract_defects_matches_reference():
    # the snapshots of a seeded d = 8 run; random independent sets with the
    # minority on either side or tied; and minorities holding a component
    # larger than MAX_TYPE_SIZE: the odd side of a subcube of dimension 4
    # (8 vertices) or 5 (16), with the even side packed where it can be
    d = 8
    states = list(sm.glauber_run(d, Fraction(1), 60000, burn_in=5000,
                                 thin=500, seed=4))
    rng = random.Random(8)
    for _ in range(60):
        states.append(state_of(random_independent_set(
            rng, d, rng.random() * 0.3, rng.random()), d))
        states.append(state_of(random_independent_set(
            rng, d, rng.random(), rng.random() * 0.3), d))
    odd_v = hc.odd_side(d)[5]
    far = next(v for v in hc.odd_side(d)[::-1] if (odd_v ^ v).bit_count() > 2)
    for pair in ([odd_v], [odd_v, far]):
        # a tie: as many odd as even vertices
        even = [v for v in range(1 << d) if not hc.parity(v)
                and all((u ^ v).bit_count() > 1 for u in pair)][:len(pair)]
        states.append(state_of(sum(1 << v for v in pair + even), d))
    for k in (4, 5):
        low = [v for v in range(1 << k) if hc.parity(v)]
        occ = sum(1 << v for v in low)
        nbr = hc.neighbor_masks(d)
        for v in range(1 << d):
            if not hc.parity(v) and not nbr[v] & occ and rng.random() < 0.5:
                occ |= 1 << v
        states.append(state_of(occ, d))
    seen = collections.Counter()
    for s in states:
        want = reference_extract_defects(s)
        assert sm.extract_defects(s, debug=True) == want, s
        seen[want.side, s.odd_size == s.even_size, want.total_size > 0] += 1
        seen.update(k for k, _ in want.type_counts if k.endswith(":big"))
    assert seen["odd", True, True] and seen["odd", False, True]
    assert seen["even", False, True] and seen["odd", False, False]
    assert seen["s8:big"] and seen["s16:big"]


def test_extract_defects_empty_configuration():
    st = sm.ChainState(d=3, step=0, occupancy=0, size=0, odd_size=0, even_size=0)
    rep = sm.extract_defects(st)
    assert rep.total_size == 0 and rep.type_counts == ()


def test_defect_statistics_shapes_and_zscores():
    d, lam = 4, Fraction(1)
    states = list(sm.glauber_run(d, lam, 20000, burn_in=2000, thin=60, seed=11))
    reports = [sm.extract_defects(s) for s in states]
    cen = pm.census(d, 3)
    summary = sm.defect_statistics(states, reports, cen, lam)
    assert summary.samples == len(states)
    assert "s1c0g0" in summary.per_type
    entry = summary.per_type["s1c0g0"]
    assert {"mean", "var", "m_T", "null_se", "z", "var_over_mean"} <= set(entry)
    assert {"mean", "var", "se", "odd_mean", "even_mean"} <= set(summary.size_stats)
    assert {"total_size", "nbhd_total"} <= set(summary.clt)
    obj = summary.to_json()
    assert obj["d"] == d and obj["samples"] == len(states)


def test_statistics_sum_floats_left_to_right():
    # a compensated sum (sum() from Python 3.12, math.fsum) keeps the 1.0;
    # left to right it is lost in 1e16 + 1.0, on every Python
    assert sm._mean_var([1e16, 1.0, -1e16])[0] == 0.0


def test_csv_log_format():
    states = run(steps=600, burn_in=100, thin=100)
    reports = [sm.extract_defects(s) for s in states]
    text = sm.reports_to_csv(states, reports)
    lines = text.splitlines()
    assert lines[0] == "step,size,odd,even,defects"
    assert len(lines) == len(states) + 1
    first = lines[1].split(",")
    assert first[0] == str(states[0].step)
    assert first[1] == str(states[0].size)


def test_sample_chains_order_is_deterministic():
    kw = dict(steps=1500, burn_in=100, thin=50)
    got = sm.sample_chains(3, Fraction(1), seed=3, chains=3, **kw)
    # chain i is the run at seed + 1000003 * i
    assert got == [run(seed=3 + 1000003 * i, **kw) for i in range(3)]
    # distinct chains see distinct seeds
    assert got[0] != got[1]


def test_two_chain_diagnostic_crosses_modes_on_q2():
    out = sm.two_chain_diagnostic(2, Fraction(1), steps=4000, seed=1)
    assert out["from_odd"]["visited_both_modes"]
    assert out["from_even"]["visited_both_modes"]
    assert out["from_odd"]["snapshots"] > 0


def test_default_burn_in_scales_with_volume():
    assert sm.default_burn_in(3) == 10 * 8 * 3
    assert sm.default_burn_in(6) == 10 * 64 * 6


def test_poisson_gof_p_value_equals_scipy_stats_bitwise():
    from scipy import stats
    rng = random.Random(4)
    ran = 0
    for mean in (0.3, 1.0, 2.5, 4.0, 7.7, 15.0, 19.9):
        for n in (20, 100, 1000):
            counts = [min(int(rng.expovariate(1 / mean)), 60) for _ in range(n)]
            gof = sm._poisson_gof(counts, mean)
            if gof is None:
                continue
            ran += 1
            assert gof["p"] == float(stats.chi2.sf(gof["stat"], gof["df"]))
    assert ran > 10


def test_poisson_gof_bins_each_expect_at_least_five():
    # pooling from the top alone kept bins 0..4 expecting 0.0017 .. 2.66 at
    # mean 14 and n = 2000
    for tenths in range(3, 200):
        mean = tenths / 10
        for n in (20, 50, 100, 300, 1000, 2000, 5000, 10_000):
            for top in (int(mean) + 1, math.ceil(mean + 8 * math.sqrt(mean)) + 2):
                counts = [0] * (n - 1) + [top]
                observed, expected = sm._pooled_bins(counts, mean)
                assert sum(observed) == n
                assert math.isclose(sum(expected), n)
                if len(expected) > 1:
                    assert min(expected) >= 5, (mean, n, top, expected)
    gof = sm._poisson_gof([0] * 1999 + [30], 14.0)
    assert gof["bins"] == gof["df"] + 1 < 27


def test_pooled_bins_stop_at_41():
    # each input kept 42 to 49 bins, each expecting at least 5, before the
    # cap: df 41 to 48, past the range of chisq.chdtrc
    for mean, n, top in ((20.0, 3_000_000, 60), (40.0, 20_000, 90),
                         (60.0, 5000, 100), (60.0, 10_000, 120)):
        counts = [0] * (n - 1) + [top]
        observed, expected = sm._pooled_bins(counts, mean)
        assert len(expected) == 41, (mean, n, top)
        assert min(expected) >= 5
        assert sum(observed) == n
        assert math.isclose(sum(expected), n)
        assert sm._poisson_gof(counts, mean)["df"] == 40


def test_pooled_bins_do_not_overflow():
    # 100.0 ** 160 is too large for a float, and so is every k! past 170!
    for top in (160, 400):
        counts = [0] * 9999 + [top]
        observed, expected = sm._pooled_bins(counts, 100.0)
        assert sum(observed) == 10_000
        assert math.isclose(sum(expected), 10_000)
        assert min(expected) >= 5
    assert math.isclose(sm._poisson_pmf(160, 100.0),
                        math.exp(160 * math.log(100.0) - 100.0 - math.lgamma(161)))
    assert sm._poisson_pmf(400, 0.0) == 0.0
    # wherever the float expression is finite, the pmf is exactly that float
    for mean in (0.0, 0.25, 3.0, 41.5, 100.0, 150.0):
        for k in range(171):
            try:
                want = math.exp(-mean) * mean ** k / math.factorial(k)
            except OverflowError:
                continue
            assert sm._poisson_pmf(k, mean) == want, (k, mean)


def test_chdtrc_is_chi2_sf():
    from scipy import special, stats
    for df in range(1, 31):
        for x in (0.0, 5e-324, 1e-300, 1e-12, 0.5, float(df), 3.0 * df,
                  1e3, 1e6):
            assert special.chdtrc(df, x) == stats.chi2.sf(x, df), (df, x)
