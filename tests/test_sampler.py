"""Glauber dynamics: invariants, determinism, and defect extraction."""

import math
import random
from fractions import Fraction

import pytest

from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount import sampler as sm


def run(d=3, lam=Fraction(1), steps=4000, burn_in=200, thin=20, seed=5, **kw):
    return list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                               seed=seed, **kw))


def reference_run(d, lam, steps, burn_in, thin, seed, start=0):
    """The cross-check for glauber_run: the chain stepped one draw at a time.

    Each step calls random.Random(seed).getrandbits(d) and then .random(),
    and |I| and |I on odd| are tallied step by step.  glauber_run replays the
    same draws in bulk through numpy and must yield the same snapshots.
    """
    nbr = hc.neighbor_masks(d)
    odd_mask = sum(1 << v for v in hc.odd_side(d))
    p = float(Fraction(lam) / (1 + Fraction(lam)))
    rng = random.Random(seed)
    occ, size, odd = start, start.bit_count(), (start & odd_mask).bit_count()
    out = []
    for step in range(1, steps + 1):
        v = rng.getrandbits(d)
        coin = rng.random()
        bit = 1 << v
        newbit = 0 if occ & nbr[v] else (1 if coin < p else 0)
        old = occ & bit
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


SEEDS = (0, 7, -3, 2 ** 70 + 1)
LAMS = (Fraction(1), Fraction(1, 3), Fraction(2), Fraction(1, 20))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_bulk_draws_match_per_step_reference(d):
    # p = 1/4 and 1/21 are not exact in binary, so coin < p is tested at a
    # rounded threshold; the odd side fully packed is a nonzero start
    full_odd = sum(1 << v for v in hc.odd_side(d))
    for lam in LAMS:
        for seed in SEEDS:
            for burn_in, thin, start in ((50, 7, 0), (0, 1, full_odd)):
                steps = burn_in + 1500
                got = list(sm.glauber_run(d, lam, steps, burn_in=burn_in,
                                          thin=thin, seed=seed, start=start))
                want = reference_run(d, lam, steps, burn_in, thin, seed, start)
                assert got == want, (d, lam, seed, burn_in, thin, start)


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
    with pytest.raises(ValueError):
        list(sm.glauber_run(2, Fraction(1), 100, burn_in=0, start=0b0011))


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
    for v in hc.even_side(d):
        if not (hc.neighbor_masks(d)[v] & occupied):
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
    kw = dict(steps=1500, burn_in=100, thin=50, seed=3, chains=3)
    a = sm.sample_chains(3, Fraction(1), **kw)
    b = sm.sample_chains(3, Fraction(1), **kw, processes=2)
    key = [[(s.step, s.occupancy) for s in chain] for chain in a]
    assert key == [[(s.step, s.occupancy) for s in chain] for chain in b]
    # distinct chains see distinct seeds
    assert key[0] != key[1]


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


def test_chdtrc_is_chi2_sf():
    from scipy import special, stats
    for df in range(1, 31):
        for x in (0.0, 5e-324, 1e-300, 1e-12, 0.5, float(df), 3.0 * df,
                  1e3, 1e6):
            assert special.chdtrc(df, x) == stats.chi2.sf(x, df), (df, x)
