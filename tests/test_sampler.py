"""Glauber dynamics: invariants, determinism, and defect extraction."""

from fractions import Fraction

import pytest

from cubecount import hypercube as hc
from cubecount import polymers as pm
from cubecount import sampler as sm


def run(d=3, lam=Fraction(1), steps=4000, burn_in=200, thin=20, seed=5, **kw):
    return list(sm.glauber_run(d, lam, steps, burn_in=burn_in, thin=thin,
                               seed=seed, **kw))


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
