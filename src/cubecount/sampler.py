"""Glauber dynamics for the hard-core model on Q_d, with defect extraction.

Single-site heat bath: pick a uniform vertex; if some neighbor is occupied
the vertex becomes vacant, otherwise it becomes occupied with probability
lam/(1+lam).  The stationary law is the hard-core measure at fugacity lam.
Runs are fully deterministic given a seed: step t draws the vertex
random.Random(seed).getrandbits(d) and then the coin .random(), as a
per-step loop over random.Random would.

Those draws are replayed in bulk.  The Mersenne Twister state of
random.Random(seed) is copied into numpy's MT19937, which yields the same
32-bit words.  Step t reads the next three, w0, w1, w2: CPython's
getrandbits(k) for k <= 32 is one word shifted right, so the vertex is
w0 >> (32 - d), and random() is ((w1 >> 5) * 2^26 + (w2 >> 6)) / 2^53.
The first identity needs d <= 32, which MAX_DIM = 24 guarantees.

Defects are the distance-2 components of the minority side of a sample
(ties resolved to the odd side); their type statistics are compared against
census predictions m_T = n_T * w_T.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from . import hypercube as hc
from . import polymers as pm


@dataclass(frozen=True)
class ChainState:
    """A snapshot of the chain: occupancy bitmask plus running tallies."""

    d: int
    step: int
    occupancy: int  # bit v set <=> vertex v in I
    size: int
    odd_size: int
    even_size: int


@dataclass(frozen=True)
class DefectReport:
    """Defect decomposition of one snapshot."""

    step: int
    side: str  # "odd" | "even" (minority, ties to odd)
    type_counts: tuple[tuple[str, int], ...]  # sorted (type key, count)
    total_size: int  # sum of defect sizes
    nbhd_total: int  # sum of |N(S)| over defects

    def count(self, key: str) -> int:
        return dict(self.type_counts).get(key, 0)


@lru_cache(maxsize=hc.MAX_DIM)  # one entry per dimension; 4 MB in all
def _parity_mask(d: int) -> int:
    mask = 0
    for v in range(1 << d):
        if hc.parity(v):
            mask |= 1 << v
    return mask


def default_burn_in(d: int) -> int:
    # empirical choice: ten sweeps times dimension
    return 10 * (1 << d) * d


_DRAW_BLOCK = 1 << 15  # steps per bulk draw: 3 * 2^15 raw words, 768 KB


def _step_codes(seed: int, d: int, p: float, steps: int) -> Iterator[list[int]]:
    """The chain's first `steps` draws, in blocks of at most _DRAW_BLOCK steps.

    A step that draws vertex v and coin c is coded v + 2^d * [c < p].
    """
    import numpy as np  # deferred: the CLI's import stays free of numpy

    _, internal, _ = random.Random(seed).getstate()
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                          "pos": internal[-1]}}
    n = 1 << d
    while steps > 0:
        b = min(steps, _DRAW_BLOCK)
        w = mt.random_raw(3 * b).reshape(b, 3)
        v = (w[:, 0] >> (32 - d)).astype(np.int64)
        coin = ((w[:, 1] >> 5) * 67108864.0 + (w[:, 2] >> 6)) \
            * (1.0 / 9007199254740992.0)
        yield np.where(coin < p, v + n, v).tolist()
        steps -= b


def glauber_run(d: int, lam: Fraction, steps: int,
                burn_in: int | None = None, thin: int = 1, seed: int = 0,
                debug: bool = False, start: int = 0) -> Iterator[ChainState]:
    """Yield snapshots every `thin` steps after `burn_in`, up to `steps`.

    steps counts all attempted updates including burn-in, so steps == burn_in
    yields nothing.  The chain starts from the configuration `start`
    (default empty), which must be an independent set.  With `debug`, each
    snapshot is checked to be an independent set.
    """
    hc.check_dim(d)
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    if burn_in is None:
        burn_in = default_burn_in(d)
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
    # indexed by step code: code v < n clears v, code n + v occupies v
    # unless a neighbour of v is occupied
    bits = [1 << v for v in range(n)] * 2
    nbr = [0] * n + hc.neighbor_masks(d)
    # steps after the last snapshot are never observed
    last = burn_in + (steps - burn_in) // thin * thin

    occ = start
    done = 0  # steps before the current block
    next_snap = burn_in + thin
    for codes in _step_codes(seed, d, p, last):
        pos, stop = 0, len(codes)
        while pos < stop:
            cut = min(stop, next_snap - done)
            for c in codes[pos:cut]:
                if c < n:
                    if occ & bits[c]:
                        occ ^= bits[c]
                elif not occ & nbr[c]:
                    occ |= bits[c]
            pos = cut
            if done + cut == next_snap:
                if debug:
                    assert hc.is_independent(occ, d), \
                        f"dependent state at step {next_snap}"
                size = occ.bit_count()
                odd = (occ & odd_mask).bit_count()
                yield ChainState(
                    d=d, step=next_snap, occupancy=occ, size=size,
                    odd_size=odd, even_size=size - odd)
                next_snap += thin
        done += stop


def extract_defects(state: ChainState, debug: bool = False) -> DefectReport:
    """Classify the distance-2 components of the snapshot's minority side."""
    d = state.d
    odd_mask = _parity_mask(d)
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
    if debug:
        assert sorted(v for c in comps for v in c) == sorted(vertices)
    counts: dict[str, int] = {}
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
    return DefectReport(
        step=state.step, side=side,
        type_counts=tuple(sorted(counts.items())),
        total_size=sum(len(c) for c in comps),
        nbhd_total=nbhd_total)


# -- statistics ---------------------------------------------------------------------


def _mean_var(xs: list[float]) -> tuple[float, float]:
    n = len(xs)
    m = sum(xs) / n
    if n < 2:
        return m, 0.0
    return m, sum((x - m) ** 2 for x in xs) / (n - 1)


def _poisson_gof(counts: list[int], mean: float) -> dict | None:
    """Chi-square goodness of fit against Poisson(mean), pooling tail bins.

    Bins k = 0, 1, 2, ... are pooled from the top until every expected count
    is at least 5; returns None when fewer than two bins survive.
    """
    n = len(counts)
    top = max(counts)
    probs = []
    acc = 0.0
    for k in range(top + 1):
        p = math.exp(-mean) * mean ** k / math.factorial(k)
        probs.append(p)
        acc += p
    probs.append(max(1.0 - acc, 0.0))  # tail bucket >= top+1

    observed = [0] * (top + 2)
    for c in counts:
        observed[c] += 1
    # pool from the top until expected >= 5 everywhere
    while len(probs) > 1 and n * probs[-1] < 5.0:
        probs[-2] += probs[-1]
        observed[-2] += observed[-1]
        probs.pop()
        observed.pop()
    if len(probs) < 2:
        return None
    from scipy.special import chdtrc  # deferred: the CLI's import stays free of scipy

    stat = 0.0
    for o, pr in zip(observed, probs):
        e = n * pr
        stat += (o - e) ** 2 / e
    df = len(probs) - 1
    # chdtrc(df, x) is what scipy.stats.chi2.sf(x, df) evaluates for x >= 0
    return {"stat": stat, "df": df, "p": float(chdtrc(df, stat)),
            "bins": len(probs)}


def _moments(xs: list[float]) -> dict:
    n = len(xs)
    m, v = _mean_var(xs)
    sd = math.sqrt(v) if v > 0 else 0.0
    skew = kurt = 0.0
    if sd > 0:
        skew = sum((x - m) ** 3 for x in xs) / n / sd ** 3
        kurt = sum((x - m) ** 4 for x in xs) / n / sd ** 4 - 3.0
    return {"mean": m, "var": v, "skew": skew, "excess_kurtosis": kurt}


@dataclass(frozen=True)
class SamplerSummary:
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

    keys = sorted({k for r in reports for k, _ in r.type_counts}
                  | set(cen.by_key()))
    per_type: dict[str, dict] = {}
    for key in keys:
        xs = [float(r.count(key)) for r in reports]
        mean, var = _mean_var(xs)
        entry: dict = {"mean": mean, "var": var}
        if key in cen.by_key():
            m_t = float(cen.expected_type_count(key, lam))
            se = math.sqrt(m_t / n)
            entry.update({
                "m_T": m_t,
                "null_se": se,
                "z": (mean - m_t) / se if se > 0 else 0.0,
                "var_over_mean": var / mean if mean > 0 else None,
            })
            if m_t < 20:
                entry["poisson_gof"] = _poisson_gof(
                    [r.count(key) for r in reports], m_t)
        per_type[key] = entry

    sizes = [float(s.size) for s in states]
    odd = [float(s.odd_size) for s in states]
    even = [float(s.even_size) for s in states]
    sm, sv = _mean_var(sizes)
    om, _ = _mean_var(odd)
    em, _ = _mean_var(even)
    size_stats = {"mean": sm, "var": sv, "se": math.sqrt(sv / n),
                  "odd_mean": om, "even_mean": em}

    clt = {"total_size": _moments([float(r.total_size) for r in reports]),
           "nbhd_total": _moments([float(r.nbhd_total) for r in reports])}

    joint = None
    observed = [k for k in keys
                if sum(r.count(k) for r in reports) > 0]
    observed.sort(key=lambda k: -sum(r.count(k) for r in reports))
    if len(observed) >= 2:
        a, b = observed[:2]
        xa = [float(r.count(a)) for r in reports]
        xb = [float(r.count(b)) for r in reports]
        ma, va = _mean_var(xa)
        mb, vb = _mean_var(xb)
        cov = sum((x - ma) * (y - mb) for x, y in zip(xa, xb)) / (n - 1)
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


def _chain_task(args) -> list[ChainState]:
    d, lam, steps, burn_in, thin, seed, debug = args
    return list(glauber_run(d, lam, steps, burn_in, thin, seed, debug))


def sample_chains(d: int, lam: Fraction, steps: int,
                  burn_in: int | None = None, thin: int = 1, seed: int = 0,
                  chains: int = 1, processes: int = 1,
                  debug: bool = False) -> list[list[ChainState]]:
    """Run independent chains with derived seeds; deterministic merge order.

    Chain i uses seed + 1000003*i; the result list is ordered by chain index
    regardless of the degree of parallelism, so output bytes never depend on
    the process count.
    """
    if chains < 1:
        raise ValueError("need at least one chain")
    tasks = [(d, lam, steps, burn_in, thin, seed + 1000003 * i, debug)
             for i in range(chains)]
    if processes > 1 and chains > 1:
        import multiprocessing

        with multiprocessing.Pool(min(processes, chains)) as pool:
            return pool.map(_chain_task, tasks)
    return [_chain_task(t) for t in tasks]


def two_chain_diagnostic(d: int, lam: Fraction, steps: int, seed: int = 0,
                         thin: int | None = None) -> dict:
    """Crude mixing check: chains from the two fully-packed ground states.

    Tracks the odd-minus-even occupancy imbalance of both chains; once the
    chains have each visited both signs, the run has at least crossed
    between the two modes.  Reported, never asserted.
    """
    hc.check_dim(d)
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
