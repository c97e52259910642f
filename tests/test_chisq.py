"""The pure-Python chi-square tail against scipy.special.chdtrc, bit for bit."""

import hashlib
import math
import random

import numpy as np
import pytest
from scipy import special
from scipy.special import _ufuncs

from cubecount import chisq


def edges(df):
    """x = 0, the tiniest x, each igamc branch edge at a = df/2, and 1e6.

    At x/2 the edges are 0.5 and 1.1 (x = 1.0, 2.2), x = a and 1.1 x = a
    (x = df, df/1.1), -0.4/ln(x/2) = a (x = 2 exp(-0.8/df)), and
    |a - x/2| = 0.4 a, where igam_fac switches (x = 0.6 df, 1.4 df).
    """
    return [0.0, 5e-324, 1e-300, 1.0, 2.2, float(df), df / 1.1,
            2 * math.exp(-0.8 / df), 0.6 * df, 1.4 * df, 1e6]


def grid(df):
    # each edge and its two floating-point neighbours
    return [y for x in edges(df)
            for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
            if y >= 0]


def assert_bitwise(df, xs):
    ref = special.chdtrc(df, np.array(xs))
    bad = [(x, chisq.chdtrc(df, x), float(r)) for x, r in zip(xs, ref)
           if chisq.chdtrc(df, x) != r]
    assert bad == [], (df, bad[:5])


@pytest.mark.parametrize("df", range(1, 41))
def test_port_equals_scipy_on_branch_edges(df):
    assert_bitwise(df, grid(df))


@pytest.mark.parametrize("df", range(1, 41))
def test_port_equals_scipy_on_random_points(df):
    rng = random.Random(df)
    uniform = [rng.uniform(0.0, 4.0 * df + 20.0) for _ in range(2000)]
    log_uniform = [math.exp(rng.uniform(math.log(1e-300), math.log(1e6)))
                   for _ in range(2000)]
    assert_bitwise(df, uniform + log_uniform)


def test_lgam_and_expm1_are_cephes():
    # scipy's gammaln and expm1 run Cephes lgam and expm1 for real x
    rng = random.Random(0)
    for a in [k / 2 for k in range(1, 81)] + [rng.uniform(1e-3, 2e3)
                                                for _ in range(2000)]:
        assert chisq.lgam(a) == special.gammaln(a), a
    for x in [rng.uniform(-0.6, 0.6) for _ in range(2000)]:
        assert chisq._expm1(x) == special.expm1(x), x


def test_lgam1p_table_is_cephes_lgam1p():
    for a, value in chisq._LGAM1P.items():
        assert value == _ufuncs._lgam1p(a), a
    assert chisq._LGAM1P[0.5] != math.lgamma(1.5)


def test_df_outside_the_port_raises():
    # Temme's series for a = df/2 > 20 is not ported, and the sampler's
    # pooled bins never ask for it
    for df in (41, 2.5, 0, 40.0):
        with pytest.raises(ValueError, match="integer df in 1..40"):
            chisq.chdtrc(df, 1.0)


def test_infinite_and_out_of_domain_x():
    for df in (1, 2, 7, 40):
        assert chisq.chdtrc(df, math.inf) == special.chdtrc(df, math.inf) == 0.0
        for x in (-1.0, -5e-324, -math.inf, math.nan):
            assert math.isnan(chisq.chdtrc(df, x)), (df, x)
            assert math.isnan(special.chdtrc(df, x)), (df, x)


# the port's reprs over every edge grid, df = 1..40, joined by newlines
GRID_SHA256 = "83b371abdf2d886669332f9858f5e278f9be0ef6d91775ec8da73eddf22831e0"


def test_grid_digest_is_pinned():
    text = "\n".join(repr(chisq.chdtrc(df, x))
                     for df in range(1, 41) for x in grid(df))
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_SHA256
