"""Chi-square upper tail chdtrc(df, x) = Q(df/2, x/2) in pure Python.

A line-for-line port of the Cephes code (Moshier 1989, as kept in scipy's
special-function library) that ``scipy.special.chdtrc`` runs for integer
1 <= df <= 40, so that `sample` and `validate` get their goodness-of-fit
p-values without importing scipy.  The regularized upper incomplete gamma
function Q(a, x) = igamc(a, x) is computed by

- ``igam_fac``: x^a e^-x / Gamma(a), from Cephes' lgam or from the Lanczos
  approximation (its rational sum evaluated by Cephes' ratevl) when x is
  near a;
- ``igam_series``: 1 - Q by the power series DLMF 8.11.4;
- ``igamc_continued_fraction``: Q by the continued fraction DLMF 8.9.2;
- ``igamc_series``: Q by DLMF 8.7.3, for small x.

Cephes switches to Temme's uniform asymptotic series (which needs
log1pmx) only for a > 20 with x near a; at a = df/2 <= 20 that branch is
unreachable, and so is the Lanczos branch for a or x >= 200, so the port
leaves both out, and chdtrc refuses df > 40 or df that is not an integer.

Two details decide bit-identity with scipy:

- ``igamc_series`` calls Cephes' own expm1, a rational approximation on
  |x| <= 1/2 (``_expm1`` below).  With libm's expm1 (``math.expm1``) the
  last bit differs at 3,067 of 20,000 uniform x in [0, 2.2) at df = 1.
- Cephes' lgam1p(a) = ln Gamma(1 + a) is reached only at a in {1/2, 1}
  (igamc_series runs for x <= 1.1 and a <= 1.1 x, or x <= 1/2 and
  a <= -0.4/ln x < 0.58), so a two-entry table replaces it: 0.0 at a = 1
  and the value of Cephes' Taylor series at a = 1/2, -0.12078223763524884,
  which is not math.lgamma(1.5) = -0.12078223763524543.

Every operation is an IEEE double operation in the C code's order, and
exp, log, pow and sqrt come from the same C library, so the results are the
same bits.
"""

from __future__ import annotations

import math

MAXITER = 2000
MACHEP = 1.11022302462515654042e-16  # 2^-53
MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX)
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_MAX_DF = 40  # a = df/2 <= 20 never reaches the asymptotic series

# -- Cephes lgam (ln |Gamma(x)|) for x > 0 ------------------------------------

_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    # Horner's rule, highest degree first; with coef[0] == 1 the first step
    # is x + coef[1] exactly, as in Cephes' p1evl
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """Cephes lgam for finite x > 0 (the only arguments igamc passes)."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


# -- Lanczos approximation (Boost's g = 6.0247 set, as Cephes uses it) -----------

_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
                  45995730.0, 105258076.0, 150917976.0, 120543840.0,
                  39916800.0, 0.0)


def _ratevl(x: float, num: tuple[float, ...], denom: tuple[float, ...]) -> float:
    # Cephes ratevl for equal degrees (pow(x, N - M) == 1 drops out): for
    # |x| > 1 both polynomials are evaluated in 1/x, lowest degree first
    if abs(x) > 1:
        return _polevl(1 / x, num[::-1]) / _polevl(1 / x, denom[::-1])
    return _polevl(x, num) / _polevl(x, denom)


# -- Cephes unity.c: expm1 and the two lgam1p values igamc_series needs -------------

_EP = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
       9.9999999999999999991025e-1)
_EQ = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
       2.2726554820815502876593e-1, 2.0000000000000000000897e0)


def _expm1(x: float) -> float:
    """Cephes expm1 for finite x: a rational approximation on |x| <= 1/2."""
    if x < -0.5 or x > 0.5:
        return math.exp(x) - 1.0
    xx = x * x
    r = x * _polevl(xx, _EP)
    r = r / (_polevl(xx, _EQ) - r)
    return r + r


# Cephes lgam1p(a) = ln Gamma(1 + a) at the only a igamc_series is reached with
_LGAM1P = {0.5: -0.12078223763524884, 1.0: 0.0}


# -- Cephes igam.c ----------------------------------------------------------------------


def igam_fac(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), for a <= 20 (so Cephes' log1pmx branch never runs)."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lgam(a)
        if ax < -MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.exp(1)) / _ratevl(a, _LANCZOS_NUM, _LANCZOS_DENOM)
    # |a - x| <= 0.4 a <= 8 keeps a and x below 200: no log1pmx branch
    return res * (math.exp(a - x) * math.pow(x / fac, a))


def igam_series(a: float, x: float) -> float:
    """The lower tail P(a, x) by DLMF 8.11.4."""
    ax = igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= MACHEP * ans:
            break
    return ans * ax / a


def igamc_continued_fraction(a: float, x: float) -> float:
    """The upper tail Q(a, x) by the continued fraction DLMF 8.9.2."""
    ax = igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= MACHEP:
            break
    return ans * ax


def igamc_series(a: float, x: float) -> float:
    """The upper tail Q(a, x) by DLMF 8.7.3, for a in {1/2, 1} and x <= 1.1."""
    fac = 1.0
    total = 0.0
    for n in range(1, MAXITER):
        fac *= -x / n
        term = fac / (a + n)
        total += term
        if abs(term) <= MACHEP * abs(total):
            break
    logx = math.log(x)
    term = -_expm1(a * logx - _LGAM1P[a])
    return term - math.exp(a * logx - lgam(a)) * total


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a in {1/2, 1, ..., 20}."""
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    # the asymptotic series runs only for a > 20
    if x > 1.1:
        if x < a:
            return 1.0 - igam_series(a, x)
        return igamc_continued_fraction(a, x)
    if x <= 0.5:
        if -0.4 / math.log(x) < a:
            return 1.0 - igam_series(a, x)
        return igamc_series(a, x)
    if x * 1.1 < a:
        return 1.0 - igam_series(a, x)
    return igamc_series(a, x)


def chdtrc(df: int, x: float) -> float:
    """Chi-square survival function: P(X > x) for X ~ chi^2 with df degrees.

    Equals ``scipy.special.chdtrc(df, x)`` bit for bit.  df must be an
    integer in 1..40: Cephes' Temme series for a = df/2 > 20 is not ported,
    and `sampler._pooled_bins` keeps df <= 40.
    """
    if not (isinstance(df, int) and 1 <= df <= _MAX_DF):
        raise ValueError(f"chdtrc needs an integer df in 1..{_MAX_DF}, not {df!r}")
    x = float(x)
    if not x >= 0.0:  # negative or NaN: scipy's igamc reports a domain error
        return math.nan
    return igamc(df / 2.0, x / 2.0)
