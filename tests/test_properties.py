"""Hypothesis honesty properties of the numeric entry points: err meets the
tolerance and covers the distance to an independent truth.

The profile is small and derandomized, so tier-1 runs the same examples in
a few seconds every time.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from zetakit import (
    PrecisionContext,
    big_z,
    digamma,
    expansion_terms,
    gamma,
    riemann_zeta_numeric,
    sine_odd_power_sum,
    sine_power_sum,
    sphere_volume_gamma,
    sphere_volume_zproduct,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_mellin,
    zeta_z_product,
    zeta_zn_direct,
)

_PROFILE = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: (bits, tolerance) pairs, as the benchmark and the CI runs use them
_CONTEXTS = {64: 1e-12, 256: 1e-30, 1024: 1e-120}


@st.composite
def _zeta_points(draw):
    """(bits, s): s real or complex with -12 <= Re s <= 12 and |Im s| <= 8,
    on both sides of the reflection line Re s = -1/2 and away from the pole
    at 1.  A real s may be a non-dyadic Fraction, which the kernel rounds; a
    complex s has dyadic float parts, which it reads exactly."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        den = draw(st.sampled_from([1, 3, 7, 64]))
        s = Fraction(draw(st.integers(-12 * den, 12 * den)), den)
    else:
        s = complex(draw(st.integers(-768, 768)) / 64, draw(st.integers(1, 128)) / 16
                    * draw(st.sampled_from([1, -1])))
    assume(abs(complex(s) - 1) >= 1e-3)
    return bits, s


@settings(_PROFILE, max_examples=16)
@given(_zeta_points())
def test_riemann_zeta_is_honest(point):
    # truth: mpmath at 2 bits + 64, taken at the exact s
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = MPContext()
    mp.prec = 2 * bits + 64
    r = riemann_zeta_numeric(s, ctx)
    x = mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mp.mpc(s)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value) - mp.zeta(x)) <= r.err


def _truth_context(bits):
    mp = MPContext()
    mp.prec = 2 * bits + 64
    return mp


def _exact(mp, s):
    """s as an mpmath number at 2 bits + 64 (a Fraction rounded once there)."""
    return mp.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else mp.mpc(s)


def _sine_sum(mp, n, p, double):
    """sum_k x_k^p, x_k = (2 if double else 1) sin(pi k/n), from mpmath sines."""
    return mp.fsum(((2 if double else 1) * mp.sinpi(mp.mpf(k) / n)) ** p for k in range(1, n))


@st.composite
def _reals(draw, lo, hi):
    """A Fraction in [lo, hi]: an integer, a half-integer, or a non-dyadic
    Fraction, which the sums round."""
    den = draw(st.sampled_from([1, 2, 3, 7]))
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def _circle_points(draw):
    """(bits, n, s) with n in 2..2000 and s real or complex, Re s in
    [-4, 3/2] so that the sums stay within every tolerance of _CONTEXTS; a
    complex s has dyadic float parts."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    n = draw(st.integers(2, 2000))
    if draw(st.booleans()):
        s = draw(_reals(-4, 1))
    else:
        s = complex(draw(st.integers(-256, 96)) / 64, draw(st.integers(-64, 64)) / 16)
    return bits, n, s


@settings(_PROFILE, max_examples=16)
@given(_circle_points())
def test_zeta_zn_direct_is_honest(point):
    # both folds; truth: the sum of mpmath sine powers at 2 bits + 64
    bits, n, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    truth = _sine_sum(mp, n, -2 * _exact(mp, s), True)
    for fold in (True, False):
        r = zeta_zn_direct(n, s, ctx, fold=fold)
        assert r.err <= ctx.tol
        assert abs(mp.mpc(r.value.value) - truth) <= r.err


@st.composite
def _route_points(draw):
    """(bits, n, s) with n between the switch of the large-n route and four
    times it, s real in [-3, 4] off the quarter-integers (a non-dyadic
    Fraction, which the sums round) or complex with |Im s| <= 10 (dyadic
    float parts)."""
    from zetakit.verify import _route_switch
    bits = draw(st.sampled_from([64, 256]))
    if draw(st.booleans()):
        s = Fraction(draw(st.integers(-300, 400)), 100)
        assume((4 * s).denominator != 1)
    else:
        s = complex(draw(st.integers(-192, 256)) / 64, draw(st.integers(1, 160)) / 16
                    * draw(st.sampled_from([1, -1])))
    switch = _route_switch(PrecisionContext(bits, _CONTEXTS[bits]), s)
    return bits, draw(st.integers(switch, 4 * switch)), s


@settings(_PROFILE, max_examples=16)
@given(_route_points())
def test_large_n_route_is_honest(point):
    # truth: the plain sum of mpmath sine powers at 2 bits + 64
    bits, n, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = zeta_zn_direct(n, s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - _sine_sum(mp, n, -2 * _exact(mp, s), True)) <= r.err


@st.composite
def _power_points(draw):
    """(bits, n, p) with n in 2..2000 and a real power p in [-6, 8]."""
    return (draw(st.sampled_from(sorted(_CONTEXTS))), draw(st.integers(2, 2000)),
            draw(_reals(-6, 8)))


@settings(_PROFILE, max_examples=12)
@given(_power_points())
def test_sine_power_sum_is_honest(point):
    bits, n, p = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = sine_power_sum(n, p, ctx)
    assert r.err <= ctx.tol
    assert abs(r.value - _sine_sum(mp, n, _exact(mp, p), False)) <= r.err


@st.composite
def _strip_points(draw):
    """(bits, s) with 0 < Re s < 1/2: a real Fraction in [1/64, 31/64], or a
    complex s with dyadic parts, Re s in [1/16, 7/16] and |Im s| <= 1."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        return bits, Fraction(draw(st.integers(1, 31)), 64)
    return bits, complex(draw(st.integers(4, 28)) / 64, draw(st.integers(-16, 16)) / 16)


@settings(_PROFILE, max_examples=10)
@given(_strip_points())
def test_zeta_z_mellin_is_honest(point):
    # truth: the Gamma closed form 4^-s Gamma(1/2 - s) / (sqrt(pi) Gamma(1 - s))
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    z = _exact(mp, s)
    truth = mp.power(4, -z) * mp.gamma(mp.mpf(1) / 2 - z) / (mp.sqrt(mp.pi) * mp.gamma(1 - z))
    r = zeta_z_mellin(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - truth) <= r.err


def _zeta_z_truth(mp, z):
    """4^-z Gamma(1/2 - z) / (sqrt(pi) Gamma(1 - z)) in mpmath numbers."""
    return mp.power(4, -z) * mp.gamma(mp.mpf(1) / 2 - z) * mp.rgamma(1 - z) / mp.sqrt(mp.pi)


@st.composite
def _lattice_points(draw):
    """(bits, s) with -8 <= Re s <= 8: a real Fraction (an integer, a
    half-integer or a non-dyadic Fraction), or a complex s with dyadic parts
    and 1/16 <= |Im s| <= 4.  Every real s stays 1/8 from the poles at the
    positive half-integers, and a positive one off the integers and
    half-integers, where the product degenerates."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        s = draw(_reals(-8, 8))
        assume(s <= 0 or min(abs(s - Fraction(k, 2)) for k in range(1, 18)) >= Fraction(1, 8))
        return bits, s
    return bits, complex(draw(st.integers(-512, 512)) / 64,
                         draw(st.integers(1, 64)) / 16 * draw(st.sampled_from([1, -1])))


@settings(_PROFILE, max_examples=16)
@given(_lattice_points())
def test_zeta_z_closed_is_honest(point):
    # truth: mpmath's Gamma quotient at 2 bits + 64, taken at the exact s
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = zeta_z_closed(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - _zeta_z_truth(mp, _exact(mp, s))) <= r.err


#: the lowest Re s of the product property per precision, above the point
#: (about -88 at 256 bits/1e-30) where the working bits stop holding the
#: tolerance against |zeta_Z(s)| ~ C(-2s, -s) and the route refuses by
#: contract
_PRODUCT_FLOOR = {64: -8, 256: -20, 1024: -100}


@st.composite
def _product_points(draw):
    """(bits, s) with _PRODUCT_FLOOR[bits] <= Re s <= 8: a real Fraction, as
    in _lattice_points, or a complex s with dyadic parts and 1/16 <= |Im s|
    <= 60, so that K = 2|s| + d reaches past 300 at 1024 bits."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    lo = _PRODUCT_FLOOR[bits]
    if draw(st.booleans()):
        s = draw(_reals(lo, 8))
        assume(s <= 0 or min(abs(s - Fraction(k, 2)) for k in range(1, 18)) >= Fraction(1, 8))
        return bits, s
    return bits, complex(draw(st.integers(lo * 64, 512)) / 64,
                         draw(st.integers(1, 960)) / 16 * draw(st.sampled_from([1, -1])))


@settings(_PROFILE, max_examples=16)
@given(_product_points())
def test_zeta_z_product_is_honest(point):
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = zeta_z_product(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - _zeta_z_truth(mp, _exact(mp, s))) <= r.err


def _off_poles(s) -> bool:
    """Whether s is at least 1/8 from every nonpositive integer, a pole of
    Gamma and digamma."""
    return min(abs(complex(s) + n) for n in range(11)) >= 1 / 8


@st.composite
def _gamma_points(draw):
    """(bits, s) with |Re s| <= 10 off the pole disks: a complex s with dyadic
    parts and |Im s| <= 8, or a real Fraction, which gamma rounds unless it
    is an integer or a half-integer."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        s = draw(_reals(-10, 10))
    else:
        s = complex(draw(st.integers(-640, 640)) / 64, draw(st.integers(-128, 128)) / 16)
    assume(_off_poles(s))
    return bits, s


@settings(_PROFILE, max_examples=16)
@given(_gamma_points())
def test_gamma_is_honest(point):
    # truth: mpmath's gamma at 2 bits + 64, taken at the exact s
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = gamma(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value) - mp.gamma(_exact(mp, s))) <= r.err


@st.composite
def _digamma_points(draw):
    """(bits, s) with s a real Fraction in [-10, 10] off the pole disks."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    s = draw(_reals(-10, 10))
    assume(_off_poles(s))
    return bits, s


@settings(_PROFILE, max_examples=12)
@given(_digamma_points())
def test_digamma_is_honest(point):
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = digamma(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpf(r.value) - mp.digamma(_exact(mp, s))) <= r.err


@st.composite
def _deriv_points(draw):
    """(bits, s), s a real Fraction left of the poles at the positive
    half-integers: in [-8, 0], in (0, 1/2) with denominator 3, 7 or 64, or a
    positive integer up to 8, where the derivative is an exact rational."""
    kind = draw(st.sampled_from(["left", "strip", "integer"]))
    if kind == "left":
        s = draw(_reals(-8, 0))
    elif kind == "strip":
        den = draw(st.sampled_from([3, 7, 64]))
        s = Fraction(draw(st.integers(1, (den - 1) // 2)), den)
    else:
        s = Fraction(draw(st.integers(1, 8)))
    return draw(st.sampled_from(sorted(_CONTEXTS))), s


@settings(_PROFILE, max_examples=24)
@given(_deriv_points())
def test_zeta_z_deriv_is_honest(point):
    # truth: zeta_Z(s) (-psi(1/2 - s) - 2 log 2 + psi(1 - s)) in mpmath at
    # 2 bits + 64, taken at the exact s; at a positive integer n, where
    # zeta_Z has a zero and psi(1 - s) a pole, the Gamma quotient
    # differentiated there: (1/Gamma)'(1 - n) = (-1)^(n-1) (n-1)!.  An exact
    # result is checked by its rational.
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    x = _exact(mp, s)
    if s >= 1:
        n = int(s)
        truth = -mp.power(4, -x) * mp.gamma(mp.mpf(1) / 2 - x) / mp.sqrt(mp.pi) \
            * (-1) ** (n - 1) * mp.factorial(n - 1)
    else:
        truth = _zeta_z_truth(mp, x) * (-mp.digamma(mp.mpf(1) / 2 - x) - 2 * mp.log(2)
                                        + mp.digamma(1 - x))
    r = zeta_z_deriv(s, ctx)
    assert r.err <= ctx.tol
    if r.exact is not None:
        assert abs(mp.convert(r.exact) - truth) <= (1 + abs(truth)) * mp.mpf(2) ** (-bits - 32)
    else:
        assert abs(mp.mpc(r.value.value) - truth) <= r.err


@st.composite
def _big_z_points(draw):
    """(bits, s) with |Re s| <= 16: a real Fraction at least 1/4 from the
    poles at the positive odd integers, or a complex s with dyadic parts and
    1/16 <= |Im s| <= 8."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        s = draw(_reals(-16, 16))
        assume(min(abs(s - k) for k in range(1, 17, 2)) >= Fraction(1, 4))
        return bits, s
    return bits, complex(draw(st.integers(-1024, 1024)) / 64,
                         draw(st.integers(1, 128)) / 16 * draw(st.sampled_from([1, -1])))


@settings(_PROFILE, max_examples=16)
@given(_big_z_points())
def test_big_z_is_honest(point):
    # truth: pi 2^s zeta_Z(s/2) from the Gamma quotient at 2 bits + 64
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    z = _exact(mp, s)
    r = big_z(s, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - mp.pi * mp.power(2, z) * _zeta_z_truth(mp, z / 2)) <= r.err


@st.composite
def _sphere_points(draw):
    """(bits, n) with n in 0..48; from n = 58 at 64 bits/1e-12 the Z
    product refuses, since every factor Z(-j) is certified to the absolute
    tolerance."""
    return draw(st.sampled_from(sorted(_CONTEXTS))), draw(st.integers(0, 48))


def _sphere_volume(mp, n):
    """vol(S^n) = 2 pi^((n+1)/2) / Gamma((n+1)/2) in mpmath numbers."""
    h = mp.mpf(n + 1) / 2
    return 2 * mp.power(mp.pi, h) / mp.gamma(h)


@settings(_PROFILE, max_examples=12)
@given(_sphere_points())
def test_sphere_volume_gamma_is_honest(point):
    bits, n = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = sphere_volume_gamma(n, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - _sphere_volume(mp, n)) <= r.err


@settings(_PROFILE, max_examples=12)
@given(_sphere_points())
def test_sphere_volume_zproduct_is_honest(point):
    # truth: the Gamma form in mpmath, independent of the Z(-j) factors
    bits, n = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = sphere_volume_zproduct(n, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - _sphere_volume(mp, n)) <= r.err


@st.composite
def _odd_power_points(draw):
    """(bits, n, m) with n in 2..2000 and m in 0..8."""
    return (draw(st.sampled_from(sorted(_CONTEXTS))), draw(st.integers(2, 2000)),
            draw(st.integers(0, 8)))


@settings(_PROFILE, max_examples=12)
@given(_odd_power_points())
def test_sine_odd_power_sum_is_honest(point):
    # truth: 2^(2m+1) times the sum of mpmath sine powers, not cotangents
    bits, n, m = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    r = sine_odd_power_sum(n, m, ctx)
    assert r.err <= ctx.tol
    assert abs(mp.mpc(r.value.value) - 2 ** (2 * m + 1) * _sine_sum(mp, n, 2 * m + 1, False)) \
        <= r.err


@st.composite
def _expansion_points(draw):
    """(bits, s) with |Re s| <= 8: a real Fraction off the poles at the
    positive odd integers, or a complex s with dyadic parts and 1/16 <=
    |Im s| <= 4."""
    bits = draw(st.sampled_from(sorted(_CONTEXTS)))
    if draw(st.booleans()):
        s = draw(_reals(-8, 8))
        assume(s <= 0 or s.denominator != 1 or s.numerator % 2 == 0)
        return bits, s
    return bits, complex(draw(st.integers(-512, 512)) / 64,
                         draw(st.integers(1, 64)) / 16 * draw(st.sampled_from([1, -1])))


@settings(_PROFILE, max_examples=8)
@given(_expansion_points())
def test_expansion_terms_are_honest(point):
    # truth: the three coefficients pi^(-1/2) Gamma(1/2 - s/2) / Gamma(1 -
    # s/2) = 2^s zeta_Z(s/2), 2 pi^-s zeta(s) and (s/3) pi^(2-s) zeta(s-2)
    # from mpmath at 2 bits + 64, taken at the exact s
    bits, s = point
    ctx = PrecisionContext(bits, _CONTEXTS[bits])
    mp = _truth_context(bits)
    x = _exact(mp, s)
    truths = (mp.gamma(mp.mpf(1) / 2 - x / 2) * mp.rgamma(1 - x / 2) / mp.sqrt(mp.pi),
              2 * mp.power(mp.pi, -x) * mp.zeta(x),
              x / 3 * mp.power(mp.pi, 2 - x) * mp.zeta(x - 2))
    for term, truth in zip(expansion_terms(s, ctx), truths):
        c = term.coefficient
        assert c.err <= ctx.tol, term.label
        assert abs(mp.mpc(c.value) - truth) <= c.err, term.label
