"""Hypothesis honesty properties of the numeric entry points: err meets the
tolerance and covers the distance to an independent truth.

The profile is small and derandomized, so tier-1 runs the same examples in
a few seconds every time.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath.ctx_mp import MPContext

from zetakit import PrecisionContext, riemann_zeta_numeric

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
