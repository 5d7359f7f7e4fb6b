"""Tanh-sinh quadrature of the spectral form of the lattice zeta function

    zeta_Z(s) = integral_0^1 (2 sin(pi x/2))^(-2s) dx,   0 < Re(s) < 1/2.

The heat trace is e^(-2t) I0(2t) = integral_0^1 e^(-4t sin^2(pi x/2)) dx, so
its Mellin transform divided by Gamma(s) is this integral (the t-integral
done first); the Riemann sums of the same integrand are zeta_{Z/nZ}(s)/n.

The endpoint singularity (pi x)^(-2s) integrates in closed form to
pi^(-2s)/(1-2s); the smooth remainder (2 sin(pi x/2))^(-2s) - (pi x)^(-2s)
goes to one nested tanh-sinh rule on (0, 1).  Nodes, weights and the two
logarithms at each node do not depend on s, so they are cached per
(working bits, level), shared across evaluation points and threads
(``numerics._grown``), as Python-integer fixed point: the logarithms at F
= prec + 20 fractional bits and the weights at F + prec + 17.  The node
sum (:func:`_node_sum`) runs on them: e^(-2s log x) is
``numerics._exp_fixed`` of the real part times ``numerics._cos_sin_fixed``
of the imaginary part, and the sums are exact integer sums rounded once.
Each node term stays within a few thousand units of 2^-F of the truth,
relatively, which the rounding term of :func:`heat_mellin_integral` covers
with room to spare.
"""

from __future__ import annotations

from typing import Tuple

from mpmath.libmp import to_fixed

from .core import NoConvergence, PrecisionContext
from .numerics import FIXED_GUARD, _cos_sin_fixed, _dyadic, _exp_fixed, _grown, _to_mp

#: No route evaluates the heat trace's Bessel factor any more; the name stays
#: because the benchmark tracer's ``numerics.i0e`` span wraps it.
_i0e_raw = None

_MAX_LEVEL = 13
#: The first level whose change from the level before may stop the rule.
_FIRST_STOP = 4

# (working_bits, level) -> fixed-point nodes (w, log(pi x), log(2 sin(pi x/2)))
_NODE_CACHE: dict = {}


def _level_js(level: int):
    """Node indices introduced at this level (odd multiples of the step)."""
    j = 1 if level else 0
    step = 2 if level else 1
    while True:
        yield j
        j += step


def _ymax(mp, wb: int):
    """Node cutoff: past y = (wb+16) ln2 / 2 the weight is below 2^-(wb+16).

    For every s on the strip, weight times remainder decays like e^(-4y)
    toward x = 0 and like e^(-2y) toward x = 1, so the cutoff is s-free."""
    return (wb + 16) * mp.ln2 / 2


def _frac_bits(wb: int) -> Tuple[int, int]:
    """Fractional bits (F, FW) of the cached logarithms and weights."""
    F = wb + FIXED_GUARD
    return F, F + wb + 17


def _nodes(mp, wb: int, level: int) -> tuple:
    """Nodes (w, log(pi x), log(2 sin(pi x/2))) of one level on (0, 1), as
    fixed-point ints: the logarithms at F = wb + FIXED_GUARD fractional bits
    and the weight at F + wb + 17, so that every weight, at least
    (pi/4) e^(-2 ymax) > 2^-(wb+17), keeps F significant bits.

    The abscissa pair at u is x- = 1/(1+e^(2y)) and x+ = 1 - x-, y =
    (pi/2) sinh u, with the sine at x+ taken as cospi(x-/2) so nothing
    cancels near x = 1; w is the tanh-sinh weight (pi/2) cosh u / cosh(y)^2
    halved for the unit interval.  All three are formed in mpmath at wb
    bits, then truncated to their fixed points; log(pi x-+) = log pi -
    log(1 + e^(+-2y)) cancels nothing and is within a unit of 2^-wb more
    (mpmath's log1p would race on a shared context's precision).  Every
    level has a node, so a level once built is served from the cache
    (``numerics._grown``).
    """
    F, FW = _frac_bits(wb)

    def node(w, log_line, log_chord):
        return (to_fixed(w._mpf_, FW), to_fixed(log_line._mpf_, F),
                to_fixed(log_chord._mpf_, F))

    def build(old, count):
        h = mp.mpf(2) ** (-level)
        ymax = _ymax(mp, wb)
        log_pi = mp.log(mp.pi)
        nodes = []
        for j in _level_js(level):
            u = j * h
            y = mp.pi / 2 * mp.sinh(u)
            if y > ymax:
                break
            e2y = mp.exp(2 * y)
            w = mp.pi * mp.cosh(u) / (e2y + 2 + 1 / e2y)
            xm = 1 / (1 + e2y)
            nodes.append(node(w, log_pi - mp.log(1 + e2y), mp.log(2 * mp.sinpi(xm / 2))))
            if j:  # the centre node x = 1/2 is its own reflection
                nodes.append(node(w, log_pi - mp.log(1 + 1 / e2y), mp.log(2 * mp.cospi(xm / 2))))
        return tuple(nodes)

    return _grown(_NODE_CACHE, (wb, level), 1, build)


def _node_sum(mp, m2s, nodes) -> Tuple:
    """(sum of w (chord - line), sum of w (|chord| + |line|)) over the nodes,
    chord = e^(m2s log(2 sin(pi x/2))) and line = e^(m2s log(pi x)).

    Python-integer fixed point at F = prec + FIXED_GUARD fractional bits
    (:func:`_nodes`): m2s is floored to F bits (``numerics._dyadic``), each
    exponent m2s log is one product, and the exponentials are
    ``numerics._exp_fixed`` of the real part times
    ``numerics._cos_sin_fixed`` of the imaginary part; the sums are exact
    integer sums, rounded once to prec (``numerics._to_mp``).

    Relative to its own w (|chord| + |line|), each node term is off by at
    most 2^12 + (2 ymax + 2) + |m2s| units of 2^-F: two kernel calls of at
    most 2^10 units each; the truncation of m2s times |log| <= 2 ymax + 2
    and that of the logarithms times |m2s|; and single units for the
    weight, the exponents and, for complex m2s, the products truncated to F
    bits, absolute errors of 2^-F w that stay relative because |chord| +
    |line| > 1/2 + 1/pi on the strip.  As F = prec + 20, that is below one
    unit of 2^(1-prec) per node, which :func:`heat_mellin_integral` counts,
    while 2 ymax + 2 < 2^20, plus |m2s| of the 2 |m2s| (2 ymax + 2) it
    counts for the logarithms, which mpmath rounded at prec.
    """
    F, FW = _frac_bits(mp.prec)
    shift = -(F + FW)  # w times an F-bit value
    cplx = isinstance(m2s, mp.mpc)
    a, b, _ = _dyadic(m2s, -F)
    re = im = mass = 0
    if cplx:
        for w, log_line, log_chord in nodes:
            rc = _exp_fixed((a * log_chord) >> F, F)
            cc, sc = _cos_sin_fixed((b * log_chord) >> F, F)
            rl = _exp_fixed((a * log_line) >> F, F)
            cl, sl = _cos_sin_fixed((b * log_line) >> F, F)
            re += w * ((rc * cc - rl * cl) >> F)
            im += w * ((rc * sc - rl * sl) >> F)
            mass += w * (rc + rl)
    else:
        for w, log_line, log_chord in nodes:
            chord = _exp_fixed((a * log_chord) >> F, F)
            line = _exp_fixed((a * log_line) >> F, F)
            re += w * (chord - line)
            mass += w * (chord + line)
    return _to_mp(mp, re, im, shift, cplx), _to_mp(mp, mass, 0, shift, False)


def heat_mellin_integral(ctx: PrecisionContext, s, tol) -> Tuple:
    """(value, error bound) of integral_0^1 (2 sin(pi x/2))^(-2s) dx, which
    is zeta_Z(s) for s on the strip 0 < Re(s) < 1/2.

    Each level's node sum runs in Python-integer fixed point
    (:func:`_node_sum`); the level arithmetic stays in mpmath numbers.  The
    error is the change between the last two levels plus a rounding term.
    That term covers the summed magnitude of the node terms, since the two
    exponentials at a node each reach (pi x)^(-2 Re s) and cancel, each
    with a relative error of about |2s| (|log(pi x)| + 2) units of 2^-prec
    from the logarithms formed at prec (:func:`_nodes`; the rounding of 1 +
    e^(+-2y) adds the one absolute unit), which the 2 |2s| (2 ymax + 2) it
    counts covers as |log(pi x)| <= 2 ymax, and one unit per node for the
    weights, the fixed-point kernels (:func:`_node_sum`) and the sums; it
    also covers the closed-form term and the nodes past the cutoff.

    No level is summed while the nodes through it, or through the first
    level that may stop the rule, exceed ``max_terms``: NoConvergence names
    it before the first node sum when even that level does not fit.
    """
    mp = ctx.mp
    wb = ctx.working_bits
    tol = mp.convert(tol)
    m2s = -2 * s
    head = mp.power(mp.pi, m2s) / (1 - 2 * s)  # integral of (pi x)^(-2s)
    total = mass = mp.zero
    prev = None
    levels = [_nodes(mp, wb, level) for level in range(_FIRST_STOP + 1)]
    for level in range(0, _MAX_LEVEL + 1):
        if level == len(levels):
            levels.append(_nodes(mp, wb, level))
        count = sum(map(len, levels))  # through this level, or _FIRST_STOP if later
        if count > ctx.max_terms:
            raise NoConvergence(f"heat_mellin_integral: {count} nodes exceed max_terms = "
                                f"{ctx.max_terms}")
        h = mp.mpf(2) ** (-level)
        part, part_mass = _node_sum(mp, m2s, levels[level])
        total = total / 2 + h * part
        mass = mass / 2 + h * part_mass
        if level >= _FIRST_STOP:
            diff = abs(total - prev)
            if diff <= tol:
                # |log(pi x)| <= 2 ymax + 2 at every node
                ulps = count + 2 * abs(m2s) * (2 * _ymax(mp, wb) + 2) + 16
                err = diff + (mass + abs(head)) * ulps * mp.mpf(2) ** (1 - mp.prec)
                return head + total, err
        prev = total
    raise NoConvergence("tanh-sinh quadrature did not reach the tolerance")
