"""Tanh-sinh quadrature of the spectral form of the lattice zeta function

    zeta_Z(s) = integral_0^1 (2 sin(pi x/2))^(-2s) dx,   0 < Re(s) < 1/2.

The heat trace is e^(-2t) I0(2t) = integral_0^1 e^(-4t sin^2(pi x/2)) dx, so
its Mellin transform divided by Gamma(s) is this integral (the t-integral
done first); the Riemann sums of the same integrand are zeta_{Z/nZ}(s)/n.

The endpoint singularity (pi x)^(-2s) integrates in closed form to
pi^(-2s)/(1-2s); the smooth remainder (2 sin(pi x/2))^(-2s) - (pi x)^(-2s)
goes to one nested tanh-sinh rule on (0, 1).  Nodes, weights and the two
logarithms at each node do not depend on s, so they are cached per
(working bits, level), as raw ``mpmath.libmp`` tuples, and shared across
evaluation points and threads.  The node sum runs on those tuples
(:func:`_node_sum`): e^(-2s log x) is ``mpf_exp`` for real s and, for
complex s, ``mpf_exp`` of the real part times ``mpf_cos_sin`` of the
imaginary part, both at prec + 4 and multiplied at prec, exactly as
mpmath's ``mpc_exp`` forms it, so the sums are bit-identical to mpmath's
own operators.
"""

from __future__ import annotations

import threading
from typing import Tuple

from mpmath.libmp import fzero, mpf_add, mpf_cos_sin, mpf_exp, mpf_mul, mpf_sub, round_nearest

from .core import NoConvergence, PrecisionContext
from .numerics import _i0e_raw  # noqa: F401  the benchmark tracer wraps this name

_MAX_LEVEL = 13

_CACHE_LOCK = threading.Lock()
# (working_bits, level) -> raw libmp nodes (w, log(pi x), log(2 sin(pi x/2)))
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


def _nodes(mp, wb: int, level: int) -> tuple:
    """Nodes (w, log(pi x), log(2 sin(pi x/2))) of one level on (0, 1), as
    raw ``mpmath.libmp`` tuples.

    The abscissa pair at u is x- = 1/(1+e^(2y)) and x+ = 1 - x-, y =
    (pi/2) sinh u, with the sine at x+ taken as cospi(x-/2) so nothing
    cancels near x = 1; w is the tanh-sinh weight (pi/2) cosh u / cosh(y)^2
    halved for the unit interval.
    """
    key = (wb, level)
    with _CACHE_LOCK:
        cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
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
        nodes.append((w._mpf_, (log_pi - mp.log1p(e2y))._mpf_,
                      mp.log(2 * mp.sinpi(xm / 2))._mpf_))
        if j:  # the centre node x = 1/2 is its own reflection
            nodes.append((w._mpf_, (log_pi - mp.log1p(1 / e2y))._mpf_,
                          mp.log(2 * mp.cospi(xm / 2))._mpf_))
    result = tuple(nodes)
    with _CACHE_LOCK:
        return _NODE_CACHE.setdefault(key, result)


def _node_sum(mp, m2s, nodes) -> Tuple:
    """(sum of w (chord - line), sum of w (|chord| + |line|)) over the nodes,
    chord = e^(m2s log(2 sin(pi x/2))) and line = e^(m2s log(pi x)).

    Raw ``mpmath.libmp`` arithmetic at prec with rounding to nearest, in the
    order mpmath's own operators take and with complex exponentials formed
    as ``mpc_exp`` forms them (module docstring), so the sums are
    bit-identical to theirs; the mass takes the real exponential, the
    modulus, in place of ``abs``.
    """
    prec, rnd = mp.prec, round_nearest
    if isinstance(m2s, mp.mpc):
        a, b = m2s._mpc_
        re = im = mass = fzero
        for w, log_line, log_chord in nodes:
            rc = mpf_exp(mpf_mul(a, log_chord, prec, rnd), prec + 4, rnd)
            cc, sc = mpf_cos_sin(mpf_mul(b, log_chord, prec, rnd), prec + 4, rnd)
            rl = mpf_exp(mpf_mul(a, log_line, prec, rnd), prec + 4, rnd)
            cl, sl = mpf_cos_sin(mpf_mul(b, log_line, prec, rnd), prec + 4, rnd)
            dre = mpf_sub(mpf_mul(rc, cc, prec, rnd), mpf_mul(rl, cl, prec, rnd), prec, rnd)
            dim = mpf_sub(mpf_mul(rc, sc, prec, rnd), mpf_mul(rl, sl, prec, rnd), prec, rnd)
            re = mpf_add(re, mpf_mul(dre, w, prec, rnd), prec, rnd)
            im = mpf_add(im, mpf_mul(dim, w, prec, rnd), prec, rnd)
            mass = mpf_add(mass, mpf_mul(w, mpf_add(rc, rl, prec, rnd), prec, rnd), prec, rnd)
        return mp.make_mpc((re, im)), mp.make_mpf(mass)
    a = m2s._mpf_
    part = mass = fzero
    for w, log_line, log_chord in nodes:
        chord = mpf_exp(mpf_mul(a, log_chord, prec, rnd), prec, rnd)
        line = mpf_exp(mpf_mul(a, log_line, prec, rnd), prec, rnd)
        part = mpf_add(part, mpf_mul(w, mpf_sub(chord, line, prec, rnd), prec, rnd), prec, rnd)
        mass = mpf_add(mass, mpf_mul(w, mpf_add(chord, line, prec, rnd), prec, rnd), prec, rnd)
    return mp.make_mpf(part), mp.make_mpf(mass)


def heat_mellin_integral(ctx: PrecisionContext, s, tol) -> Tuple:
    """(value, error bound) of integral_0^1 (2 sin(pi x/2))^(-2s) dx, which
    is zeta_Z(s) for s on the strip 0 < Re(s) < 1/2.

    Each level's node sum runs in raw libmp tuples (:func:`_node_sum`), a
    complex e^(-2s log x) as ``mpf_exp`` of its real part times
    ``mpf_cos_sin`` of its imaginary part, both at prec + 4, multiplied at
    prec; the level arithmetic stays in mpmath numbers.  The error is the change
    between the last two levels plus a rounding term.  That term covers the
    summed magnitude of the node terms, since the two exponentials at a node
    each reach (pi x)^(-2 Re s) and cancel, each with a relative error of
    about |2s log(pi x)| ulps; it also covers the closed-form term and the
    nodes past the cutoff.
    """
    mp = ctx.mp
    wb = ctx.working_bits
    tol = mp.convert(tol)
    m2s = -2 * s
    head = mp.power(mp.pi, m2s) / (1 - 2 * s)  # integral of (pi x)^(-2s)
    total = mass = mp.zero
    prev = None
    count = 0
    for level in range(0, _MAX_LEVEL + 1):
        h = mp.mpf(2) ** (-level)
        nodes = _nodes(mp, wb, level)
        part, part_mass = _node_sum(mp, m2s, nodes)
        count += len(nodes)
        total = total / 2 + h * part
        mass = mass / 2 + h * part_mass
        if level >= 4:
            diff = abs(total - prev)
            if diff <= tol:
                # |log(pi x)| <= 2 ymax + 2 at every node
                ulps = count + 2 * abs(m2s) * (2 * _ymax(mp, wb) + 2) + 16
                err = diff + (mass + abs(head)) * ulps * mp.mpf(2) ** (1 - mp.prec)
                return head + total, err
        prev = total
    raise NoConvergence("tanh-sinh quadrature did not reach the tolerance")
