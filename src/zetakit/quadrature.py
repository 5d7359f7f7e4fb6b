"""Tanh-sinh quadrature of the spectral form of the lattice zeta function

    zeta_Z(s) = integral_0^1 (2 sin(pi x/2))^(-2s) dx,   0 < Re(s) < 1/2.

The heat trace is e^(-2t) I0(2t) = integral_0^1 e^(-4t sin^2(pi x/2)) dx, so
its Mellin transform divided by Gamma(s) is this integral (the t-integral
done first); the Riemann sums of the same integrand are zeta_{Z/nZ}(s)/n.

The endpoint singularity (pi x)^(-2s) integrates in closed form to
pi^(-2s)/(1-2s); the smooth remainder (2 sin(pi x/2))^(-2s) - (pi x)^(-2s)
goes to one nested tanh-sinh rule on (0, 1).  Nodes, weights and the two
logarithms at each node do not depend on s, so they are cached per
(working bits, level) and shared across evaluation points and threads.
"""

from __future__ import annotations

import threading
from typing import Tuple

from .core import NoConvergence, PrecisionContext
from .numerics import _i0e_raw  # noqa: F401  the benchmark tracer wraps this name

_MAX_LEVEL = 13

_CACHE_LOCK = threading.Lock()
# (working_bits, level) -> nodes (w, log(pi x), log(2 sin(pi x/2)))
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
    """Nodes (w, log(pi x), log(2 sin(pi x/2))) of one level on (0, 1).

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
        nodes.append((w, log_pi - mp.log1p(e2y), mp.log(2 * mp.sinpi(xm / 2))))
        if j:  # the centre node x = 1/2 is its own reflection
            nodes.append((w, log_pi - mp.log1p(1 / e2y), mp.log(2 * mp.cospi(xm / 2))))
    result = tuple(nodes)
    with _CACHE_LOCK:
        return _NODE_CACHE.setdefault(key, result)


def heat_mellin_integral(ctx: PrecisionContext, s, tol) -> Tuple:
    """(value, error bound) of integral_0^1 (2 sin(pi x/2))^(-2s) dx, which
    is zeta_Z(s) for s on the strip 0 < Re(s) < 1/2.

    The error is the change between the last two levels plus a rounding
    term.  That term covers the summed magnitude of the node terms, since
    the two exponentials at a node each reach (pi x)^(-2 Re s) and cancel,
    each with a relative error of about |2s log(pi x)| ulps; it also covers
    the closed-form term and the nodes past the cutoff.
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
        part = part_mass = mp.zero
        nodes = _nodes(mp, wb, level)
        for w, log_line, log_chord in nodes:
            chord = mp.exp(m2s * log_chord)
            line = mp.exp(m2s * log_line)
            part += w * (chord - line)
            part_mass += w * (abs(chord) + abs(line))
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
