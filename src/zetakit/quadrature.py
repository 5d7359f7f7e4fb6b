"""Tanh-sinh quadrature specialized to the heat-trace Mellin integral

    integral_0^inf  e^(-2t) I0(2t) t^(s-1) dt,   0 < Re(s) < 1/2.

The integrand splits into an s-independent heat factor (expensive: Bessel)
and a cheap power of t, so nodes, weights, and heat values are cached per
(segment, precision, level) and shared across evaluation points and threads.

Layout: tanh-sinh on (0, 1] absorbs the t^(s-1) endpoint singularity; the
range [1, T] runs through u = log t; beyond T = 64 the integrand follows its
descending series in 1/t whose terms integrate in closed form, leaving a
remainder far below any supported tolerance.
"""

from __future__ import annotations

import threading
from typing import Tuple

from .core import NoConvergence, PrecisionContext
from .numerics import _i0e_raw

#: Switch point between quadrature and the analytic descending-series tail.
T_SPLIT = 64

_MAX_LEVEL = 13

_CACHE_LOCK = threading.Lock()
# (segment, working_bits, level) -> (ymax, nodes (y, w, h(t-), a-, h(t+), a+))
_NODE_CACHE: dict = {}
# (segment, working_bits) -> (w0, h(t0), a0) of the centre node
_CENTER_CACHE: dict = {}


def _level_js(level: int):
    """Node indices introduced at this level (odd multiples of the step)."""
    j = 1 if level else 0
    step = 2 if level else 1
    while True:
        yield j
        j += step


def _raw_abscissa(mp, u):
    """tanh-sinh geometry at u: (y, w, frac_minus, frac_plus, log_frac_minus).

    y = (pi/2) sinh u; the node pair on (0,1) is 1/(1+e^(2y)) and its
    reflection, computed in cancellation-free form; w is the pure weight
    (pi/2) cosh u / cosh(y)^2 halved for the unit-interval map.
    """
    pi2 = mp.pi / 2
    y = pi2 * mp.sinh(u)
    e2y = mp.exp(2 * y)
    frac_m = 1 / (1 + e2y)
    frac_p = e2y / (1 + e2y)
    log_m = -mp.log1p(e2y)
    w = pi2 * mp.cosh(u) * 4 / (e2y + 2 + 1 / e2y) / 2
    return y, w, frac_m, frac_p, log_m


# Segments: "unit" integrates heat(t) t^(s-1) over t in (0, 1], with node
# t = frac, exponent coordinate a = log t and x = s - 1; "exp" integrates
# heat(e^u) e^(u s) over u in [0, ln T], with a = u = frac ln T, t = e^u,
# x = s, and weights scaled by the length ln T.  Either way a node at the
# tanh-sinh abscissa frac in (0, 1) contributes w heat(t) e^(a x).

def _segment_point(mp, segment: str, frac, log_frac):
    """(t, a) at fraction ``frac`` (with log ``log_frac``) of a segment."""
    if segment == "unit":
        return frac, log_frac
    a = mp.log(T_SPLIT) * frac
    return mp.exp(a), a


def _segment_scale(mp, segment: str):
    """Length of the segment in its integration variable."""
    return mp.one if segment == "unit" else mp.log(T_SPLIT)


def _nodes(mp, wb: int, segment: str, level: int, ymax) -> tuple:
    """Segment nodes (y, w, h(t-), a-, h(t+), a+) of one level, up to ymax."""
    key = (segment, wb, level)
    with _CACHE_LOCK:
        cached = _NODE_CACHE.get(key)
        if cached is not None and cached[0] >= ymax:
            return cached[1]
    # (re)build outside any potential reader's view, then publish atomically
    h = mp.mpf(2) ** (-level)
    switch = max(30, wb // 2)
    scale = _segment_scale(mp, segment)
    nodes = []
    for j in _level_js(level):
        if j == 0:
            continue  # center node handled separately
        y, w, frac_m, frac_p, log_m = _raw_abscissa(mp, j * h)
        tm, am = _segment_point(mp, segment, frac_m, log_m)
        tp, ap = _segment_point(mp, segment, frac_p, 2 * y + log_m)
        hm, _ = _i0e_raw(mp, tm, switch)
        hp, _ = _i0e_raw(mp, tp, switch)
        nodes.append((y, w * scale, hm, am, hp, ap))
        if y > ymax:
            break
    result = tuple(nodes)
    with _CACHE_LOCK:
        cached = _NODE_CACHE.get(key)
        if cached is None or cached[0] < ymax:
            _NODE_CACHE[key] = (ymax, result)
            return result
        return cached[1]


def _center(mp, wb: int, segment: str):
    """(w0, h(t0), a0) of the centre node, at the segment's midpoint fraction."""
    key = (segment, wb)
    with _CACHE_LOCK:
        cached = _CENTER_CACHE.get(key)
    if cached is None:
        half = mp.mpf(1) / 2
        t0, a0 = _segment_point(mp, segment, half, mp.log(half))
        hval, _ = _i0e_raw(mp, t0, max(30, wb // 2))
        cached = (mp.pi / 4 * _segment_scale(mp, segment), hval, a0)
        with _CACHE_LOCK:
            _CENTER_CACHE[key] = cached
    return cached


def _quantize_up(mp, y):
    """Round the decay cutoff up to a power of two so cache entries shared
    between nearby exponents do not trigger rebuilds."""
    q = mp.mpf(64)
    while q < y:
        q *= 2
    return q


def _integral(ctx: PrecisionContext, segment: str, x, ymax, tol):
    """Nested tanh-sinh over a segment with a heuristic error estimate;
    nodes beyond ymax are dropped."""
    mp = ctx.mp
    wb = ctx.working_bits
    ycache = _quantize_up(mp, ymax)
    total = None
    prev = None
    for level in range(0, _MAX_LEVEL + 1):
        h = mp.mpf(2) ** (-level)
        part = mp.zero
        for (y, w, hm, am, hp, ap) in _nodes(mp, wb, segment, level, ycache):
            part += w * (hm * mp.exp(am * x) + hp * mp.exp(ap * x))
            if y > ymax:
                break
        if level == 0:
            w0, hval, a0 = _center(mp, wb, segment)
            total = h * (part + w0 * hval * mp.exp(a0 * x))
        else:
            total = total / 2 + h * part
        if prev is not None and level >= 4:
            diff = abs(total - prev)
            err = diff + abs(total) * mp.mpf(2) ** (12 - mp.prec)
            if diff <= tol:
                return total, err
        prev = total
    raise NoConvergence("tanh-sinh quadrature did not reach the tolerance")


def _integral_unit(ctx: PrecisionContext, s, tol):
    """integral_0^1 heat(t) t^(s-1) dt by tanh-sinh."""
    mp = ctx.mp
    # weight*integrand decays like e^(-2 y Re s) toward t=0, e^(-2y) toward 1
    ymax = (ctx.working_bits + 16) * mp.log(2) / (2 * min(s.real, mp.one))
    return _integral(ctx, "unit", s - 1, ymax, tol)


def _integral_exp(ctx: PrecisionContext, s, tol):
    """integral_1^T heat(t) t^(s-1) dt via t = e^u."""
    mp = ctx.mp
    return _integral(ctx, "exp", s, (ctx.working_bits + 16) * mp.log(2) / 2, tol)


def _tail(ctx: PrecisionContext, s, tol):
    """integral_T^inf via the descending series of the heat factor:
    heat(t) ~ (4 pi t)^(-1/2) sum_k b_k t^(-k), each term integrating to
    b_k T^(s-k-1/2) / (k+1/2-s).  Remainder taken as twice the first
    omitted term (the series is asymptotic; at T = 64 terms descend by
    ~2 orders each, so optimal truncation sits far below any tolerance)."""
    mp = ctx.mp
    T = mp.mpf(T_SPLIT)
    acc = mp.mpc(0)
    bk = mp.one
    k = 0
    half = mp.mpf(1) / 2
    while True:
        term = bk * mp.power(T, s - k - half) / (k + half - s)
        acc += term
        if abs(term) < tol / 8:
            bk *= mp.mpf((2 * k + 1) ** 2) / (16 * (k + 1))
            omitted = bk * mp.power(T, s.real - k - 1 - half) / abs(k + 1 + half - s)
            break
        if k > 200:
            raise NoConvergence("Mellin tail series stalled")
        k += 1
        bk *= mp.mpf((2 * k - 1) ** 2) / (16 * k)
    front = 1 / mp.sqrt(4 * mp.pi)
    return front * acc, front * 2 * abs(omitted)


def heat_mellin_integral(ctx: PrecisionContext, s, tol) -> Tuple:
    """(value, error estimate) of the full Mellin integral at complex s."""
    mp = ctx.mp
    tol = mp.convert(tol)
    i1, e1 = _integral_unit(ctx, s, tol / 4)
    i2, e2 = _integral_exp(ctx, s, tol / 4)
    i3, e3 = _tail(ctx, s, tol / 4)
    return i1 + i2 + i3, e1 + e2 + e3
