"""Cross-cutting contracts: value invariants, concurrency, budgets."""

import ast
import importlib
import pkgutil
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.ctx_mp import MPContext

import zetakit

from zetakit import (
    DomainError,
    HPComplex,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    bernoulli,
    big_z,
    digamma,
    extract_zeta,
    gamma,
    riemann_zeta_numeric,
    sine_odd_power_sum,
    sine_power_sum,
    sphere_volume_zproduct,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_mellin,
    zeta_z_product,
    zeta_zn_closed_poly,
    zeta_zn_direct,
)
from zetakit import quadrature, zeta_z, zeta_zn
from zetakit.core import argument, mpf_to_fraction


def test_precision_context_validation():
    with pytest.raises(DomainError):
        PrecisionContext(precision_bits=32)
    with pytest.raises(DomainError):
        PrecisionContext(target_tol=0)
    for tol in (float("inf"), float("nan")):  # inf would let every bound meet it
        with pytest.raises(DomainError):
            PrecisionContext(target_tol=tol)
    with pytest.raises(DomainError):
        PrecisionContext(max_terms=0)


def test_carrier_invariants():
    with pytest.raises(DomainError):
        HPComplex(1.0, err=-1)


def test_every_export_resolves():
    # a stale __all__ entry breaks ``from zetakit.<module> import *``, and a
    # name the package imports from a module with an __all__ belongs in it
    alls = {}
    for info in pkgutil.iter_modules(zetakit.__path__):
        module = importlib.import_module(f"zetakit.{info.name}")
        exec(f"from zetakit.{info.name} import *", {})
        if hasattr(module, "__all__"):
            alls[info.name] = module.__all__
    for node in ast.parse(Path(zetakit.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(zetakit, alias.name)
                assert node.module not in alls or alias.name in alls[node.module], alias.name


def test_product_respects_term_budget():
    # at 256 bits/1e-30, s = 1/4 takes K = 33: a budget of 16 cannot hold it
    tiny = PrecisionContext(max_terms=16)
    with pytest.raises(NoConvergence):
        zeta_z_product(Fraction(1, 4), tiny)


@pytest.mark.parametrize("call, bits, tol, module, work", [
    (lambda c: zeta_z_closed(-1e300, c), 256, 1e-30, zeta_z, "_closed"),
    # exact at 1024 bits, 5^300 having 697
    (lambda c: zeta_z_closed(-10 ** 300, c), 1024, 1e-120, zeta_z, "_closed"),
    (lambda c: zeta_z_deriv(-10 ** 4, c), 256, 1e-30, zeta_z, "comb"),
    (lambda c: zeta_z_product(-10 ** 4 + 0.3, c), 256, 1e-30, zeta_z, "_partial_product"),
    (lambda c: zeta_zn_direct(10 ** 6, -9999.7, c), 256, 1e-30, zeta_zn, "_circle_sum"),
    (lambda c: sine_power_sum(10 ** 5, -2000.3, c), 256, 1e-30, zeta_zn, "_circle_sum"),
], ids=["closed", "closed-1024", "deriv", "product", "zeta_zn_direct", "sine_power_sum"])
def test_refusal_before_work(monkeypatch, call, bits, tol, module, work):
    # each value's rounding alone misses the tolerance, shown by a lower
    # bound before any work: one refusal, naming precision, at once
    calls = []
    monkeypatch.setattr(module, work, lambda *a: calls.append(a))
    ctx = PrecisionContext(bits, tol)
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="precision too low"):
        call(ctx)
    assert time.perf_counter() - start < 0.1
    assert not calls


@pytest.mark.parametrize("route", [zeta_z_closed, zeta_z_mellin])
def test_packaged_result_refuses_err_above_tol(route):
    # 64 bits cannot deliver 1e-27 near s = 0.45+0.1i: the route must refuse
    # rather than return an err above the tolerance
    with pytest.raises(NoConvergence):
        route(complex(0.45, 0.1), PrecisionContext(64, 1e-27))


def test_fraction_tolerance_refuses_with_noconvergence():
    # a Fraction tolerance is accepted, so the refusal message must format it
    ctx = PrecisionContext(64, Fraction(1, 10 ** 27))
    with pytest.raises(NoConvergence):
        zeta_z_mellin(complex(0.45, 0.1), ctx)


@pytest.mark.parametrize("call", [
    lambda c: digamma(1j, c),
    lambda c: sine_power_sum(5, 1j, c),
    lambda c: zeta_z_deriv(complex(-1, 1), c),
    lambda c: extract_zeta(complex(-1, 1), 16, 64, c),
], ids=["digamma", "sine_power_sum", "zeta_z_deriv", "extract_zeta"])
def test_real_entry_points_refuse_complex_argument(ctx, call):
    with pytest.raises(DomainError):
        call(ctx)


def test_real_entry_point_accepts_zero_imaginary_part(ctx):
    r = digamma(complex(0.3, 0), ctx)
    assert r.value == digamma(0.3, ctx).value
    assert isinstance(r.value, type(ctx.mp.mpf(0)))


_R = Fraction(1, 2 ** 32)  # the snapping radius at 64 bits


@pytest.mark.parametrize("s, q, exact, rounded", [
    (3, 3, 3, False), (-7, -7, -7, False), (0.25, None, None, False),
    (-1.5, Fraction(-3, 2), Fraction(-3, 2), False), (2.0 ** -70, 0, None, False),
    (complex(0.5, -1), None, None, False),
    (Fraction(-5, 2), Fraction(-5, 2), Fraction(-5, 2), False),
    (3 ** 100, ..., None, True), (-(3 ** 100), ..., None, True),  # over 94 bits, q = z
    (Fraction(1, 3), None, None, True), (Fraction(-7, 3), None, None, True),
    (2 + Fraction(1, 2 ** 200), 2, None, True),  # rounds onto 2
    (2 + _R, 2, None, False), (2 + 2 * _R, None, None, False),  # the radius in Re s
    (complex(-1, 2 ** -32), -1, None, False), (complex(-1, 2 ** -31), None, None, False),
    (complex(1 + 0.9 * 2 ** -32, 0.9 * 2 ** -32), 1, None, False),  # a box, not a disc
    (Fraction(1, 2) - _R / 2, Fraction(1, 2), None, False),
], ids=repr)
def test_argument_reads_each_argument_once(s, q, exact, rounded):
    # z is s at working precision, q the lattice point within pole_radius of
    # it (a box), exact that q only when s is q itself, and dz 0 when s
    # converts without rounding (ints, floats, mpf/mpc values and dyadic
    # Fractions that fit), else a bound on |z - s|
    ctx = PrecisionContext(64)
    a = argument(ctx, s)
    assert a.z == ctx.mpc(s) and a.exact == exact
    assert a.q == (mpf_to_fraction(a.z.real) if q is ... else q)
    w = MPContext()
    w.prec = 512
    truth = w.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else w.mpc(s)
    dist = abs(w.mpc(a.z) - truth)
    assert (0 < dist <= a.dz) if rounded else (a.dz == 0 and dist == 0)
    for v in (ctx.mp.mpf(0.3), ctx.mp.mpc(0.1, 0.2), w.mpf(3)):
        assert argument(ctx, v).dz == 0


def test_threads_share_one_context(monkeypatch):
    # four threads run every entry point on one context, the Mellin route
    # first and on a cold node cache, and each value is its single-thread
    # value; the context's precision is as it was
    ctx = PrecisionContext(256, 1e-30)
    calls = [
        lambda: zeta_z_mellin(0.3, ctx), lambda: zeta_z_closed(-1.3, ctx),
        lambda: zeta_z_product(-1.3, ctx), lambda: big_z(0.7, ctx),
        lambda: zeta_z_deriv(-1.3, ctx), lambda: gamma(complex(0.5, 1), ctx),
        lambda: digamma(2.5, ctx), lambda: riemann_zeta_numeric(-2.5, ctx),
        lambda: zeta_zn_direct(40, 0.37, ctx), lambda: zeta_zn_direct(4000, 0.37, ctx),
        lambda: sine_power_sum(40, 1.3, ctx), lambda: sine_odd_power_sum(7, 2, ctx),
        lambda: sphere_volume_zproduct(3, ctx),
        lambda: extract_zeta(-1, 16, 64, ctx, points=4),
    ]
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    single = [repr(call()) for call in calls]
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    barrier = threading.Barrier(4)
    got, errors = {}, []

    def work(i):
        try:
            barrier.wait(timeout=30)
            got[i] = [repr(call()) for call in calls]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert ctx.mp.prec == ctx.working_bits
    assert all(got[i] == single for i in range(4))


def _exact_or_refused(call):
    """Whether a call took its lattice path: an exact result or a
    pole/domain refusal, as opposed to a generic numeric value."""
    try:
        r = call()
    except (PoleError, NeedsLimitInterpretation):
        return True
    return isinstance(getattr(r, "exact", None), Fraction)


def _zeta_z_truth(mp, x):
    """zeta_Z(x) = 4^-x Gamma(1/2 - x) / (sqrt(pi) Gamma(1 - x))."""
    return mp.power(4, -x) * mp.gamma(mp.mpf(1) / 2 - x) * mp.rgamma(1 - x) / mp.sqrt(mp.pi)


def _zeta_z_deriv_truth(mp, x):
    """zeta_Z'(x) = zeta_Z(x) (-psi(1/2 - x) - 2 log 2 + psi(1 - x))."""
    return _zeta_z_truth(mp, x) * (-mp.digamma(mp.mpf(1) / 2 - x) - 2 * mp.log(2)
                                   + mp.digamma(1 - x))


@pytest.mark.parametrize("call, point, truth", [
    (zeta_z_closed, -3, _zeta_z_truth), (zeta_z_closed, Fraction(3, 2), None),
    (zeta_z_product, 2, None), (zeta_z_deriv, -4, _zeta_z_deriv_truth), (gamma, -4, None),
    (digamma, -1, None),
], ids=["closed-neg3", "closed-3/2", "product-2", "deriv-neg4", "gamma-neg4", "digamma-neg1"])
def test_lattice_snap_radius(call, point, truth):
    # 256 bits snap within 2^-128 of an integer or half-integer: a pole or a
    # degenerate point refuses there, while an exact value is taken at the
    # lattice point alone and a point off it gets a generic value within
    # err of the truth (from mpmath at twice the bits and 64 more)
    ctx = PrecisionContext(256)
    assert _exact_or_refused(lambda: call(point, ctx))
    near = point + Fraction(1, 2 ** 200)
    if truth is None:
        assert _exact_or_refused(lambda: call(near, ctx))
    else:
        r = call(near, ctx)
        assert r.exact is None
        mp = MPContext()
        mp.prec = 2 * 256 + 64
        assert abs(mp.mpc(r.value.value) - truth(mp, mp.convert(near))) <= r.err
    assert not _exact_or_refused(lambda: call(point + Fraction(1, 2 ** 100), ctx))


def test_direct_sum_complex_argument(ctx, mp):
    s = mp.mpc(1, 1)
    r = zeta_zn_direct(5, s, ctx)
    conj = zeta_zn_direct(5, mp.mpc(1, -1), ctx)
    assert abs(r.value.value.conjugate() - conj.value.value) <= r.err + conj.err
    assert mp.isfinite(r.value.value)


def test_concurrent_evaluations_agree(ctx):
    # shared Bernoulli memo and context under 8 threads
    errors = []
    results = [None] * 8

    def work(i):
        try:
            b = bernoulli(60 + 2 * (i % 3))
            g = gamma(0.5 + i, ctx).value
            p = zeta_zn_closed_poly(1 + i % 3, ctx).evaluate(5)
            d = zeta_zn_direct(7, 2, ctx).value.re
            results[i] = (b, g, p, d)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for i in range(8):
        for j in range(8):
            if i % 3 == j % 3 and i != j:
                assert results[i][0] == results[j][0]
                assert results[i][2] == results[j][2]
        assert results[i][3] == results[0][3]
