"""Cross-cutting contracts: value invariants, concurrency, budgets."""

import threading
from fractions import Fraction

import pytest

from zetakit import (
    DomainError,
    HPReal,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    bernoulli,
    digamma,
    gamma,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_mellin,
    zeta_z_product,
    zeta_zn_closed_poly,
    zeta_zn_direct,
)
from zetakit.asymptotics import _clear_poly_cache


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


def test_hpreal_invariants():
    with pytest.raises(DomainError):
        HPReal(1.0, err=-1)
    with pytest.raises(DomainError):
        HPReal(1.0, err=0.5, exact=True)


def test_product_respects_term_budget():
    tiny = PrecisionContext(max_terms=64)
    with pytest.raises(NoConvergence):
        zeta_z_product(Fraction(1, 4), tiny)


@pytest.mark.parametrize("route", [zeta_z_closed, zeta_z_mellin])
def test_packaged_result_refuses_err_above_tol(route):
    # 64 bits cannot deliver 1e-27 near s = 0.45+0.1i: the route must refuse
    # rather than return an err above the tolerance
    with pytest.raises(NoConvergence):
        route(complex(0.45, 0.1), PrecisionContext(64, 1e-27))


def _exact_or_refused(call):
    """Whether a call took its lattice path: an exact result or a
    pole/domain refusal, as opposed to a generic numeric value."""
    try:
        r = call()
    except (PoleError, NeedsLimitInterpretation):
        return True
    return isinstance(getattr(r, "exact", None), Fraction)


@pytest.mark.parametrize("call, point", [
    (zeta_z_closed, -3), (zeta_z_closed, Fraction(3, 2)), (zeta_z_product, 2),
    (zeta_z_deriv, -4), (gamma, -4), (digamma, -1),
], ids=["closed-neg3", "closed-3/2", "product-2", "deriv-neg4", "gamma-neg4", "digamma-neg1"])
def test_lattice_snap_radius(call, point):
    # 256 bits snap within 2^-128 of an integer or half-integer
    ctx = PrecisionContext(256)
    assert _exact_or_refused(lambda: call(point + Fraction(1, 2 ** 200), ctx))
    assert not _exact_or_refused(lambda: call(point + Fraction(1, 2 ** 100), ctx))


def test_direct_sum_complex_argument(ctx, mp):
    s = mp.mpc(1, 1)
    r = zeta_zn_direct(5, s, ctx)
    conj = zeta_zn_direct(5, mp.mpc(1, -1), ctx)
    assert abs(r.value.value.conjugate() - conj.value.value) <= r.err + conj.err
    assert mp.isfinite(r.value.value)


def test_concurrent_evaluations_agree(ctx):
    # shared Bernoulli memo, polynomial cache, and context under 8 threads
    _clear_poly_cache()
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
