"""Self-test of the benchmark harness (no timing):

    python3 bench/selftest.py

Checks that the oracles count a deliberately wrong value, an err that is too
small and an err above the tolerance as failures, that a changed CLI stdout
counts as a mismatch, that scaling to the reference speed cancels the
host's speed, and that self times subtract child spans.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import zetakit  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from worker import encode_result  # noqa: E402

BITS, TOL = 256, 1e-30
CTX = zetakit.PrecisionContext(BITS, TOL)


def _lib_failed(op, result) -> int:
    rounds = [{"results": [encode_result(zetakit, CTX.mp, result)]}]
    failed, _lines = run.lib_failures([op], rounds, BITS, TOL)
    return failed


def _with(result, value=None, err=None):
    """A copy of an EvalResult with its value or err replaced."""
    mp = CTX.mp
    v = result.value.value if value is None else mp.mpc(value)
    e = result.err if err is None else mp.convert(err)
    return zetakit.EvalResult(zetakit.HPComplex(v, e), e, result.certified, result.method)


def test_correct_results_pass():
    for op, result in [
        (("product", 0.25), zetakit.zeta_z_product(0.25, CTX)),
        (("closed", -3), zetakit.zeta_z_closed(-3, CTX)),
        (("direct", 12, -0.5 - 2), zetakit.zeta_zn_direct(12, -2.5, CTX)),
        (("poly", 3), zetakit.zeta_zn_closed_poly(3, CTX)),
    ]:
        assert _lib_failed(op, result) == 0, op


def test_wrong_value_fails():
    good = zetakit.zeta_z_product(0.25, CTX)
    assert _lib_failed(("product", 0.25), _with(good, value=good.value.value + 1e-20)) == 1


def test_too_small_err_fails():
    # the value is right to about 2^-280, far better than asked, but an err
    # of 0 claims it is exact
    good = zetakit.zeta_z_product(0.25, CTX)
    assert _lib_failed(("product", 0.25), _with(good, err=0)) == 1


def test_err_above_tolerance_fails():
    good = zetakit.zeta_z_closed(0.25, CTX)
    assert _lib_failed(("closed", 0.25), _with(good, err=1e-20)) == 1


def test_wrong_exact_value_fails():
    wrong = zetakit.EvalResult(zetakit.HPComplex(CTX.mp.mpc(21), CTX.mp.zero), CTX.mp.zero,
                               True, "closed-form", exact=run.oracles.Fraction(21))
    assert _lib_failed(("closed", -3), wrong) == 1


def test_raised_operation_fails():
    rounds = [{"results": [{"exc": "NoConvergence: budget"}]}]
    assert run.lib_failures([("product", 0.25)], rounds, BITS, TOL)[0] == 1


def _session(stdout: str) -> dict:
    return {"cmds": [{"argv": ["sweep", "zeta-z", "--s=-5:0.5:0.25"], "code": 0,
                      "stdout": stdout}]}


def test_changed_cli_stdout_is_a_mismatch():
    same = [_session("s=-5.0  value=1\n"), _session("s=-5.0  value=1\n")]
    assert run.cli_failures(same, BITS) == []
    changed = [_session("s=-5.0  value=1\n"), _session("s=-5.0  value=2\n")]
    assert len(run.cli_failures(changed, BITS)) == 1


def test_failed_verify_and_exit_code_fail():
    bad = {"cmds": [{"argv": ["verify", "all"], "code": 0,
                     "stdout": "[PASS] a (max err 0) x\n[FAIL] b (max err 1) y\n1/2 checks passed\n"}]}
    assert len(run.cli_failures([bad], BITS)) == 1
    crashed = {"cmds": [{"argv": ["volumes", "--n-max=20"], "code": 4, "stdout": ""}]}
    assert len(run.cli_failures([crashed], BITS)) == 1


def test_scaling_cancels_host_speed():
    times, refs = [0.01, 0.5, 0.02], [0.002, 0.003, 0.002, 0.004]
    slow = run.scale([2 * t for t in times], [2 * r for r in refs], BITS)
    assert all(abs(a - b) < 1e-12 for a, b in zip(slow, run.scale(times, refs, BITS)))
    # a slower zetakit on the same host shows in full
    one, two = (run.scale([k * times[1]], refs[:2], BITS)[0] for k in (1, 2))
    assert abs(two - 2 * one) < 1e-12


def test_quantile_weighs_neighbours():
    assert abs(run._quantile([2.0] * 9, 0.9) - 2.0) < 1e-12
    assert abs(run._quantile(list(range(1, 12)), 0.5) - 6.0) < 1e-12
    assert 9.0 < run._quantile(list(range(1, 12)), 0.9) < 11.0


def test_self_time_subtracts_children():
    recorded = [
        ["zeta_z.mellin", 0.0, 10.0, -1, None],
        ["numerics.gamma", 1.0, 2.0, 0, None],
        ["quadrature.integral", 3.0, 9.0, 0, None],
        ["numerics.i0e", 4.0, 8.0, 2, None],
    ]
    m = spans.layer_metrics(recorded)
    assert m["zeta_z.mellin.self_s"] == 3.0
    assert m["quadrature.integral.self_s"] == 2.0
    assert m["numerics.i0e.self_s"] == 4.0
    assert m["quadrature.i0e_per_integral"] == 1.0
    assert m["trace.span_s"] == 10.0


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} harness checks passed")
