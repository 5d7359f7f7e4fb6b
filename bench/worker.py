"""One round of a library workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACED START

START is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so set-up time counts from a fresh interpreter.  The
round imports zetakit from the checkout's ``src``, calls every entry point
the workload uses once (set-up), runs the seeded batch once (timed), and
prints one JSON document: set-up time, per-operation latencies, the
reference-task samples taken before every operation and after the last
(bench/speed.py), the encoded results and, when TRACED is 1, the recorded
spans.  All times are raw; the parent scales them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import Reference  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_zetakit():
    import zetakit
    if Path(zetakit.__file__).resolve().parent != ROOT / "src" / "zetakit":
        sys.exit(f"zetakit imported from {zetakit.__file__}, not from the checkout")
    return zetakit


def setup(zk, name: str, ctx) -> None:
    """Call every entry point the batch uses once at the batch's precision.

    lattice-strip fills the Mellin node and Bessel cache down to Re s = 0.02
    and, for complex points, Re s = 0.1.  circle-sums leaves
    zeta_zn_closed_poly cold on purpose: the batch times it cold, once per
    process, as every CLI call pays it.
    """
    if name == "lattice-strip":
        zk.zeta_z.zeta_z_closed(0.25, ctx)
        zk.zeta_z.zeta_z_product(0.25, ctx)
        zk.zeta_z.zeta_z_mellin(0.02, ctx)
        zk.zeta_z.zeta_z_mellin(complex(0.1, 0.3), ctx)
    elif name == "lattice-deep":
        zk.zeta_z.zeta_z_closed(-1.3, ctx)
        zk.zeta_z.zeta_z_product(-1.3, ctx)
        zk.zeta_z.zeta_z_deriv(-1.3, ctx)
        zk.spheres.sphere_volume_zproduct(3, ctx)
        zk.numerics.riemann_zeta_numeric(2.5, ctx)
    elif name == "circle-sums":
        zk.zeta_zn.zeta_zn_direct(7, 1.5, ctx)
        zk.zeta_zn.zeta_zn_direct(7, complex(1.5, 0.5), ctx)
        zk.zeta_zn.sine_odd_power_sum(7, 2, ctx)
        zk.asymptotics.extract_zeta(-1, 16, 64, ctx, points=4)
    else:
        raise KeyError(name)


def run_op(zk, op: tuple, ctx):
    """Call the library for one operation; module attributes are looked up
    at call time so that a traced round sees the wrapped names."""
    kind, *args = op
    if kind == "closed":
        return zk.zeta_z.zeta_z_closed(args[0], ctx)
    if kind == "product":
        return zk.zeta_z.zeta_z_product(args[0], ctx)
    if kind == "mellin":
        return zk.zeta_z.zeta_z_mellin(args[0], ctx)
    if kind == "deriv":
        return zk.zeta_z.zeta_z_deriv(args[0], ctx)
    if kind == "zproduct":
        return zk.spheres.sphere_volume_zproduct(args[0], ctx)
    if kind == "riemann":
        return zk.numerics.riemann_zeta_numeric(args[0], ctx)
    if kind == "direct":
        return zk.zeta_zn.zeta_zn_direct(args[0], args[1], ctx)
    if kind == "cot":
        return zk.zeta_zn.sine_odd_power_sum(args[0], args[1], ctx)
    if kind == "poly":
        return zk.zeta_zn.zeta_zn_closed_poly(args[0], ctx)
    if kind == "extract":
        return zk.asymptotics.extract_zeta(args[0], args[1], args[2], ctx)
    raise KeyError(kind)


def encode_number(mp, x) -> list:
    """[re mantissa, re exponent, im mantissa, im exponent], exactly."""
    x = mp.mpc(x)
    out = []
    for part in (x.real, x.imag):
        sign, man, exp, _ = part._mpf_
        out += [-man if sign else man, exp]
    return out


def encode_result(zk, mp, out) -> dict:
    """What the oracles need from a result: value, err and exact part."""
    if isinstance(out, zk.zeta_zn.RationalPolynomial):
        return {"coeffs": [str(c) for c in out.coeffs]}
    if isinstance(out, zk.asymptotics.ZetaExtraction):
        return {"v": encode_number(mp, out.estimate.value),
                "e": encode_number(mp, out.estimate.err)}
    exact = getattr(out, "exact", None)
    value = out.value.value if isinstance(out, zk.EvalResult) else out.value
    return {"v": encode_number(mp, value), "e": encode_number(mp, out.err),
            "x": str(exact) if exact is not None else None}


def main(argv: list) -> int:
    name, seed, traced, start = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    spec = WORKLOADS[name]
    zk = _import_zetakit()
    recorder = None
    if traced:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
    ctx = zk.PrecisionContext(spec["bits"], spec["tol"])
    ops = make_ops(name, seed)
    t_setup = _now()
    setup(zk, name, ctx)
    t_ready = _now()
    ref = Reference(spec["bits"])
    outs, lat, refs = [], [], []
    for op in ops:
        refs.append(ref.sample())
        t0 = time.perf_counter()
        try:
            out = run_op(zk, op, ctx)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    refs.append(ref.sample())
    results = [{"exc": f"{type(out).__name__}: {out}"} if isinstance(out, Exception)
               else encode_result(zk, ctx.mp, out) for out in outs]
    doc = {
        "setup_s": t_ready - start,
        "traced_s": t_ready - t_setup + sum(lat),
        "op_s": lat,
        "ref_s": refs,
        "results": results,
        "spans": recorder.spans if recorder else None,
    }
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
