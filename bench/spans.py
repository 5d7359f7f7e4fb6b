"""Tracing for the benchmark's traced rounds, built from the bench's own files.

``install`` replaces the module-boundary names each caller inside zetakit
looks up at call time (``numerics.gamma``, ``quadrature._i0e_raw``,
``zeta_z.heat_mellin_integral`` ...) with wrappers that record one span per
call: name, start, end, parent span and a few attributes.  Spans stay in
memory until the round ends; ``layer_metrics`` turns them into per-layer
counts and self times (span time minus the time of its child spans).
"""

from __future__ import annotations

import statistics
from time import perf_counter

# (module, attribute, span name).  Where a caller imported a name directly,
# its own module attribute is the one to replace.
TARGETS = [
    ("numerics", "gamma", "numerics.gamma"),
    ("numerics", "digamma", "numerics.digamma"),
    ("numerics", "riemann_zeta_numeric", "numerics.riemann_zeta"),
    ("quadrature", "_i0e_raw", "numerics.i0e"),
    ("zeta_z", "heat_mellin_integral", "quadrature.integral"),
    ("zeta_z", "zeta_z_closed", "zeta_z.closed"),
    ("zeta_z", "zeta_z_product", "zeta_z.product"),
    ("zeta_z", "zeta_z_mellin", "zeta_z.mellin"),
    ("zeta_z", "zeta_z_deriv", "zeta_z.deriv"),
    ("zeta_zn", "zeta_zn_direct", "zeta_zn.direct"),
    ("zeta_zn", "sine_power_sum", "zeta_zn.sine_power_sum"),
    ("asymptotics", "sine_power_sum", "zeta_zn.sine_power_sum"),
    ("zeta_zn", "zeta_zn_closed_poly", "zeta_zn.closed_poly"),
    ("zeta_zn", "sine_odd_power_sum", "zeta_zn.cot_sum"),
    ("asymptotics", "extract_zeta", "asymptotics.extract"),
    ("spheres", "sphere_volume_zproduct", "spheres.zproduct"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
]

#: Prefix of the stderr line on which a traced CLI command reports its spans.
SPAN_MARK = "zetakit-bench-spans "

#: Layers reported with ``.calls`` and ``.self_s``.
LAYERS = sorted({name for _, _, name in TARGETS})


def _folded_terms(args, kwargs, _out) -> dict:
    """Terms a sine-power sum folds over, from its inputs."""
    n = getattr(args[0], "n", args[0])
    return {"terms": n // 2 if kwargs.get("fold", True) else n - 1}


def _direct_terms(args, kwargs, out) -> dict:
    """As ``_folded_terms``; s = 0 returns n - 1 exactly, without a sum."""
    return {"terms": 0} if args[1] == 0 else _folded_terms(args, kwargs, out)


def _slack_bits(args, kwargs, out) -> dict:
    """log2(tol / err): accuracy delivered beyond the tolerance asked for."""
    from zetakit.core import get_context
    ctx = get_context(args[1] if len(args) > 1 else kwargs.get("ctx"))
    return {"slack_bits": float(ctx.mp.log(ctx.tol / out.err, 2))}


def _checks(_args, _kwargs, out) -> dict:
    return {"checks": len(out), "checks_failed": sum(not r.passed for r in out)}


_ATTRS = {
    "zeta_zn.direct": _direct_terms,
    "zeta_zn.sine_power_sum": _folded_terms,
    "zeta_z.product": _slack_bits,
    "verify.run_suite": _checks,
}


class Recorder:
    """Spans as [name, start, end, parent index or -1, attrs or None]."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; one wrapper per original function."""
        import importlib
        wrapped = {}
        for module, attr, name in TARGETS:
            mod = importlib.import_module(f"zetakit.{module}")
            fn = getattr(mod, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(name, fn)
            setattr(mod, attr, wrapped[id(fn)])


def layer_metrics(spans: list) -> dict:
    """Per-layer calls, self times and ratios of one traced round."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    terms = {"zeta_zn.direct": 0, "zeta_zn.sine_power_sum": 0}
    product_ms, slack, checks, failed = [], [], 0, 0
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        attrs = attrs or {}
        if name in terms:
            terms[name] += attrs.get("terms", 0)
        elif name == "zeta_z.product":
            product_ms.append((end - start) * 1e3)
            if "slack_bits" in attrs:
                slack.append(attrs["slack_bits"])
        elif name == "verify.run_suite" and attrs:
            checks += attrs["checks"]
            failed += attrs["checks_failed"]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, count in terms.items():
        out[f"{name}.terms"] = count
        out[f"{name}.us_per_term"] = self_s[name] / count * 1e6 if count else 0.0
    out["zeta_z.product.p50_ms"] = statistics.median(product_ms) if product_ms else 0.0
    out["zeta_z.product.slack_bits"] = statistics.median(slack) if slack else 0.0
    integrals = calls["quadrature.integral"]
    out["quadrature.i0e_per_integral"] = (calls["numerics.i0e"] / integrals
                                          if integrals else 0.0)
    out["verify.checks"] = checks
    out["verify.checks_failed"] = failed
    out["trace.span_s"] = sum(end - start for _n, start, end, parent, _a in spans
                              if parent < 0)
    return out
