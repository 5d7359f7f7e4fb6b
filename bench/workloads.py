"""Workload definitions: seeded inputs, set-up calls and the operations.

Each workload is a fixed batch of operations generated from the seed alone;
the library only ever sees those generated inputs.  Inputs are Python floats,
ints and complex numbers (all dyadic), so the benchmark and its oracles read
exactly the same numbers at any precision.

Inputs are stratified: every seed draws one point per stratum of the input
range, so the cost of a batch moves little from seed to seed while the points
themselves change.
"""

from __future__ import annotations

import math
import random

#: Each workload's kind, precision and tolerance (the PrecisionContext of
#: every call), and the layer metrics it should move or leave flat.  Why each
#: was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "lattice-strip": {
        "kind": "lib",
        "bits": 256,
        "tol": 1e-30,
        "moves": ["zeta_z.product.*", "zeta_z.mellin.*", "quadrature.integral.*",
                  "numerics.i0e.* (set-up fill)", "numerics.gamma.*"],
        "flat": ["zeta_zn.*", "asymptotics.*", "spheres.*"],
    },
    "lattice-deep": {
        "kind": "lib",
        "bits": 1024,
        "tol": 1e-120,
        "moves": ["zeta_z.product.*", "zeta_z.closed.*", "zeta_z.deriv.*",
                  "numerics.gamma.*", "numerics.digamma.*",
                  "numerics.riemann_zeta.*", "spheres.zproduct.*"],
        "flat": ["numerics.i0e.*", "quadrature.*", "zeta_zn.*"],
    },
    "circle-sums": {
        "kind": "lib",
        "bits": 256,
        "tol": 1e-30,
        "moves": ["zeta_zn.direct.*", "zeta_zn.sine_power_sum.*",
                  "zeta_zn.closed_poly.*", "zeta_zn.cot_sum.*",
                  "asymptotics.extract.*", "numerics.riemann_zeta.*"],
        "flat": ["zeta_z.product.*", "zeta_z.mellin.*", "quadrature.*",
                 "numerics.i0e.*"],
    },
    "cli-session": {
        "kind": "cli",
        "bits": 256,
        "tol": 1e-30,
        "moves": ["cli.startup_s", "cli.main.self_s", "verify.*",
                  "numerics.i0e.*", "numerics.gamma.*",
                  "zeta_zn.sine_power_sum.*"],
        "flat": [],
    },
}

#: extract_zeta grid of circle-sums; criterion 8 thresholds on |estimate - zeta|.
EXTRACT_N = (16, 4096)
EXTRACT_LIMITS = {0: 1e-6, -1: 1e-5, -3: 1e-4, -0.5: 1e-5}


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """One uniform draw in each of ``count`` equal strata of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


def _log_stratified_ints(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """Integers log-uniform in [lo, hi], one per logarithmic stratum."""
    logs = _stratified(rng, count, math.log(lo), math.log(hi))
    return [min(hi, max(lo, round(math.exp(x)))) for x in logs]


def _draw(rng: random.Random, lo: float, hi: float, ok) -> float:
    """A uniform draw in [lo, hi) for which ``ok`` holds."""
    while True:
        x = rng.uniform(lo, hi)
        if ok(x):
            return x


def _off_lattice(x: float) -> bool:
    """At least 0.02 from every integer and half-integer."""
    return abs(2 * x - round(2 * x)) >= 0.04


def make_ops(name: str, seed: int) -> list:
    """The batch of one workload as a list of (operation, *arguments)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "lattice-strip":
        return _lattice_strip(rng)
    if name == "lattice-deep":
        return _lattice_deep(rng)
    if name == "circle-sums":
        return _circle_sums(rng)
    raise KeyError(name)


def _lattice_strip(rng: random.Random) -> list:
    # 50 points in 0 < Re s < 1/2, one in five complex.  Complex points keep
    # Re s >= 0.1: nearer the axis they need deeper tanh-sinh levels than the
    # set-up fills, and the batch would time cache fills instead of routes.
    reals = iter(_stratified(rng, 40, 0.02, 0.48))
    cim = _stratified(rng, 10, -0.3, 0.3)
    rng.shuffle(cim)
    cplx = iter([complex(re, im) for re, im in zip(_stratified(rng, 10, 0.10, 0.45), cim)])
    points = [next(cplx) if i % 5 == 0 else next(reals) for i in range(50)]
    return [(route, s) for s in points for route in ("closed", "product", "mellin")]


def _lattice_deep(rng: random.Random) -> list:
    # 8 off-lattice reals in (-4, 1/2), one per stratum, plus 2 negative
    # integers, which take the exact central-binomial paths (s = 0 is left
    # out: its product is trivial, and drawing it would swing the batch cost)
    width = 4.5 / 8
    points = [_draw(rng, -4.0 + i * width, -4.0 + (i + 1) * width, _off_lattice)
              for i in range(8)]
    points += rng.sample(range(-4, 0), 2)
    ops = [(route, s) for s in points for route in ("closed", "product", "deriv")]
    ops += [("zproduct", n) for n in range(21)]
    width = 18.0 / 10
    ops += [("riemann", _draw(rng, -8.0 + i * width, -8.0 + (i + 1) * width,
                              lambda x: abs(x - 1) > 0.05))
            for i in range(10)]
    return ops


def _circle_sums(rng: random.Random) -> list:
    # 100 direct sums, n log-uniform in 2..10^4; sorted n dealt round-robin
    # to five kinds of s so that each kind meets small and large n.
    ns = _log_stratified_ints(rng, 100, 2, 10_000)
    ops = []
    for i, n in enumerate(ns):
        kind = i % 5
        if kind == 0:
            s = -rng.randint(1, 6)                       # negative integer
        elif kind == 1:
            s = -0.5 - rng.randint(0, 4)                 # negative half-integer
        elif kind == 2:
            s = rng.randint(1, 4)                        # positive integer
        elif kind == 3:
            s = _draw(rng, -3.0, 4.0, _off_lattice)      # generic real
        else:
            s = complex(rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 2.0))
        ops.append(("direct", n, s))
    ops += [("cot", n, rng.randint(0, 8))
            for n in _log_stratified_ints(rng, 20, 2, 1000)]
    ops += [("poly", m) for m in range(1, 9)]
    ops += [("extract", s, *EXTRACT_N) for s in EXTRACT_LIMITS]
    rng.shuffle(ops)
    return ops


def cli_script(seed: int) -> list:
    """The cli-session commands (argument lists for ``zetakit``)."""
    rng = random.Random(f"cli-session:{seed}")
    return [
        ["eval", "zeta-z", f"--s={rng.randint(1, 31)}/64"],
        ["eval", "z", f"--s={rng.randint(1, 15)}/16"],
        ["eval", "zeta-zn", f"--n={rng.randint(3, 500)}", f"--s={2 * rng.randint(0, 5) + 1}/4"],
        ["eval", "zeta-z-deriv", f"--s=-{rng.randint(1, 63)}/16"],
        ["eval", "riemann-zeta", f"--s={rng.choice([k for k in range(2, 41) if k != 8])}/8"],
        ["sweep", "zeta-z", "--s=-5:0.5:0.25"],
        ["sweep", "zeta-zn-direct", f"--s={rng.choice(['-1', '1/2', '3/2', '-3/2', '2'])}",
         "--n=4:4096:geometric"],
        ["extract", "--s=-1", "--n-max=10000"],
        ["volumes", "--n-max=20"],
        ["poly", "--m=4"],
        ["verify", "all"],
    ]


#: The set-up command of cli-session: one trivial evaluation.
CLI_SETUP = ["eval", "zeta-z", "--s=-3"]
