"""Independent oracles for every benchmarked operation.

They run in the parent process after all timed rounds, never inside a timed
interval or a trace span.  A result fails when the operation raised, when its
reported ``err`` exceeds the tolerance, or when it is further from the oracle
than ``err`` plus the oracle's own rounding.  The oracles:

* zeta_Z (all three routes), its derivative and the sphere volumes: the
  Gamma formula in a separate mpmath context at twice the bits; the
  derivative through digamma;
* zeta_Z at the nonpositive integers: ``math.comb`` (central binomials);
* Riemann zeta: mpmath's zeta at twice the bits;
* discrete-circle sums: ``zeta_zn_negative_int`` at negative integers, the
  cotangent route (``sine_odd_power_sum`` at twice the bits) at negative
  half-integers, ``csc_power_polynomial`` at positive integers and for the
  closed polynomials, and a plain mpmath sum at twice the bits elsewhere;
* extraction: acceptance criterion 8's thresholds on |estimate - zeta(s)|.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb

from mpmath.ctx_mp import MPContext

from workloads import EXTRACT_LIMITS

GUARD_BITS = 30


def oracle_context(bits: int) -> MPContext:
    mp = MPContext()
    mp.prec = 2 * (bits + GUARD_BITS)
    return mp


def _num(mp, x):
    """A bench input or an mp number as an mp number of this context (exact
    for the dyadic bench inputs)."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.convert(x)


def decode(mp, enc: list):
    v = mp.mpc(mp.mpf((enc[0], enc[1])), mp.mpf((enc[2], enc[3])))
    return v.real if enc[2] == 0 else v


def zeta_z(mp, s):
    """zeta_Z(s) = 4^(-s) Gamma(1/2-s) / (sqrt(pi) Gamma(1-s)); exact at the
    nonpositive integers."""
    if isinstance(s, int) and s <= 0:
        return Fraction(comb(-2 * s, -s))
    z = _num(mp, s)
    return mp.power(4, -z) * mp.gamma(mp.mpf(1) / 2 - z) / (mp.sqrt(mp.pi) * mp.gamma(1 - z))


def zeta_z_deriv(mp, s):
    z = _num(mp, s)
    zc = zeta_z(mp, s)
    zc = _num(mp, zc) if isinstance(zc, Fraction) else zc
    return zc * (-mp.digamma(mp.mpf(1) / 2 - z) - 2 * mp.log(2) + mp.digamma(1 - z))


def sphere_volume(mp, n: int):
    if n == 0:
        return Fraction(2)
    h = mp.mpf(n + 1) / 2
    return 2 * mp.power(mp.pi, h) / mp.gamma(h)


def plain_sine_sum(mp, n: int, power):
    """sum_{k=1}^{n-1} sin(pi k/n)^power, term by term, no folding."""
    p = _num(mp, power)
    return mp.fsum(mp.power(mp.sin(mp.pi * k / n), p) for k in range(1, n))


def zeta_zn(mp, n: int, s, bits: int):
    """(oracle, oracle error) for the discrete-circle zeta at (n, s)."""
    import zetakit
    if isinstance(s, int) and s < 0:
        return Fraction(zetakit.zeta_zn_negative_int(n, -s)), 0
    if isinstance(s, int) and s > 0:
        return zetakit.csc_power_polynomial(s).evaluate(n), 0
    if isinstance(s, float) and s < 0 and (2 * s) % 2 == 1:
        ctx = zetakit.PrecisionContext(2 * (bits + GUARD_BITS))
        r = zetakit.sine_odd_power_sum(n, int(-s - 0.5), ctx)
        return mp.convert(r.value.value.real), mp.convert(r.err)
    z = _num(mp, s)
    return mp.power(4, -z) * plain_sine_sum(mp, n, -2 * z), 0


def oracle(op: tuple, bits: int):
    """(oracle value, its own error) for one operation.  The value is a
    Fraction when exact, a coefficient tuple for polynomials."""
    mp = oracle_context(bits)
    kind, *args = op
    if kind in ("closed", "product", "mellin"):
        return zeta_z(mp, args[0]), 0
    if kind == "deriv":
        return zeta_z_deriv(mp, args[0]), 0
    if kind == "zproduct":
        return sphere_volume(mp, args[0]), 0
    if kind == "riemann":
        return mp.zeta(_num(mp, args[0])), 0
    if kind == "direct":
        return zeta_zn(mp, args[0], args[1], bits)
    if kind == "cot":
        n, m = args
        return mp.mpf(2) ** (2 * m + 1) * plain_sine_sum(mp, n, 2 * m + 1), 0
    if kind == "poly":
        import zetakit
        return tuple(zetakit.csc_power_polynomial(args[0]).coeffs), 0
    if kind == "extract":
        return mp.zeta(_num(mp, args[0])), 0
    raise KeyError(kind)


def check(op: tuple, res: dict, expected, bits: int, tol: float):
    """None when ``res`` passes its oracle, else the reason it fails."""
    if "exc" in res:
        return res["exc"]
    kind = op[0]
    if kind == "poly":
        got = tuple(Fraction(c) for c in res["coeffs"])
        return None if got == expected[0] else "coefficients differ from csc_power_polynomial"
    mp = oracle_context(bits)
    value, oerr = expected
    got = decode(mp, res["v"])
    if kind == "extract":
        limit = EXTRACT_LIMITS[op[1]]
        diff = abs(got - value)
        return None if diff <= limit else f"|estimate - zeta| = {mp.nstr(diff, 3)} > {limit}"
    err = decode(mp, res["e"])
    exact = res.get("x")
    if err > tol:
        return f"err {mp.nstr(err, 3)} exceeds tol {tol}"
    if isinstance(value, Fraction):
        if exact is not None:
            return None if Fraction(exact) == value else f"exact {exact} != {value}"
        value = _num(mp, value)
    elif exact is not None:
        got = _num(mp, Fraction(exact))
    slack = mp.convert(oerr) + (abs(value) + 1) * mp.mpf(2) ** (8 - mp.prec)
    diff = abs(got - value)
    if diff > err + slack:
        return f"|value - oracle| = {mp.nstr(diff, 3)} > err {mp.nstr(err, 3)}"
    return None


# --------------------------------------------------------------------------
# cli-session

def parse_plain(stdout: str) -> dict:
    """The first record of a plain-format CLI output as a dict."""
    line = stdout.splitlines()[0]
    return dict(tok.split("=", 1) for tok in line.split("  "))


def check_cli(argv: list, code: int, stdout: str, bits: int):
    """None when a cli-session command passes its oracle, else the reason."""
    if code != 0:
        return f"exit code {code}"
    if argv[:2] == ["verify", "all"]:
        lines = stdout.splitlines()
        bad = [ln for ln in lines[:-1] if not ln.startswith("[PASS]")]
        passed, total = lines[-1].split()[0].split("/")
        return None if not bad and passed == total else f"verify: {bad or lines[-1]}"
    if argv[0] == "poly":
        import zetakit
        m = int(argv[1].split("=")[1])
        got = tuple(Fraction(c) for c in parse_plain(stdout)["coeffs"].split())
        want = tuple(zetakit.csc_power_polynomial(m).coeffs)
        return None if got == want else "poly coefficients differ"
    if argv[0] == "extract":
        mp = oracle_context(bits)
        rec = parse_plain(stdout)
        s = Fraction(rec["s"])
        diff = abs(mp.mpf(rec["estimate"]) - mp.zeta(_num(mp, s)))
        limit = EXTRACT_LIMITS[int(s) if s.denominator == 1 else float(s)]
        return None if diff <= limit else f"extract off by {mp.nstr(diff, 3)}"
    if argv[0] != "eval":
        return None
    mp = oracle_context(bits)
    rec = parse_plain(stdout)
    s = Fraction(rec["s"])
    target = argv[1]
    if target == "zeta-z":
        want = zeta_z(mp, s)
    elif target == "z":
        inner = zeta_z(mp, s / 2)
        want = mp.pi * mp.power(2, _num(mp, s)) * _num(mp, inner)
    elif target == "zeta-zn":
        want, _ = zeta_zn(mp, int(rec["n"]), s, bits)
    elif target == "zeta-z-deriv":
        want = zeta_z_deriv(mp, s)
    else:
        want = mp.zeta(_num(mp, s))
    want = _num(mp, want) if isinstance(want, Fraction) else want
    got = (_num(mp, Fraction(rec["value"])) if rec["exact"] == "True"
           else mp.mpf(rec["value"]))
    digits = ceil(0.3 * bits)
    allowed = mp.mpf(rec["err"]) + (abs(want) + 1) * mp.mpf(10) ** (1 - digits)
    diff = abs(got - want)
    return None if diff <= allowed else f"value off by {mp.nstr(diff, 3)}"
