"""Command-line behavior: formats, exit codes, determinism, round trips."""

import json
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from zetakit import PrecisionContext, catalan, zeta_zn_closed_poly, zeta_zn_negative_int
from zetakit import cli, verify
from zetakit.cli import _build_parser, _parse_range, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- eval

def test_eval_exact_integer(capsys):
    code, out, err = run_cli(capsys, "eval", "zeta-z", "--s=-3")
    assert code == 0
    assert "value=20" in out
    assert "method=closed-form" in out
    assert "elapsed" in err


def test_eval_pi_digits(capsys):
    code, out, _ = run_cli(capsys, "eval", "z", "--s=0")
    assert code == 0
    # at least ceil(256 * 0.3) = 77 digits of pi
    assert "3.1415926535897932384626433832795028841971693993751" in out


def test_eval_zeta_zn_exact_rational(capsys):
    # exact algebra: zeta_3(1) = (1/4) * 2/sin^2(pi/3) = 2/3,
    # and zeta_3(2) = (1/16) * 2/sin^4(pi/3) = 2/9
    code, out, _ = run_cli(capsys, "eval", "zeta-zn", "--n=3", "--s=1")
    assert code == 0
    assert "value=2/3" in out
    code, out, _ = run_cli(capsys, "eval", "zeta-zn", "--n=3", "--s=2")
    assert code == 0
    assert "value=2/9" in out


def test_eval_zeta_zn_negative(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta-zn", "--n=2", "--s=-3")
    assert code == 0
    assert "value=64" in out


def test_eval_bernoulli_and_catalan(capsys):
    code, out, _ = run_cli(capsys, "eval", "bernoulli", "--k=4")
    assert code == 0 and "value=-1/30" in out
    code, out, _ = run_cli(capsys, "eval", "catalan", "--m=3")
    assert code == 0 and "value=5" in out


@pytest.mark.parametrize("argv, exact", [
    (("eval", "zeta-zn", "--n=5", "--s=-8000"), lambda: zeta_zn_negative_int(5, 8000)),
    (("eval", "catalan", "--m=20000"), lambda: catalan(20000)),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else "")
def test_eval_prints_wide_exact_values_in_full(capsys, argv, exact):
    # integers past the interpreter's 4300-digit limit on str(int)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    value = out.split("value=")[1].split()[0]
    assert len(value) > 4300 and Decimal(value) == Decimal(int(exact()))


def test_eval_deriv(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta-z-deriv", "--s=-2")
    assert code == 0 and "value=-7" in out


def test_eval_riemann_zeta(capsys):
    code, out, _ = run_cli(capsys, "eval", "riemann-zeta", "--s=2")
    assert code == 0 and "1.6449340668482264364724151666" in out


# ---------------------------------------------------------------- exit codes

def test_usage_error_missing_arg(capsys):
    code, out, err = run_cli(capsys, "eval", "zeta-z")
    assert code == 2
    assert out == ""  # no partial output


def test_usage_error_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "zeta-z", "--s=abc"],
    ["eval", "zeta-z", "--s=1/0"],
    ["eval", "zeta-z", "--s=nan"],
    ["eval", "riemann-zeta", "--s=inf"],
    ["sweep", "zeta-zn-direct", "--s=-inf", "--n=4:8"],
    ["extract", "--s=x", "--n-max=100"],
    ["sweep", "zeta-z", "--s=abc:1"],
    ["sweep", "volumes", "--n=0:nan"],
])
def test_malformed_number_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not a finite number" in err


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "1e400", "abc"])
def test_non_finite_tolerance_is_usage_error(capsys, tol):
    # an infinite tolerance would let every check of `verify all` pass
    with pytest.raises(SystemExit) as exc:
        main([f"--tol={tol}", "verify", "all"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a finite number" in captured.err


def test_tolerance_below_float_range(capsys):
    # 1e-400 underflows a float; it is read exactly and met at 2048 bits
    code, out, _ = run_cli(capsys, "--precision-bits", "2048", "--tol", "1e-400",
                           "--format", "json", "eval", "zeta-z", "--s=1/4")
    assert code == 0
    err = json.loads(out)[0]["err"]
    mantissa, exponent = err.split("e")
    assert float(mantissa) > 0 and int(exponent) < -400


@pytest.mark.parametrize("text", ["1e-30", "1/3", "2", "1e-310"])
def test_tolerance_in_float_range_is_the_float(text):
    # the tolerance every earlier call passed, so their stdout is unchanged
    tol = _build_parser().parse_args(["--tol", text, "poly", "--m=1"]).tol
    assert type(tol) is float and tol == float(Fraction(text))


def test_malformed_precision_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ZETAKIT_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta-z", "--s=-3"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [
    (["--tol=0"], None),
    (["--tol=-1e-5"], None),
    (["--tol=-1e-400"], None),
    (["--precision-bits=32"], None),
    (["--max-terms=0"], None),
    ([], "32"),
], ids=["tol-zero", "tol-negative", "tol-negative-below-float", "bits-32",
        "max-terms-0", "env-bits-32"])
def test_out_of_range_global_flag_is_usage_error(capsys, monkeypatch, argv, env):
    # PrecisionContext refuses these values; they are usage errors (exit 2),
    # not domain errors of the evaluation (exit 3)
    if env is not None:
        monkeypatch.setenv("ZETAKIT_PRECISION_BITS", env)
    code, out, err = run_cli(capsys, *argv, "eval", "zeta-z", "--s=-3")
    assert code == 2
    assert out == ""
    assert "usage:" in err


@pytest.mark.parametrize("s", ["2", "-2", "0.5"])
def test_eval_zeta_zn_needs_two_vertices(capsys, s):
    # the exact polynomial, the negative-integer sum and the direct sum all
    # refuse n = 1 alike
    code, out, err = run_cli(capsys, "eval", "zeta-zn", "--n=1", f"--s={s}")
    assert code == 3
    assert out == ""
    assert "DomainError" in err


def test_pole_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "eval", "zeta-z", "--s=1/2")
    assert code == 3
    assert out == ""
    assert "PoleError" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "extract", "--s=1", "--n-max=100")
    assert code == 3
    assert "DomainError" in err


def test_numerical_failure_exit_code(capsys, monkeypatch):
    import zetakit.cli as cli_mod
    from zetakit import IllConditioned

    def broken(*args, **kwargs):
        raise IllConditioned("forced")

    monkeypatch.setattr(cli_mod.asymptotics, "extract_zeta", broken)
    code, out, err = run_cli(capsys, "extract", "--s=0", "--n-max=100")
    assert code == 4
    assert out == ""
    assert "IllConditioned" in err


def test_direct_sum_refusal_names_the_precision(capsys):
    # the sum (about 4e16) rounded back to 64 bits alone misses 1e-12:
    # NoConvergence after one sum, naming the precision, and exit 4
    code, out, err = run_cli(capsys, "--precision-bits", "64", "--tol", "1e-12",
                             "eval", "zeta-zn", "--n=1000", "--s=3.7")
    assert code == 4
    assert out == ""
    assert "NoConvergence" in err and "precision too low" in err and "64 bits" in err


@pytest.mark.parametrize("s, code", [("3/2", 4), ("3/4", 0), ("37/100", 0)])
def test_direct_sum_honours_max_terms(capsys, s, code):
    # n = 10^9: at s = 3/2, a pole of zeta_Z, only the plain sum of 5 * 10^8
    # terms serves and is refused at once; a half-integer or generic
    # exponent takes the large-n route, whose work does not grow with n
    got, out, err = run_cli(capsys, "--max-terms", "1000", "eval", "zeta-zn",
                            "--n=1000000000", f"--s={s}")
    assert got == code
    if code:
        assert out == "" and "NoConvergence" in err and "max_terms" in err
    else:
        assert "method=direct-sum" in out


# ---------------------------------------------------------------- verify

def test_verify_spheres_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "spheres")
    assert code == 0
    assert out.count("[PASS]") == 4
    assert "4/4 checks passed" in out


def test_verify_zeta_z_at_lowest_precision(capsys):
    # 64 bits is the lowest precision PrecisionContext accepts; the
    # finite-difference check must resolve its threshold there too
    code, out, _ = run_cli(capsys, "--precision-bits=64", "--tol=1e-12",
                           "verify", "zeta-z")
    assert code == 0
    assert "5/5 checks passed" in out


def test_verify_times_each_check_on_stderr_only(capsys):
    # each check's wall time goes to stderr, one line per check in suite
    # order; stdout holds the same lines as before timing was reported, no
    # time enters it, and two runs print the same bytes
    argv = ("--precision-bits=64", "--tol=1e-12", "verify", "spheres")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and run_cli(capsys, *argv)[:2] == (0, out)
    results = verify.run_suite("spheres", PrecisionContext(64, 1e-12))
    rows = [f"[PASS] {r.name} (max err {r.max_err:.3e}) {r.detail}" for r in results]
    assert out == "\n".join(rows + ["4/4 checks passed"]) + "\n"
    timed = [line for line in err.splitlines() if line.startswith("check ")]
    assert [line.split(":")[0] for line in timed] == [f"check {r.name}" for r in results]
    assert all(float(line.split(": ")[1].rstrip("s")) >= 0 for line in timed)


def test_verify_corrupt_fails(capsys, monkeypatch):
    # a closed polynomial with the sign of its constant term flipped at m = 2
    # must fail the exactness check; verify looks the function up at call time
    import zetakit.zeta_zn as zzn
    bad = zzn.RationalPolynomial((Fraction(11, 720), Fraction(0), Fraction(1, 72),
                                  Fraction(0), Fraction(1, 720)))
    monkeypatch.setattr(zzn, "zeta_zn_closed_poly",
                        lambda m, ctx=None: bad if m == 2 else zeta_zn_closed_poly(m, ctx))
    code, out, _ = run_cli(capsys, "verify", "zeta-zn")
    assert code == 1
    assert "[FAIL] closed-poly-exactness" in out
    assert str(zeta_zn_closed_poly(2)) == "(n^4 + 10*n^2 - 11)/720"


# ---------------------------------------------------------------- sweep

def test_sweep_zeta_z_flags_pole(capsys):
    code, out, _ = run_cli(capsys, "--format=csv", "sweep", "zeta-z",
                           "--s=-5:0.5:0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,value,err,method"
    assert len(lines) == 1 + 23
    pole_rows = [ln for ln in lines[1:] if ln.endswith(",pole")]
    assert len(pole_rows) == 1 and pole_rows[0].startswith("0.5,")


def test_sweep_volumes_unimodal(capsys):
    code, out, _ = run_cli(capsys, "--format=csv", "sweep", "volumes",
                           "--n=0:20")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    vols = [float(ln.split(",")[1]) for ln in lines]
    assert len(vols) == 21
    assert vols.index(max(vols)) == 6


def test_sweep_geometric_grid(capsys):
    code, out, _ = run_cli(capsys, "--format=csv", "sweep", "zeta-zn-direct",
                           "--s=-1", "--n=4:4096:geometric")
    assert code == 0
    lines = out.strip().splitlines()
    ns = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ns == [4 * 2 ** i for i in range(11)]


def test_sweep_drops_a_point_that_repeats_the_one_before(capsys):
    # at 1e300 the step 1 rounds back to the start: one row, not two
    code, out, _ = run_cli(capsys, "--format=csv", "sweep", "zeta-z", "--s=1e300:1e300")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1e+300,0,0,closed-form"]


def test_sweep_empty_range_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "zeta-z", "--s=5:1:1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("eval", "zeta-z", "--s=-1e300"), ("eval", "z", "--s=-1e300"),
    ("eval", "zeta-z-deriv", "--s=-1e300"), ("extract", "--s=-1e300", "--n-max=20"),
    ("eval", "zeta-z", "--s=-1000000"), ("eval", "zeta-z-deriv", "--s=-100000"),
    ("eval", "zeta-zn", "--n=5", "--s=-20000"), ("eval", "zeta-zn", "--n=1000", "--s=-1e100"),
], ids=" ".join)
def test_huge_negative_arguments_refuse_at_once(capsys, argv):
    # a numerical refusal, exit 4 and named on stderr, within a second: no
    # traceback (exit 1 is a failed verification) and no binomial built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 4 and out == ""
    assert err.startswith(("NoConvergence", "IllConditioned"))


@pytest.mark.parametrize("argv", [
    ("sweep", "zeta-z", "--s=0:1:1e-300"), ("sweep", "volumes", "--n=4:1e300"),
    ("sweep", "zeta-zn-direct", "--s=1/4", "--n=4:1e300"),
    ("sweep", "volumes", f"--n=4:{10 ** 400}"), ("sweep", "zeta-z", f"--s=0:1:{10 ** 400}"),
], ids=lambda argv: " ".join(argv)[:40])
def test_sweep_refuses_ranges_it_cannot_finish(capsys, argv):
    # the points are counted before any is built, and a range past the cap
    # of 10^6 points is a usage error, as is a bound past the float range
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == "" and ("points" in err or "float range" in err)


def test_sweep_cap_is_on_the_point_count(monkeypatch):
    monkeypatch.setattr(cli, "_SWEEP_MAX_POINTS", 10)
    assert _parse_range("0:9", True) == list(range(10))
    with pytest.raises(cli._Usage, match="more than 10 points"):
        _parse_range("0:10", True)


def _range_by_steps(a, b, h):
    """The points a + k h <= b + 1e-12, k = 0, 1, ..., stepped one by one."""
    out, k = [], 0
    while a + k * h <= b + 1e-12:
        out.append(a + k * h)
        k += 1
    return out


def test_sweep_range_counts_the_stepped_points():
    # 2000 seeded ranges, steps that divide the span and steps that do not:
    # the counted range holds exactly the points of one step at a time
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.choice([0.0, rng.uniform(-5, 5), float(rng.randint(-9, 9))])
        h = rng.choice([0.1, 0.25, 1 / 3, rng.uniform(0.01, 2), 1.0])
        b = a + rng.choice([h * rng.randint(0, 40), rng.uniform(0, 30)])
        assert _parse_range(f"{a!r}:{b!r}:{h!r}", False) == _range_by_steps(a, b, h)


def test_geometric_range_ends_at_the_float_range():
    # doubling up to the largest float stops there instead of running on
    # through inf
    assert len(_parse_range("1:1.7976931348623157e308:geometric", False)) == 1024


# ---------------------------------------------------------------- extract

def test_extract_zeta_zero(capsys):
    code, out, _ = run_cli(capsys, "extract", "--s=0", "--n-max=2000")
    assert code == 0
    rec = dict(kv.split("=", 1) for kv in out.split())
    assert abs(float(rec["estimate"]) + 0.5) < 1e-6
    assert float(rec["abs_error"]) < 1e-6


# ---------------------------------------------------------------- volumes/poly

def test_volumes_table(capsys):
    code, out, _ = run_cli(capsys, "--format=csv", "volumes", "--n-max=3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,gamma_route,z_product,abs_diff"
    assert len(lines) == 5
    assert lines[1].startswith("0,2")


def test_volumes_at_the_lowest_precision(capsys):
    # both routes up to n = 79 at 64 bits: the Z(-j) factors and the Gamma
    # volume meet 1e-12 on their own values
    code, out, _ = run_cli(capsys, "--precision-bits", "64", "--tol", "1e-12",
                           "--format=csv", "volumes", "--n-max=79")
    assert code == 0
    assert len(out.strip().splitlines()) == 81


def test_poly_command(capsys):
    code, out, _ = run_cli(capsys, "poly", "--m=2")
    assert code == 0
    assert "(n^4 + 10*n^2 - 11)/720" in out


# ---------------------------------------------------------------- formats

def test_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--format=json", "eval", "zeta-z", "--s=-3")
    assert code == 0
    records = json.loads(out)
    assert records[0]["value"] == "20"
    assert records[0]["exact"] is True
    assert json.loads(json.dumps(records)) == records


def test_csv_scientific_notation(capsys):
    code, out, _ = run_cli(capsys, "--format=csv", "eval", "z", "--s=0")
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[1]
    assert value.startswith("3.1415926535897932384626433832795") and "e+0" in value


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "--format=json", "sweep", "zeta-z",
                         "--s=-2:0:0.5")
    _, out2, _ = run_cli(capsys, "--format=json", "sweep", "zeta-z",
                         "--s=-2:0:0.5")
    assert out1 == out2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ZETAKIT_PRECISION_BITS", "128")
    code, out, _ = run_cli(capsys, "eval", "z", "--s=0")
    assert code == 0
    # ceil(128 * 0.3) = 39 digits requested; the 77-digit rendering is gone
    value = out.split("value=")[1].split()[0]
    digits = sum(c.isdigit() for c in value)
    assert 38 <= digits <= 42


def test_precision_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ZETAKIT_PRECISION_BITS", "128")
    code, out, _ = run_cli(capsys, "--precision-bits=256", "eval", "z", "--s=0")
    assert code == 0
    assert "3.1415926535897932384626433832795028841971693993751" in out
