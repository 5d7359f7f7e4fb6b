"""Command-line behavior: formats, exit codes, determinism, round trips."""

import json

import pytest

from zetakit import zeta_zn_closed_poly
from zetakit.cli import main


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


def test_malformed_precision_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ZETAKIT_PRECISION_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "zeta-z", "--s=-3"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


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


def test_verify_corrupt_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "zeta-zn", "--corrupt")
    assert code == 1
    assert "[FAIL] closed-poly-exactness" in out
    # the poisoned cache entry is restored afterwards
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


def test_sweep_empty_range_rejected(capsys):
    code, _, err = run_cli(capsys, "sweep", "zeta-z", "--s=5:1:1")
    assert code == 2


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
