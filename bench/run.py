"""zetakit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; zetakit is imported from its ``src``.
Library workloads run in rounds, each a fresh interpreter (bench/worker.py)
that sets up and then runs the seeded batch once; rounds repeat until the
next one would end after ``--seconds``.  cli-session runs its command script
the same way, one fresh ``python3 -m zetakit.cli`` process per command, one
command at a time.  At most one child process runs at any time; while a
CLI command runs, the parent only takes short reference samples.

Every time an end-to-end metric reports is scaled to a fixed host speed by
reference-task samples taken next to it (bench/speed.py): the host's own
speed drifts too much for raw times to be compared from run to run.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones.  Every result is checked against an
independent oracle (bench/oracles.py) after the timed rounds.  The output is
a listing of every metric by name and unit, one ``{"env": ...}`` line, and
as the last line the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from speed import WINDOW, Reference, scale, scale_one  # noqa: E402
from workloads import CLI_SETUP, WORKLOADS, cli_script, make_ops  # noqa: E402

#: Rounds per run at least.  A traced run alternates untraced and traced
#: rounds and needs one of each.
MIN_ROUNDS = {("lib", False): 3, ("lib", True): 2, ("cli", False): 3, ("cli", True): 2}
#: No round starts once it could end after this many seconds of the run.
RUN_CAP_S = 140
CHILD_TIMEOUT_S = 120
#: Interval of the reference samples taken while a CLI command runs.
SAMPLE_EVERY_S = 0.02
CLI_SETUP_SAMPLES = 9
#: Reference samples the parent takes just before it starts a worker; with
#: the worker's first samples they scale its set-up time.
PRE_SAMPLES = 3


class HarnessError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_child(argv: list, env: dict = None, ref: Reference = None):
    """(wall seconds, exit code, stdout, stderr, reference samples) of one
    child process.  With ``ref`` the parent takes a reference sample every
    ``SAMPLE_EVERY_S`` while the child runs, so that a long command is
    scaled by the host's speed during it; the parent is otherwise idle."""
    samples = []
    start = _now()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        while True:
            try:
                out, err = proc.communicate(timeout=SAMPLE_EVERY_S if ref else CHILD_TIMEOUT_S)
                wall = _now() - start
                break
            except subprocess.TimeoutExpired:
                if ref is None or _now() - start > CHILD_TIMEOUT_S:
                    raise HarnessError(f"{argv} timed out") from None
                samples.append(ref.sample())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return wall, proc.returncode, out, err, samples


def _rounds(kind: str, trace: bool, seconds: float, run_round) -> list:
    """Call ``run_round(traced)`` until the next round would overrun."""
    done, t0 = [], _now()
    while True:
        traced = trace and len(done) % 2 == 1
        r0 = _now()
        done.append(run_round(traced))
        done[-1]["round_s"] = _now() - r0
        elapsed = _now() - t0
        est = statistics.median(r["round_s"] for r in done)
        if len(done) >= MIN_ROUNDS[(kind, trace)] and elapsed + est > seconds:
            return done
        if elapsed + est > RUN_CAP_S:
            return done


# --------------------------------------------------------------------------
# library workloads

def _lib_round(name: str, seed: int, traced: bool, ref: Reference) -> dict:
    pre = [ref.sample() for _ in range(PRE_SAMPLES)]
    start = _now()
    argv = [sys.executable, str(BENCH / "worker.py"), name, str(seed),
            "1" if traced else "0", repr(start)]
    _wall, code, out, err, _samples = _run_child(argv)
    if code != 0:
        raise HarnessError(f"worker failed ({code}): {err.strip()[-2000:]}")
    doc = json.loads(out)
    doc["traced"] = traced
    doc["raw_ref_s"] = pre + doc["ref_s"]
    doc["setup_s"] = scale_one(doc["setup_s"], pre + doc["ref_s"][:WINDOW], ref.bits)
    doc["op_s"] = scale(doc["op_s"], doc["ref_s"], ref.bits)
    return doc


def lib_failures(ops: list, rounds: list, bits: int, tol: float):
    """(failed operations over all rounds, one line per failing input).
    Each oracle is computed once; every round's result is checked."""
    failed, lines = 0, {}
    for i, op in enumerate(ops):
        expected = oracles.oracle(op, bits)
        for r in rounds:
            why = oracles.check(op, r["results"][i], expected, bits, tol)
            if why is not None:
                failed += 1
                lines.setdefault(i, f"{op}: {why}")
    return failed, list(lines.values())


def measure_lib(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    ref = Reference(spec["bits"])
    rounds = _rounds("lib", trace, seconds, lambda t: _lib_round(name, seed, t, ref))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ops = make_ops(name, seed)
    failed, failures = lib_failures(ops, rounds, spec["bits"], spec["tol"])
    plain = [r for r in rounds if not r["traced"]]
    out = {
        "rounds": len(rounds),
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "failures": failures,
        "samples": len(ops),
        "metrics": _end_to_end([r["setup_s"] for r in plain],
                               [r["op_s"] for r in plain], peak_kb),
    }
    if trace:
        traced = [r for r in rounds if r["traced"]]
        per_round = []
        for r in traced:
            m = spans.layer_metrics(r["spans"])
            m["trace.self_share"] = m.pop("trace.span_s") / r["traced_s"]
            per_round.append(m)
        out["layers"] = _median_metrics(per_round)
        out["layers"]["cli.startup_s"] = 0.0
        out["layers"]["host.ref_ms"] = _ref_ms(r["raw_ref_s"] for r in rounds)
        out["layers"]["trace.overhead_s"] = (_batch_s([r["op_s"] for r in traced])
                                             - out["metrics"]["wall_s"])
    return out


# --------------------------------------------------------------------------
# cli-session

def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ZETAKIT_PRECISION_BITS", None)
    return env


def _cli_command(argv: list, traced: bool, ref: Reference) -> dict:
    """One command in a fresh interpreter.  ``scaled_s`` is its wall time
    scaled by the reference samples taken before, during and after it."""
    entry = [str(BENCH / "cli_trace.py")] if traced else ["-m", "zetakit.cli"]
    before = ref.sample()
    wall, code, out, err, during = _run_child([sys.executable, *entry, *argv], _cli_env(), ref)
    refs = [before, *during, ref.sample()]
    cmd = {"argv": argv, "wall_s": wall, "scaled_s": scale_one(wall, refs, ref.bits),
           "ref_s": refs, "code": code, "stdout": out, "stderr": err, "spans": []}
    for line in err.splitlines():
        if line.startswith("elapsed: "):
            cmd["elapsed_s"] = float(line.split()[1].rstrip("s"))
        elif line.startswith(spans.SPAN_MARK):
            cmd["spans"] = json.loads(line[len(spans.SPAN_MARK):])
    return cmd


def _cli_session(script: list, traced: bool, ref: Reference) -> dict:
    cmds = [_cli_command(argv, traced, ref) for argv in script]
    return {"traced": traced, "wall_s": sum(c["wall_s"] for c in cmds), "cmds": cmds}


def _session_layers(session: dict) -> dict:
    """Per-layer metrics of one traced session: the spans of all its
    commands, re-indexed into one list."""
    merged = []
    for cmd in session["cmds"]:
        base = len(merged)
        merged += [[n, s, e, p + base if p >= 0 else -1, a]
                   for n, s, e, p, a in cmd["spans"]]
    m = spans.layer_metrics(merged)
    m["trace.self_share"] = m.pop("trace.span_s") / session["wall_s"]
    m["cli.startup_s"] = sum(c["wall_s"] - c.get("elapsed_s", 0.0) for c in session["cmds"])
    return m


def cli_failures(sessions: list, bits: int) -> list:
    """One line per failed command: a failed oracle, or stdout that differs
    from the same command's stdout in the first session."""
    failures = []
    for s in sessions:
        for i, cmd in enumerate(s["cmds"]):
            why = oracles.check_cli(cmd["argv"], cmd["code"], cmd["stdout"], bits)
            if why is None and cmd["stdout"] != sessions[0]["cmds"][i]["stdout"]:
                why = "stdout differs from the first session's"
            if why is not None:
                failures.append(f"zetakit {' '.join(cmd['argv'])}: {why}")
    return failures


def measure_cli(seed: int, seconds: float, trace: bool) -> dict:
    bits = WORKLOADS["cli-session"]["bits"]
    script = cli_script(seed)
    ref = Reference(bits)
    setup = [_cli_command(CLI_SETUP, False, ref) for _ in range(CLI_SETUP_SAMPLES)]
    for cmd in setup:
        if cmd["code"] != 0:
            raise HarnessError(f"set-up command failed ({cmd['code']}): "
                               f"{cmd['stderr'].strip()[-2000:]}")
    sessions = _rounds("cli", trace, seconds, lambda t: _cli_session(script, t, ref))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures = cli_failures(sessions, bits)
    plain = [s for s in sessions if not s["traced"]]
    out = {
        "rounds": len(sessions),
        "attempted": len(script) * len(sessions),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "samples": len(script),
        "metrics": _end_to_end([c["scaled_s"] for c in setup],
                               [[c["scaled_s"] for c in s["cmds"]] for s in plain],
                               peak_kb),
    }
    if trace:
        traced = [s for s in sessions if s["traced"]]
        out["layers"] = _median_metrics([_session_layers(s) for s in traced])
        out["layers"]["trace.overhead_s"] = (
            _batch_s([[c["scaled_s"] for c in s["cmds"]] for s in traced])
            - out["metrics"]["wall_s"])
        out["layers"]["host.ref_ms"] = _ref_ms(
            c["ref_s"] for c in setup + [c for s in sessions for c in s["cmds"]])
    return out


# --------------------------------------------------------------------------
# metrics and output

def _quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  Operation costs spread over decades, so neighbouring
    order statistics differ by 5-10 %; a single one (nearest rank) jumps by
    that much whenever noise or the seed swaps two operations."""
    x, n = sorted(values), len(values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def _per_op(op_s: list) -> list:
    """Each operation's median latency over the rounds, so that a slow
    stretch of one round is filtered out."""
    return [statistics.median(col) for col in zip(*op_s)]


def _batch_s(op_s: list) -> float:
    """Batch time from per-round operation latencies: the per-operation
    medians, summed."""
    return sum(_per_op(op_s))


def _end_to_end(setup: list, op_s: list, peak_kb: int) -> dict:
    lat = _per_op(op_s)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(lat),
        "op_p50_ms": _quantile(lat, 0.5) * 1e3,
        "op_p90_ms": _quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }


def _ref_ms(samples) -> float:
    """Median raw reference-task time of a run, in ms: the host's speed."""
    return statistics.median(x for batch in samples for x in batch) * 1e3


def _median_metrics(rounds: list) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def _git_sha() -> str:
    """The checkout's commit, or "unknown" where it is not a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def _environment(name: str, seed: int) -> dict:
    import mpmath.libmp
    spec = WORKLOADS[name]
    return {
        "workload": name, "seed": seed, "precision_bits": spec["bits"], "tol": spec["tol"],
        "moves": spec["moves"], "flat": spec["flat"], "git_sha": _git_sha(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    try:
        if not (ROOT / "src" / "zetakit" / "__init__.py").is_file():
            raise HarnessError(f"no zetakit sources under {ROOT / 'src'}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if WORKLOADS[args.workload]["kind"] == "cli":
            res = measure_cli(args.seed, args.seconds, trace)
        else:
            res = measure_lib(args.workload, args.seed, args.seconds, trace)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    values = res["layers"] if trace else res["metrics"]
    wanted = declared["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(f"zetakit bench  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  rounds={res['rounds']}  operations={res['samples']}")
    for m in wanted:
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<34} {res['failed'] / res['attempted']:>14.6g} "
          f"({res['failed']}/{res['attempted']})")
    for line in res["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({"env": _environment(args.workload, args.seed)}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
