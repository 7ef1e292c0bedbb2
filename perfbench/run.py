"""End-to-end and per-layer benchmark of the paratori CLI.

    python3 perfbench/run.py --workload torus2 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each CLI run is a fresh child
process (closed loop, one client, one process at a time, BLAS pinned to one
thread) whose artifacts pass the correctness gate before it counts.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of two traced
in-process replays (see replay_traced.py).  Every result set, with the
environment it ran in, is written to perfbench/out/.

This process imports nothing from paratori or numpy: a child started with
vfork reports the parent's resident high-water mark as its own, so the
parent must stay smaller than any child for ``peak_rss_mb`` to be the
child's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from workloads import ABS_TOL, DEFAULT_SEED, REL_TOL, WORKLOADS, Workload, cli_args

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
TRACED_REPEATS = 2
# a traced replay takes up to this many times an untraced run
TRACE_SLOWDOWN = 1.5
# children are killed once this much has passed since the start, so that
# a hung program still ends the benchmark within its 180 s
DEADLINE_S = 170.0

# Per-layer metrics on the last line of a traced run.  The traced replay
# also reports celestial.build_s, celestial.rhs_s, dynamics.integrate_s,
# verify.fit_total_s and verify.fit_s; they are printed and stored but not
# on the last line, because each is exactly 0 on the workloads that never
# call its layer.
PER_LAYER = (
    "cli.import_s", "model.load_s",
    "cohomology.solve_total_s", "cohomology.extend_order_s",
    "cohomology.invariance_error_s", "cohomology.invariance_error_calls",
    "jet.compose_s", "jet.compose_calls", "jet.jet_mul_s", "jet.jet_mul_calls",
    "jet.evaluate_s", "jet.evaluate_calls",
    "fourier.construct_s", "fourier.construct_calls",
    "fourier.series_mul_s", "fourier.series_mul_calls", "fourier.series_mul_pairs",
    "fourier.evaluate_s", "fourier.evaluate_calls",
    "fourier.sd_solve_s", "fourier.sd_solve_calls",
    "verify.points", "verify.attempts", "dynamics.rhs_calls",
    "serialize.dump_s", "serialize.bytes",
    "trace_overhead_s",
)
# trace metrics that must repeat exactly between traced replays
COUNTS = tuple(k for k in PER_LAYER if not k.endswith("_s"))


class BenchError(Exception):
    """The benchmark could not measure this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    The child is killed at ``deadline`` (a ``time.perf_counter`` value).

    ``wait4`` reports the resource usage of this child alone, where
    ``RUSAGE_CHILDREN`` would be a maximum over every child so far.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def python(script: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / script), *args]


def last_json_line(log: Path) -> dict:
    lines = log.read_text().strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# ------------------------------------------------------------------ inputs


def prepare(w: Workload, seed: int, rundir: Path, deadline: float) -> dict:
    """Write the run's inputs; return the values the correctness gate expects."""
    expect = {"a_bar": w.a_bar, "b": w.b, "model": None, "config": None}
    if w.config:
        expect["config"] = str(rundir / "config.json")
        Path(expect["config"]).write_text(json.dumps(w.config, sort_keys=True) + "\n")
    if w.generated:
        model = rundir / "model.json"
        log = rundir / "generate.log"
        code, _, _ = run_child(python("torus2.py", "--seed", str(seed), "--out", str(model)), log,
                               deadline)
        if code != 0:
            raise BenchError(f"{w.name}: model generator exited {code}; see {log}")
        ref = last_json_line(log)
        expect.update(model=str(model), a_bar=ref["a_bar"], b=ref["b"])
        if seed == DEFAULT_SEED:
            expect["b_recorded"] = w.b_at_default_seed
    return expect


def measure_setup(w: Workload, expect: dict, rundir: Path, repeats: int,
                  deadline: float) -> tuple[list[float], dict]:
    """``repeats`` set-up times, after one untimed set-up that fills caches."""
    argv = python("setup_probe.py", w.name, *([expect["model"]] if expect["model"] else []))
    times = []
    info = {}
    for i in range(repeats + 1):
        log = rundir / f"setup{i}.log"
        code, wall, _ = run_child(argv, log, deadline)
        if code != 0:
            raise BenchError(f"{w.name}: set-up exited {code}; see {log}")
        if i == 0:
            info = last_json_line(log)
            if not Path(info["paratori_file"]).resolve().is_relative_to(SRC.resolve()):
                raise BenchError(f"imported paratori from {info['paratori_file']}, not {SRC}")
        else:
            times.append(wall)
    return times, info


# ------------------------------------------------------------- correctness


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL,
                                                          abs_tol=ABS_TOL)


def check_run(w: Workload, outdir: Path, code: int, expect: dict) -> tuple[list[str], str | None]:
    """Problems found in one run's artifacts, and the sha256 of its artifact."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        summary = json.loads((outdir / "summary.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        return problems + [f"summary.json unreadable: {e}"], None
    if summary.get("status") != "ok":
        problems.append(f"status {summary.get('status')!r}")
    passed = summary.get("order_report", {}).get("all_pass") if w.solves else summary.get("all_pass")
    if passed is not True:
        problems.append("a posteriori check failed (all_pass is not true)")
    for key in ("a_bar", "b"):
        if not _close(summary.get(key), expect[key]):
            problems.append(f"{key} = {summary.get(key)!r}, expected {expect[key]!r}")
    if expect.get("b_recorded") is not None and not _close(summary.get("b"), expect["b_recorded"]):
        problems.append(f"b = {summary.get('b')!r}, recorded {expect['b_recorded']!r}")
    artifact = outdir / w.artifact
    digest = sha256(artifact) if artifact.exists() else None
    if digest is None:
        problems.append(f"{w.artifact} missing")
    return problems, digest


# ------------------------------------------------------------- environment


def environment(seed: int, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "paratori").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# -------------------------------------------------------------------- main


def timed_runs(w: Workload, expect: dict, until: float, reserve: float, rundir: Path,
               deadline: float) -> list[dict]:
    """Closed loop of CLI runs until ``until`` (a ``time.perf_counter`` value).

    There is always one run.  A further run starts only if, at the median
    wall time so far, it and ``reserve`` more runs' time after it would end
    less than half a run past ``until``, so that a run of the benchmark
    lasts about as long as it was asked to.
    """
    runs = []
    while not runs or (time.perf_counter()
                       + (0.5 + reserve) * statistics.median(r["wall_s"] for r in runs) < until
                       and time.perf_counter() < deadline):
        outdir = rundir / f"run{len(runs)}"
        args = cli_args(w, str(outdir), expect["model"], expect["config"])
        code, wall, rss = run_child([sys.executable, "-m", "paratori.cli", *args],
                                    rundir / f"run{len(runs)}.log", deadline)
        problems, digest = check_run(w, outdir, code, expect)
        runs.append({"wall_s": wall, "peak_rss_mb": rss, "exit": code,
                     "problems": problems, "sha256": digest})
    return runs


def traced_runs(w: Workload, expect: dict, rundir: Path, deadline: float) -> list[dict]:
    runs = []
    for i in range(TRACED_REPEATS):
        outdir = rundir / f"trace{i}"
        trace_file = rundir / f"trace{i}.json"
        args = cli_args(w, str(outdir), expect["model"], expect["config"])
        code, wall, _ = run_child(python("replay_traced.py", str(trace_file), *args),
                                  rundir / f"trace{i}.log", deadline)
        problems, digest = check_run(w, outdir, code, expect)
        layers = json.loads(trace_file.read_text())["metrics"] if trace_file.exists() else {}
        if not layers:
            problems.append("no trace written")
        runs.append({"wall_s": wall, "exit": code, "problems": problems, "sha256": digest,
                     "layers": layers})
    return runs


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paratori end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "paratori" / "cli.py").is_file():
        raise BenchError(f"no paratori sources under {SRC}; run from a source checkout")

    w = WORKLOADS[args.workload]
    rundir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    end = start + args.seconds
    expect = prepare(w, args.seed, rundir, deadline)
    # a traced run reports no set-up time, and leaves room for its replays
    setup_times, versions = measure_setup(w, expect, rundir, 0 if args.trace else SETUP_REPEATS,
                                          deadline)
    reserve = TRACED_REPEATS * TRACE_SLOWDOWN if args.trace else 0.0
    runs = timed_runs(w, expect, end, reserve, rundir, deadline)
    traced = traced_runs(w, expect, rundir, deadline) if args.trace else []

    every = runs + traced
    # byte identity: a run whose artifact differs from the most common one fails
    digests = Counter(r["sha256"] for r in every if r["sha256"])
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for r in every:
            if r["sha256"] and r["sha256"] != common:
                r["problems"].append(f"{w.artifact} differs from the other runs' (sha256)")
    failed = sum(1 for r in every if r["problems"])
    checks = []
    walls = [r["wall_s"] for r in runs]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    layers = {}
    if traced:
        for key in COUNTS:
            seen = [t["layers"].get(key) for t in traced]
            if any(v != seen[0] for v in seen):
                checks.append(f"{key} differs between traced runs: {seen}")
        layers = {k: v if k in COUNTS else statistics.median(t["layers"].get(k, 0) for t in traced)
                  for k, v in traced[0]["layers"].items()}
        layers["trace_overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - end_to_end["wall_s"])
    correct = failed == 0 and not checks

    result = {
        "workload": w.name,
        "environment": environment(args.seed, versions),
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "error_rate": failed / len(every),
        "checks": checks,
        "end_to_end": end_to_end,
        "setup_samples_s": setup_times,
        "runs": runs,
        "traced": traced,
        "per_layer": layers,
    }
    (rundir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"workload {w.name}  seed {args.seed}  runs {len(runs)}  "
          f"setups {len(setup_times)}  traced {len(traced)}")
    for key, samples in (("wall_s", walls), ("setup_s", setup_times)):
        if not samples:
            continue
        q1, med, q3 = quartiles(samples)
        print(f"  {key:<34} {med:12.4f} s      q1 {q1:.4f}  q3 {q3:.4f}  n {len(samples)}")
    print(f"  {'peak_rss_mb':<34} {end_to_end['peak_rss_mb']:12.1f} MB")
    print(f"  {'error_rate':<34} {result['error_rate']:12.4f}        "
          f"{failed} of {len(every)} runs failed")
    for key in sorted(layers):
        print(f"  {key:<34} {layers[key]:12.6g} {unit(key)}")
    for r in every:
        for problem in r["problems"]:
            print(f"  FAIL run: {problem}")
    for problem in checks:
        print(f"  FAIL: {problem}")
    print(f"  correct: {correct}   result set: {rundir / 'result.json'}")

    if args.trace:
        metrics = {k: {"value": layers.get(k, 0), "unit": unit(k)} for k in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": end_to_end["wall_s"], "unit": "s"},
            "setup_s": {"value": end_to_end["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": end_to_end["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
