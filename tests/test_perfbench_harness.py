"""The benchmark harness in ``perfbench/`` still runs against this package.

The harness reads the package by name (``cli.validate``, ``SolveResult.b``,
``ManifoldSolution.d`` and the parameter names of ``fit_error_orders``), so
a change to ``src/`` can break it without touching it; these runs catch
that.  Every file they write goes under ``tmp_path``.
"""

import json
import os
import subprocess
import sys

import paratori

SRC = os.path.dirname(os.path.dirname(paratori.__file__))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, script), *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_setup_probe_runs(tmp_path):
    # the three workloads read every name that the probe takes from paratori.cli
    model = tmp_path / "torus2.json"
    _run("torus2.py", "--seed", 1, "--out", model)
    for args in (["escape-binary"], ["torus2", model], ["map-deep"]):
        rec = json.loads(_run("setup_probe.py", *args))
        assert os.path.dirname(rec["paratori_file"]) == os.path.dirname(paratori.__file__)


def test_torus2_generator_runs(tmp_path):
    ref = json.loads(_run("torus2.py", "--seed", 1, "--out", tmp_path / "torus2.json"))
    assert set(ref) == {"a_bar", "b"}
    assert (tmp_path / "torus2.json").exists()


def test_traced_replay_runs_and_counts_points(tmp_path):
    out = tmp_path / "replay.json"
    _run("replay_traced.py", out, "solve-map", "--model", "builtin:benchmark-map",
         "--order", 2, "--outdir", tmp_path / "run")
    rec = json.loads(out.read_text())
    assert rec["exit_code"] == 0
    # one window of the default 24 x-samples on a 16-point theta grid (d = 1)
    assert rec["metrics"]["verify.points"] == 24 * 16 ** 1


def test_traced_replay_counts_every_rhs_call(tmp_path):
    # the replay wraps RestrictedField.rhs on its class: every evaluation of
    # the main orbit (the control runs in a forked child) passes through it
    out = tmp_path / "replay.json"
    _run("replay_traced.py", out, "restricted-demo", "--system", "single", "--order", 3,
         "--outdir", tmp_path / "run")
    rec = json.loads(out.read_text())
    assert rec["exit_code"] == 0
    main_nfev = json.loads((tmp_path / "run" / "summary.json").read_text())["orbit_nfev"]["main"]
    assert sum(s["calls"] for s in rec["spans"] if s["name"] == "celestial.rhs") == main_nfev
    assert rec["metrics"]["dynamics.rhs_calls"] == main_nfev
