"""One set-up of a workload, in a fresh interpreter: what ``setup_s`` times.

    python3 perfbench/setup_probe.py <workload> [model.json]

Imports ``paratori.cli`` and loads or builds the workload's model the way
the CLI does, including ``validate`` and the Diophantine certificate
(``restricted-demo`` also builds the restricted field).  Prints the
versions and the location of the package it imported as one JSON line.
"""

from __future__ import annotations

import json
import platform
import sys

import paratori.cli as cli

from workloads import WORKLOADS


def main() -> None:
    w = WORKLOADS[sys.argv[1]]
    if w.solves:
        spec = w.model or sys.argv[2]
        if spec.startswith("builtin:"):
            model = cli.benchmark.builtin_model(spec.split(":", 1)[1])
        else:
            model = cli.ser.model_from_obj(cli.ser.load_json(spec))
    else:
        defaults = cli._DEFAULTS
        model, _ = cli.build_restricted_field(
            cli.PrimarySystem.circular_binary(), degree=int(defaults["degree"]),
            alpha0=float(defaults["alpha0"]), gtilde0=float(defaults["gtilde0"]),
        )
    bad = cli.validate(model)
    if bad:
        raise SystemExit(f"{w.name}: invalid model: {'; '.join(bad)}")
    import numpy
    import scipy

    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "paratori_file": cli.__file__,
    }))


if __name__ == "__main__":
    main()
