"""The benchmark's workloads: CLI arguments, configs and recorded answers.

Stdlib only, because the orchestrating process must stay small: the peak
RSS of a child started with vfork includes the parent's high-water mark.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The default window (1e-3, 1e-2) fails at order 9 with exit 4
# (WindowTooWide); see README.md.
WIDE_WINDOW = [0.01, 0.05]

DEFAULT_SEED = 1

# Values the correctness gate compares with, to 1e-10 relative.
REL_TOL = 1e-10
# escape-binary has b = 0 exactly, where a relative tolerance is empty.
ABS_TOL = 1e-14


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # paratori subcommand
    order: int
    model: str | None = None          # builtin:<name>; None means generated
    config: dict = field(default_factory=dict)
    extra_args: tuple[str, ...] = ()
    a_bar: float | None = None
    b: float | None = None
    b_at_default_seed: float | None = None
    artifact: str = "solution.json"   # the file whose sha256 must repeat

    @property
    def solves(self) -> bool:
        return self.command.startswith("solve-")

    @property
    def generated(self) -> bool:
        return self.solves and self.model is None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="map-deep",
            command="solve-map",
            order=9,
            model="builtin:benchmark-map",
            config={"x_window": WIDE_WINDOW},
            a_bar=1.0,
            b=-0.355,
        ),
        Workload(
            name="flow-deep",
            command="solve-flow",
            order=9,
            model="builtin:benchmark-flow",
            config={"x_window": WIDE_WINDOW},
            a_bar=1.0,
            b=-0.23,
        ),
        Workload(
            name="torus2",
            command="solve-map",
            order=5,
            # n_samples halved from the default 24 so that a run fits the budget;
            # the lower window keeps every seed's fitted slopes within the slack
            config={"x_window": [0.005, 0.02], "theta_samples": 8, "n_samples": 12},
            b_at_default_seed=-0.24300946119567365,
        ),
        Workload(
            name="escape-binary",
            command="restricted-demo",
            order=5,
            extra_args=("--system", "binary"),
            a_bar=0.25,
            b=0.0,
            artifact="summary.json",
        ),
    )
}


def cli_args(w: Workload, outdir: str, model_path: str | None, config_path: str | None) -> list[str]:
    """Arguments after ``paratori`` for one run of ``w``."""
    args = [w.command, "--order", str(w.order), "--outdir", outdir, *w.extra_args]
    if w.solves:
        args += ["--model", w.model or model_path]
    if config_path:
        args += ["--config", config_path]
    return args
