import importlib.util
import os

import numpy as np
import pytest

import paratori
from paratori.benchmark import GOLDEN, benchmark_map_model, benchmark_flow_model
from paratori.fourier import FourierSeries, diophantine_scan


@pytest.fixture(scope="session")
def golden_freq():
    return diophantine_scan([GOLDEN], tau=1.0, k_max=80)


@pytest.fixture(scope="session")
def bench_map():
    return benchmark_map_model()


@pytest.fixture(scope="session")
def bench_flow():
    return benchmark_flow_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_real_series(rng, dim=1, cap=8, decay=0.5, scale=1.0, max_mode=None) -> FourierSeries:
    """Random real-symmetric series with geometrically decaying modes.

    ``max_mode`` bounds the active modes below the cap so that products in
    exactness tests stay below the truncation threshold.
    """
    top = cap if max_mode is None else min(max_mode, cap)
    table = {}
    zero = (0,) * dim
    table[zero] = complex(scale * rng.standard_normal())
    if dim == 1:
        ks = [(k,) for k in range(1, top + 1)]
    else:
        ks = [
            k
            for k in np.ndindex(*(top + 1,) * dim)
            if 0 < sum(abs(v) for v in k) <= top
        ]
    for k in ks:
        amp = scale * decay ** sum(abs(v) for v in k)
        c = amp * (rng.standard_normal() + 1j * rng.standard_normal())
        table[tuple(k)] = c
        table[tuple(-v for v in k)] = c.conjugate()
    return FourierSeries(dim, cap, table)


def torus2_model(seed):
    """The benchmark's seeded T^2 map, from its generator in perfbench/."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(paratori.__file__)))
    spec = importlib.util.spec_from_file_location(
        "torus2", os.path.join(root, "perfbench", "torus2.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.torus2_model(seed)
