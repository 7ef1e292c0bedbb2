"""Seeded generator of the ``torus2`` model: a map on T^2 with dense Fourier data.

    python3 perfbench/torus2.py --seed 1 --out model.json

Writes the model with ``serialize.model_to_obj`` and prints one JSON line
with the reference values the correctness gate needs: ``a_bar`` and the
invariant ``b`` from a separate solve to order N.  Below order N nothing
fixes b and above it nothing changes it, so the order-5 CLI run must
reproduce it.

The mode pattern is fixed and only the values come from the seed, so the
cost of a run does not depend on the seed: ``a``, ``f``, ``g`` and ``h``
carry the modes with |k|_1 <= 1 and ``B`` those with |k|_1 <= 2.  With these
the order-5 coefficients fill to 112 of the 313 modes under the cap.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

from paratori import serialize as ser
from paratori.benchmark import GOLDEN
from paratori.cohomology import solve_manifold
from paratori.fourier import FourierSeries, diophantine_scan
from paratori.jet import Jet
from paratori.model import MapModel, validate

DIM, M, N, CAP, DEG = 2, 1, 2, 12, 12
K_MAX = 24
AMP = 0.1
# one representative of each +-k pair with |k|_1 <= 2
_HALF_MODES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2))


def _series(rng, mean: float, max_mode: int) -> FourierSeries:
    """mean + a real-symmetric random combination of the modes |k|_1 <= max_mode."""
    table = {(0, 0): mean}
    for k in _HALF_MODES:
        norm = abs(k[0]) + abs(k[1])
        if norm > max_mode:
            continue
        c = AMP * complex(rng.standard_normal(), rng.standard_normal()) / (2 * norm)
        table[k] = c
        table[(-k[0], -k[1])] = c.conjugate()
    return FourierSeries(DIM, CAP, table)


def _mono(l: int, k: int, coeff) -> Jet:
    return Jet.monomial(l, (k,), coeff, M, DEG, DIM, CAP)


def torus2_model(seed: int) -> MapModel:
    """The monomials of the bundled map benchmark, with torus-2 coefficients."""
    rng = np.random.default_rng(seed)
    freq = diophantine_scan([GOLDEN, math.sqrt(2.0) - 1.0], tau=2.0, k_max=K_MAX)
    a = _series(rng, 1.0, 1)
    B = [[_series(rng, 1.0, 2)]]
    f = (_mono(1, 1, _series(rng, 0.3, 1)) + _mono(0, 2, 0.15)
         + _mono(3, 0, _series(rng, -0.2, 1)))
    g = [_mono(0, 2, _series(rng, 0.25, 1)) + _mono(2, 1, 0.2)
         + _mono(3, 0, _series(rng, 0.3, 1))]
    h = [_mono(2, 0, _series(rng, 0.1, 1)) + _mono(1, 1, 0.12) + _mono(3, 0, 0.05)
         for _ in range(DIM)]
    return MapModel.build(N=N, P=N, freq=freq, a=a, m=M, order_cap=CAP,
                          B=B, f=f, g=g, h=h, deg=DEG)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    model = torus2_model(args.seed)
    bad = validate(model)
    if bad:
        raise SystemExit(f"generated torus2 model is invalid: {'; '.join(bad)}")
    ser.dump_json(ser.model_to_obj(model), args.out)
    ref = solve_manifold(model, N)
    print(json.dumps({"a_bar": model.a_bar, "b": ref.b}))


if __name__ == "__main__":
    main()
