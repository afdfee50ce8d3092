"""Seeded inputs for the benchmark and the exact clfdr of their prior.

The units follow the paper's illustrative model: true effects from
0.8 U(-3, -1) + 0.2 U(1, 2), standard errors sigma ~ U(0.5, 3), and
x = mu + sigma * N(0, 1). ``write_inputs`` writes ``input.csv``
(``id,x,sigma``, the only file the program sees) and ``truth.csv``
(``id,mu``, kept by the benchmark for its quality checks).

``oracle_clfdr`` is the benchmark's own closed form of the conditional
local FDR under that prior; it never calls the program, so no change to
the library can move the reference.
"""
from __future__ import annotations

import math

import numpy as np

# (weight, low, high) of the uniform pieces of the effect prior.
PRIOR = ((0.8, -3.0, -1.0), (0.2, 1.0, 2.0))
SIGMA_RANGE = (0.5, 3.0)
MU0 = 0.0
ALPHA = 0.1

_SQRT2 = math.sqrt(2.0)


def draw(seed: int, m: int):
    """Returns (ids, x, sigma, mu) for m units drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    weights = np.array([w for w, _, _ in PRIOR])
    piece = rng.choice(len(PRIOR), size=m, p=weights)
    lows = np.array([lo for _, lo, _ in PRIOR])[piece]
    highs = np.array([hi for _, _, hi in PRIOR])[piece]
    mu = lows + (highs - lows) * rng.random(m)
    sigma = rng.uniform(*SIGMA_RANGE, size=m)
    x = mu + sigma * rng.standard_normal(m)
    ids = [f"u{i:06d}" for i in range(m)]
    return ids, x, sigma, mu


def write_inputs(directory, seed: int, m: int):
    """Writes input.csv and truth.csv under ``directory``; returns their paths."""
    ids, x, sigma, mu = draw(seed, m)
    input_path = f"{directory}/input.csv"
    truth_path = f"{directory}/truth.csv"
    with open(input_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,x,sigma\n")
        for i, xi, si in zip(ids, x.tolist(), sigma.tolist()):
            fh.write(f"{i},{xi!r},{si!r}\n")
    with open(truth_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,mu\n")
        for i, mi in zip(ids, mu.tolist()):
            fh.write(f"{i},{mi!r}\n")
    return input_path, truth_path


def read_truth(path):
    """Returns (ids, mu) from a truth.csv."""
    ids, mu = [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            uid, value = line.rstrip("\n").split(",")
            ids.append(uid)
            mu.append(float(value))
    return ids, np.array(mu)


def _interval_mass(z_lo: float, z_hi: float) -> float:
    """P(z_lo <= Z <= z_hi) for standard normal Z, using the upper tail when
    both ends are positive so that far-tail differences keep precision."""
    if z_lo > 0:
        return 0.5 * (math.erfc(z_lo / _SQRT2) - math.erfc(z_hi / _SQRT2))
    return 0.5 * (math.erfc(-z_hi / _SQRT2) - math.erfc(-z_lo / _SQRT2))


def oracle_clfdr(x, sigma, mu0: float = MU0) -> np.ndarray:
    """Exact P(mu <= mu0 | x, sigma) under ``PRIOR``.

    Each uniform piece U(a, b) with weight w contributes the marginal
    w / (b - a) * P((x - b) / sigma <= Z <= (x - a) / sigma), and its part
    below mu0 replaces b with min(b, mu0).
    """
    out = np.empty(len(x))
    for i, (xi, si) in enumerate(zip(np.asarray(x, float), np.asarray(sigma, float))):
        full = null = 0.0
        for w, lo, hi in PRIOR:
            scale = w / (hi - lo)
            full += scale * _interval_mass((xi - hi) / si, (xi - lo) / si)
            if mu0 > lo:
                top = min(hi, mu0)
                null += scale * _interval_mass((xi - top) / si, (xi - lo) / si)
        out[i] = min(max(null / full, 0.0), 1.0) if full > 0 else 1.0
    return out
