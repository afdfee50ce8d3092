"""Core data types and evaluation metrics for heteroscedastic selection.

Units are pairs (x, sigma): an observed effect and its known standard
deviation. A unit is "interesting" when its true effect exceeds a reference
level mu0; the null region is {mu <= mu0}. Decisions are binary vectors
aligned with the units. Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsRecord",
    "fdp",
    "etp",
    "etp_star",
    "zvalue_pvalue",
]

# p-values are clamped into the open interval (0, 1); the lower clamp guards
# against tail underflow for very large z.
_P_FLOOR = 1e-300
_P_CEIL = 1.0 - 1e-16
_SQRT_HALF = math.sqrt(0.5)


def _as_binary(a, name):
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    vals = np.unique(arr)
    if not np.all(np.isin(vals, (0, 1))):
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class MetricsRecord:
    """Realized metrics of one selection: FDP, true-positive counts, power."""

    fdp: float
    etp: int
    etp_star: float
    n_selected: int

    def __post_init__(self):
        if not (0.0 <= self.fdp <= 1.0):
            raise ValueError("fdp must lie in [0, 1]")
        if not (0 <= self.etp <= self.n_selected):
            raise ValueError("need n_selected >= etp >= 0")

    def as_dict(self) -> dict:
        return {
            "fdp": self.fdp,
            "etp": self.etp,
            "etp_star": self.etp_star,
            "n_selected": self.n_selected,
        }


def _aligned(decisions, theta):
    d = _as_binary(decisions, "decisions")
    t = _as_binary(theta, "theta")
    if d.shape != t.shape:
        raise ValueError("decisions and truth labels must have the same length")
    return d, t


def fdp(decisions, theta) -> float:
    """False discovery proportion: sum (1-theta_i) d_i / max(sum d_i, 1)."""
    d, t = _aligned(decisions, theta)
    n_sel = int(d.sum())
    false = int(((1 - t) * d).sum())
    return false / max(n_sel, 1)


def etp(decisions, theta) -> int:
    """Number of true positives: sum theta_i d_i."""
    d, t = _aligned(decisions, theta)
    return int((t * d).sum())


def etp_star(decisions, x, mu0: float) -> float:
    """Realized modified power: sum d_i (x_i - mu0). May be negative."""
    d = _as_binary(decisions, "decisions")
    xs = np.asarray(x, dtype=float)
    if d.shape != xs.shape:
        raise ValueError("decisions and x must have the same length")
    return float(np.sum(d * (xs - mu0)))


def zvalue_pvalue(x, sigma, mu0: float):
    """One-sided z- and p-values for testing mu <= mu0 against mu > mu0.

    z = (x - mu0) / sigma and p = 1 - Phi(z), evaluated as
    erfc(z / sqrt 2) / 2, which keeps full relative precision in the upper
    tail. Accepts scalars or arrays; p is clamped into (0, 1). Raises
    ValueError for nonpositive sigma.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    if np.any(sg <= 0) or not np.all(np.isfinite(sg)):
        raise ValueError("sigma must be positive and finite")
    z = (xs - mu0) / sg
    w = np.ravel(z * _SQRT_HALF)
    p = 0.5 * np.fromiter(map(math.erfc, w.tolist()), float, count=w.size)
    p = np.clip(p.reshape(np.shape(z)), _P_FLOOR, _P_CEIL)
    if np.ndim(x) == 0 and np.ndim(sigma) == 0:
        return float(z), float(p)
    return z, p
