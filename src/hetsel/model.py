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
_LOG_HALF = math.log(0.5)

# W. J. Cody's rational Chebyshev approximations to erf and erfc (Math.
# Comp. 23, 1969; netlib SPECFUN CALERF), full double precision in three
# ranges of y = |w|: erf(y) = y A(y^2) / B(y^2) up to 0.46875, and beyond it
# erfc(y) = exp(-y^2) R(y) with R = C(y) / D(y) up to 4, and
# R = (1/sqrt(pi) - P(1/y^2) / (y^2 Q(1/y^2))) / y above 4. Coefficients
# are listed from the lowest-order Horner step, as in CALERF.
_CODY_SMALL = 0.46875
_CODY_MID = 4.0
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# erfc(y) underflows to 0 beyond y = 27.3; larger y are capped so that the
# split exponent stays finite (and erfc(inf) is 0, not NaN).
_ERFC_Y_CAP = 30.0


def _as_binary(a, name):
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    # Compared entry by entry: np.unique would import numpy.ma.
    if not np.all((arr == 0) | (arr == 1)):
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


def _cody_ratio(t, num, den):
    """num(t) / den(t) in CALERF's Horner order, den monic and one degree
    below num; works in place on the two arrays it makes."""
    xnum = num[-1] * t
    xden = t.copy()
    for a, b in zip(num[:-2], den[:-1]):
        xnum += a
        xnum *= t
        xden += b
        xden *= t
    xnum += num[-2]
    xden += den[-1]
    xnum /= xden
    return xnum


def _scaled_to_erfc(r, y, log: bool):
    """erfc(y) from R(y) = erfc(y) exp(y^2), in place on r; its log when
    ``log``.

    The value is exp(-t^2) exp(-(y - t)(y + t)) R(y) with t = y rounded
    down to 1/16, so the rounding of y^2 is not amplified by exp; the log
    is log R(y) - y^2, which never underflows.
    """
    if log:
        with np.errstate(divide="ignore"):
            np.log(r, out=r)
        r -= np.square(y)
        return r
    y = np.minimum(y, _ERFC_Y_CAP)
    t = np.trunc(y * 16.0) / 16.0
    r *= np.exp(-t * t)
    r *= np.exp((t - y) * (y + t))
    return r


def _erfc_nonneg(y, log: bool):
    """erfc(y) for a 1-d array y >= 0, or log erfc(y) when ``log``.

    Each of Cody's three ranges is gathered by index and evaluated on its
    own elements only; NaN falls in the last range and passes through.
    """
    out = np.empty_like(y)
    small = y <= _CODY_SMALL
    within = y <= _CODY_MID
    idx = np.flatnonzero(small)
    ys = y.take(idx)
    erf = _cody_ratio(np.square(ys), _ERF_A, _ERF_B)
    erf *= ys
    np.negative(erf, out=erf)
    out.put(idx, np.log1p(erf, out=erf) if log else np.add(erf, 1.0, out=erf))
    idx = np.flatnonzero(within ^ small)
    ym = y.take(idx)
    out.put(idx, _scaled_to_erfc(_cody_ratio(ym, _ERFC_C, _ERFC_D), ym, log))
    idx = np.flatnonzero(~within)
    yb = y.take(idx)
    # Past about 1.3e154, y^2 overflows and 1 / y^2 is 0, its limit.
    with np.errstate(over="ignore"):
        inv_sq = np.reciprocal(np.square(yb))
    r = _cody_ratio(inv_sq, _ERFC_P, _ERFC_Q)
    r *= inv_sq
    np.subtract(_INV_SQRT_PI, r, out=r)
    r /= yb
    out.put(idx, _scaled_to_erfc(r, yb, log))
    return out


def _erfc(w):
    """Complementary error function of a float array, by Cody's
    approximations; a negative argument is taken as 2 - erfc(-w)."""
    w = np.asarray(w, dtype=float)
    flat = np.ravel(w)
    out = _erfc_nonneg(np.abs(flat), log=False)
    neg = np.flatnonzero(flat < 0)
    out.put(neg, 2.0 - out.take(neg))
    return out.reshape(w.shape)


def _log_ndtr(z):
    """log Phi(z), the standard normal log CDF, of a float array.

    For z <= 0 it is log(1/2) + log erfc(|z| / sqrt 2), kept in log form so
    it never underflows; for z > 0 it is log1p(-Phi(-z)) with Phi(-z)
    evaluated directly.
    """
    z = np.asarray(z, dtype=float)
    flat = np.ravel(z)
    y = np.abs(flat)
    y *= _SQRT_HALF
    right = flat > 0
    out = np.empty_like(y)
    idx = np.flatnonzero(~right)
    log_erfc = _erfc_nonneg(y.take(idx), log=True)
    log_erfc += _LOG_HALF
    out.put(idx, log_erfc)
    idx = np.flatnonzero(right)
    tail = _erfc_nonneg(y.take(idx), log=False)
    tail *= -0.5
    out.put(idx, np.log1p(tail, out=tail))
    return out.reshape(z.shape)


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
    # Where z overflows it takes its limit +-inf.
    with np.errstate(over="ignore"):
        z = (xs - mu0) / sg
    p = _erfc(z * _SQRT_HALF)
    p *= 0.5
    p = np.clip(p, _P_FLOOR, _P_CEIL)
    if np.ndim(x) == 0 and np.ndim(sigma) == 0:
        return float(z), float(p)
    return z, p
