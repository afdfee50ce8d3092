"""The known law of the simulation designs: effect priors, sigma laws and
the joint (sigma, mu) model that draws the replicates.

``TruePrior.log_masses`` gives the null (mu <= mu0) and non-null parts of
the marginal density in closed form: normal densities for point masses,
differences of normal CDFs for uniform components, Gaussian convolutions
with a CDF truncation term for normal components. Their normal tails come
from the numpy erfc kernel in ``model``. ``deconv.oracle_clfdr`` combines
the parts into the exact clfdr. Only ``hetsel.sim`` imports this module,
so the data-driven commands never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deconv import _SQRT_2PI, oracle_clfdr
from .model import _log_ndtr

__all__ = [
    "PointMass",
    "UniformInterval",
    "NormalComponent",
    "TruePrior",
    "ConstantSigma",
    "UniformSigma",
    "JointModel",
]

# Units per JointModel.clfdr block: the oracle's dozen or so temporaries of
# 2**16 doubles (512 kB each) stay near the cache instead of streaming
# through memory on a large replicate (measured at 1e6 units, where 2**16
# and 2**18 were equally fast).
_ORACLE_BLOCK_UNITS = 2 ** 16


def _log_interval_mass(z_lo, z_hi):
    """log P(z_lo <= Z <= z_hi) for standard normal Z, z_lo <= z_hi.

    An interval right of zero is mirrored to the left, where both log CDFs
    keep full relative precision, so the difference is accurate in either
    tail and underflows only in the log.
    """
    right = z_lo > 0
    lo = np.where(right, -z_hi, z_lo)
    hi = np.where(right, -z_lo, z_hi)
    log_hi = _log_ndtr(hi)
    with np.errstate(divide="ignore"):
        return log_hi + np.log(-np.expm1(_log_ndtr(lo) - log_hi))


@dataclass(frozen=True)
class PointMass:
    loc: float


@dataclass(frozen=True)
class UniformInterval:
    low: float
    high: float

    def __post_init__(self):
        if not self.high > self.low:
            raise ValueError("uniform component needs high > low")


@dataclass(frozen=True)
class NormalComponent:
    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0:
            raise ValueError("normal component needs sd > 0")


@dataclass(frozen=True)
class TruePrior:
    """Known effect-size prior: a finite weighted mixture of components."""

    weights: tuple
    components: tuple

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) != len(self.components) or len(w) == 0:
            raise ValueError("weights and components must align and be nonempty")
        if any(v < 0 for v in w) or abs(sum(w) - 1.0) > 1e-9:
            raise ValueError("component weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def uniform_mixture(cls, pieces) -> "TruePrior":
        """pieces: iterable of (weight, low, high)."""
        ws, comps = zip(*[(w, UniformInterval(lo, hi)) for w, lo, hi in pieces])
        return cls(ws, comps)

    @classmethod
    def normal_mixture(cls, pieces) -> "TruePrior":
        """pieces: iterable of (weight, mean, sd)."""
        ws, comps = zip(*[(w, NormalComponent(m, s)) for w, m, s in pieces])
        return cls(ws, comps)

    def reach(self, sigma, sds: float):
        """Per sigma, the x interval (lo, hi) that reaches ``sds`` standard
        deviations of the marginal beyond every component."""
        sg = np.asarray(sigma, dtype=float)
        lo, hi = [], []
        for comp in self.components:
            if isinstance(comp, PointMass):
                left = right = comp.loc
                sd = sg
            elif isinstance(comp, UniformInterval):
                left, right, sd = comp.low, comp.high, sg
            else:
                left = right = comp.mean
                sd = np.hypot(sg, comp.sd)
            lo.append(left - sds * sd)
            hi.append(right + sds * sd)
        return np.min(lo, axis=0), np.max(hi, axis=0)

    def log_masses(self, x, sigma, mu0: float):
        """(log f0, log f1): the null (mu <= mu0) and non-null parts of the
        marginal density of x at sigma, summed over the components in log
        space. x and sigma must have the same shape."""
        parts = zip(self.weights, self.components)
        w, comp = next(parts)
        log_null, log_alt = _component_log_masses(comp, w, x, sigma, mu0)
        for w, comp in parts:
            d0, d1 = _component_log_masses(comp, w, x, sigma, mu0)
            _log_add_into(log_null, d0)
            _log_add_into(log_alt, d1)
        return log_null, log_alt

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        which = rng.choice(len(self.components), size=n, p=np.asarray(self.weights))
        out = np.empty(n, dtype=float)
        for j, comp in enumerate(self.components):
            mask = which == j
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            if isinstance(comp, PointMass):
                out[mask] = comp.loc
            elif isinstance(comp, UniformInterval):
                out[mask] = rng.uniform(comp.low, comp.high, size=cnt)
            else:
                out[mask] = comp.mean + comp.sd * rng.standard_normal(cnt)
        return out


def _component_log_masses(comp, w: float, x, sigma, mu0: float):
    """(null, non-null) log marginal contributions of one weighted component.

    The null part integrates the component over mu <= mu0 and the non-null
    part over mu > mu0; a part the component does not reach is -inf. Both
    arrays are new, so the caller may overwrite them.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    none = np.full(x.shape, -np.inf)
    if isinstance(comp, PointMass):
        z = (x - comp.loc) / sigma
        dens = log_w - 0.5 * np.square(z) - np.log(_SQRT_2PI * sigma)
        return (dens, none) if comp.loc <= mu0 else (none, dens)
    if isinstance(comp, UniformInterval):
        log_scale = log_w - math.log(comp.high - comp.low)

        def piece(low, high):
            if not high > low:
                return none
            return log_scale + _log_interval_mass((x - high) / sigma, (x - low) / sigma)

        return (
            piece(comp.low, min(comp.high, mu0)),
            piece(max(comp.low, mu0), comp.high),
        )
    # Normal component: the convolution is normal, and the posterior of the
    # effect is normal, so each part adds the log of one normal tail. With
    # total variance v = sigma^2 + sd^2, the posterior has mean
    # m + sd^2 (x - m) / v and sd sigma sd / sqrt(v), so mu0 sits at
    # z = ((mu0 - m) v - sd^2 (x - m)) / (sigma sd sqrt(v)). The smaller
    # tail is log Phi(-|z|), the larger its complement.
    # In place, the log density is log w - (x - m)^2 / (2 v) - log(2 pi v) / 2.
    sd2 = comp.sd ** 2
    dev = x - comp.mean
    tv = np.square(sigma)
    tv += sd2
    dens = np.square(dev)
    dens *= 0.5
    dens /= tv
    np.subtract(log_w, dens, out=dens)
    z = np.multiply(tv, 2.0 * math.pi)
    np.log(z, out=z)
    z *= 0.5
    dens -= z
    np.multiply(tv, mu0 - comp.mean, out=z)
    dev *= sd2
    z -= dev
    np.sqrt(tv, out=tv)
    tv *= sigma
    tv *= comp.sd
    z /= tv
    below = z < 0
    np.abs(z, out=z)
    np.negative(z, out=z)
    small = _log_ndtr(z)
    large = np.exp(small, out=z)
    np.negative(large, out=large)
    np.log1p(large, out=large)
    null = np.where(below, small, large)
    null += dens
    alt = np.where(below, large, small)
    alt += dens
    return null, alt


def _log_add_into(acc, terms):
    """acc <- log(exp(acc) + exp(terms)) in place; ``terms`` is overwritten.

    Whole-array passes of max + log1p(exp(min - max)): np.logaddexp calls
    exp and log1p one element at a time, about 30 ns each. Where both are
    -inf, min - max is NaN and is taken as 0, so the sum stays -inf.
    """
    hi = np.maximum(acc, terms)
    np.minimum(acc, terms, out=terms)
    with np.errstate(invalid="ignore"):
        terms -= hi
    np.fmin(terms, 0.0, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    np.add(hi, terms, out=acc)


@dataclass(frozen=True)
class ConstantSigma:
    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.value!r}")

    def sample(self, rng, n):
        return np.full(n, self.value, dtype=float)

    def nodes(self, n: int, breaks=()):
        """Quadrature of the law: its one value, with weight 1."""
        return np.array([float(self.value)]), np.array([1.0])


@dataclass(frozen=True)
class UniformSigma:
    low: float
    high: float

    def __post_init__(self):
        if not (0 < self.low < self.high and math.isfinite(self.high)):
            raise ValueError(
                f"need 0 < low < high < inf, got low={self.low!r}, high={self.high!r}"
            )

    def sample(self, rng, n):
        return rng.uniform(self.low, self.high, size=n)

    def nodes(self, n: int, breaks=()):
        """Quadrature of the law: n Gauss-Legendre nodes on each piece of
        (low, high) that the points ``breaks`` cut it into, with weights
        summing to 1."""
        from numpy.polynomial.legendre import leggauss

        u, w = leggauss(n)
        edges = np.concatenate(([self.low], np.sort(breaks), [self.high]))
        half = 0.5 * np.diff(edges)
        nodes = edges[:-1, None] + half[:, None] * (u + 1.0)
        weights = half[:, None] * w / (self.high - self.low)
        return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class JointModel:
    """Sampleable joint law of (sigma, mu): a mixture of sigma-groups.

    Each group pairs a sigma law with the effect prior holding in that
    group, so designs where the effect distribution depends on sigma are
    expressed as several groups. ``clfdr`` evaluates the exact conditional
    local FDR using each unit's group prior.
    """

    group_weights: tuple
    sigma_laws: tuple
    priors: tuple

    def __post_init__(self):
        ws = tuple(float(w) for w in self.group_weights)
        if not (len(ws) == len(self.sigma_laws) == len(self.priors)) or not ws:
            raise ValueError("group weights, sigma laws and priors must align")
        if any(w < 0 for w in ws) or abs(sum(ws) - 1.0) > 1e-9:
            raise ValueError("group weights must be nonnegative and sum to 1")
        object.__setattr__(self, "group_weights", ws)

    @classmethod
    def independent(cls, prior: TruePrior, sigma_law) -> "JointModel":
        return cls((1.0,), (sigma_law,), (prior,))

    @property
    def n_groups(self) -> int:
        return len(self.priors)

    def sample(self, rng: np.random.Generator, n: int):
        """Returns (x, sigma, mu, group_index); draws are vectorized per group."""
        if self.n_groups == 1:
            group = np.zeros(n, dtype=int)
        else:
            group = rng.choice(self.n_groups, size=n, p=np.asarray(self.group_weights))
        sigma = np.empty(n, dtype=float)
        mu = np.empty(n, dtype=float)
        for g in range(self.n_groups):
            mask = group == g
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            sigma[mask] = self.sigma_laws[g].sample(rng, cnt)
            mu[mask] = self.priors[g].sample(rng, cnt)
        x = mu + sigma * rng.standard_normal(n)
        return x, sigma, mu, group

    def clfdr(self, x, sigma, group, mu0: float) -> np.ndarray:
        """Exact clfdr of each unit under its group's prior, evaluated over
        contiguous blocks of units so the temporaries stay in cache."""
        xs = np.asarray(x, dtype=float)
        sg = np.asarray(sigma, dtype=float)
        gp = np.asarray(group, dtype=int)
        out = np.empty(xs.shape, dtype=float)
        for start in range(0, xs.shape[0], _ORACLE_BLOCK_UNITS):
            block = slice(start, start + _ORACLE_BLOCK_UNITS)
            xb, sb, gb, ob = xs[block], sg[block], gp[block], out[block]
            for g in range(self.n_groups):
                idx = np.flatnonzero(gb == g)
                if idx.size:
                    ob.put(idx, oracle_clfdr(self.priors[g], xb.take(idx), sb.take(idx), mu0))
        return out
