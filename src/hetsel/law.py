"""The known law of the simulation designs and its oracle cutoffs: effect
priors, sigma laws, the joint (sigma, mu) model that draws the replicates,
and ``oracle_thresholds``, the population cutoffs of the fixed-cutoff rule
under that model.

``TruePrior.log_masses`` gives the null (mu <= mu0) and non-null parts of
the marginal density in closed form: normal densities for point masses,
differences of normal CDFs for uniform components, Gaussian convolutions
with a CDF truncation term for normal components. Their normal tails come
from the numpy erfc kernel in ``model``. ``deconv.oracle_clfdr`` combines
the parts into the exact clfdr. Only ``hetsel.sim`` imports this module,
so the data-driven commands never load it nor compile the quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deconv import _SQRT_2PI, oracle_clfdr
from .model import _log_ndtr
from .selection import ThresholdPair, _check_alpha

__all__ = [
    "PointMass",
    "UniformInterval",
    "NormalComponent",
    "TruePrior",
    "ConstantSigma",
    "UniformSigma",
    "JointModel",
    "oracle_thresholds",
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


# Quadrature of the population cutoffs: Gauss-Legendre nodes per
# UniformSigma law, x panels of half a sigma with a Chebyshev series of
# _X_ORDER terms on each, and the marginal cut 12 standard deviations
# beyond the prior's support, where less than Phi(-12) ~ 2e-33 of its
# mass lies. Doubling the three counts moves t1 by less than 1e-13 on the
# built-in designs. Where group 0 lies far in the x tail, 32 sigma nodes
# converge slowly: on the test-only "mixed" law at mu0 = 3, alpha = 0.01
# (t1 about 6058), doubling them moves t1 by 1.9e-4 relative.
_SIGMA_NODES = 32
_X_ORDER = 16
_PANELS_PER_SIGMA = 2
_X_REACH = 12.0
# Root brackets close to a few ulps in well under this many steps.
_ROOT_STEPS = 200
# Points of a sigma law between which _sigma_breaks looks for a crossing.
_BREAK_SCAN = 64


def _increasing_root(fn, a, b, fa, fb, scale=0.0):
    """Elementwise roots of increasing functions on brackets [a, b].

    ``fa`` and ``fb`` are fn at the ends. Where fn keeps one sign on the
    bracket, the root clamps to the end nearer the root. The Illinois
    variant of regula falsi shrinks each bracket from both sides until it
    is a few ulps of max(|a|, |b|, scale) wide.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b, fa, fb))
    clamp_lo, clamp_hi = fa >= 0, fb <= 0
    b = np.where(clamp_lo, a, b)
    a = np.where(clamp_hi & ~clamp_lo, b, a)
    live = ~(clamp_lo | clamp_hi)
    tol = 4 * np.finfo(float).eps * np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)
    side = np.zeros(a.shape)
    for _ in range(_ROOT_STEPS):
        live &= b - a > tol
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        x = np.where(live & (a < x) & (x < b), x, 0.5 * (a + b))
        fx = fn(x)
        left, right = live & (fx < 0), live & (fx > 0)
        # Illinois: an end kept twice in a row has its value halved.
        fb = np.where(left & (side < 0), 0.5 * fb, fb)
        fa = np.where(right & (side > 0), 0.5 * fa, fa)
        hit = live & (fx == 0)
        a, fa = np.where(left | hit, x, a), np.where(left, fx, fa)
        b, fb = np.where(right | hit, x, b), np.where(right, fx, fb)
        side = np.where(left, -1.0, np.where(right, 1.0, side))
        live &= ~hit
    return 0.5 * (a + b)


def _sigma_breaks(law, prior, alpha: float, mu0: float):
    """The sigma values where clfdr(mu0, sigma) = alpha: group 1 starts or
    ends there, and the integrands over sigma have a kink that a single
    Gauss-Legendre rule would converge across only slowly. Each is found
    between two consecutive points of a fine quadrature of the law."""
    s, _ = law.nodes(_BREAK_SCAN)
    if s.size < 2:
        return ()

    def excess(v):
        return oracle_clfdr(prior, np.full(v.shape, float(mu0)), v, mu0) - alpha

    e = excess(s)
    cross = np.flatnonzero(e[:-1] * e[1:] < 0)
    if not cross.size:
        return ()
    sign = np.sign(e[cross + 1])
    lo, hi = s[cross], s[cross + 1]
    return _increasing_root(
        lambda v: sign * excess(v), lo, hi, sign * e[cross], sign * e[cross + 1], hi - lo
    )


class _Table:
    """clfdr and cost density q = (clfdr - alpha) f of a known model, one
    row per sigma node, as Chebyshev series on equal panels of [a, b].

    Row j covers [max(mu0, lo_j), hi_j], the part of the x reach at or
    above mu0, where groups 0 and 1 live; ``c0`` is the clfdr at mu0.
    ``weight`` holds the sigma nodes' probabilities.
    """

    def __init__(self, model, alpha: float, mu0: float):
        sigma, weight, lo, hi, blocks = [], [], [], [], []
        for gw, law, prior in zip(model.group_weights, model.sigma_laws, model.priors):
            s, w = law.nodes(_SIGMA_NODES, _sigma_breaks(law, prior, alpha, mu0))
            left, right = prior.reach(s, _X_REACH)
            first = sum(v.size for v in sigma)
            blocks.append((slice(first, first + s.size), prior))
            sigma.append(s)
            weight.append(gw * w)
            lo.append(left)
            hi.append(right)
        sigma, self.weight, lo, hi = map(np.concatenate, (sigma, weight, lo, hi))
        self.a = np.maximum(lo, mu0)
        self.b = np.maximum(hi, self.a + sigma)
        self.panels = max(1, math.ceil(_PANELS_PER_SIGMA * float(np.max((self.b - self.a) / sigma))))
        self.h = (self.b - self.a) / self.panels
        self.rows = np.arange(sigma.size)

        # Chebyshev points of the first kind on each panel, then mu0.
        k = np.arange(_X_ORDER)
        theta = np.pi * (k + 0.5) / _X_ORDER
        offsets = (np.arange(self.panels)[:, None] + 0.5 * (1.0 + np.cos(theta))).ravel()
        x = self.a[:, None] + self.h[:, None] * offsets
        x = np.concatenate((x, np.full((sigma.size, 1), float(mu0))), axis=1)
        log_null, log_alt = np.empty(x.shape), np.empty(x.shape)
        for rows, prior in blocks:
            sg = np.broadcast_to(sigma[rows, None], x[rows].shape)
            log_null[rows], log_alt[rows] = prior.log_masses(x[rows], sg, mu0)
        with np.errstate(over="ignore"):
            clfdr = 1.0 / (1.0 + np.exp(log_alt - log_null))
        f0 = np.exp(log_null)
        q = f0 - alpha * (f0 + np.exp(log_alt))
        self.c0 = clfdr[:, -1]

        # Values at the points -> coefficients of the interpolating series.
        to_series = (2.0 / _X_ORDER) * np.cos(np.outer(theta, k))
        to_series[:, 0] *= 0.5
        shape = (sigma.size, self.panels, _X_ORDER)
        self.clfdr_coef = clfdr[:, :-1].reshape(shape) @ to_series
        self.q_coef = q[:, :-1].reshape(shape) @ to_series
        # int_{-1}^{1} T_k = 2 / (1 - k^2) for even k, 0 for odd k; q_tail
        # holds int of q from each panel's start to b, closed by a zero.
        whole = np.zeros(_X_ORDER)
        whole[::2] = 2.0 / (1.0 - k[::2] ** 2)
        panel_q = 0.5 * self.h[:, None] * (self.q_coef @ whole)
        self.q_tail = np.concatenate(
            (np.cumsum(panel_q[:, ::-1], axis=1)[:, ::-1], np.zeros((sigma.size, 1))), axis=1
        )

    def _locate(self, x):
        # Panel index and angle: x maps to cos(theta) in [-1, 1] on its panel.
        pos = (x - self.a) / self.h
        p = np.clip(np.floor(pos), 0, self.panels - 1).astype(int)
        return p, np.arccos(np.clip(2.0 * (pos - p) - 1.0, -1.0, 1.0))

    def clfdr(self, x):
        """The clfdr at one x per node."""
        p, theta = self._locate(x)
        terms = np.cos(np.outer(theta, np.arange(_X_ORDER)))
        return np.einsum("jk,jk->j", terms, self.clfdr_coef[self.rows, p])

    def q_above(self, x):
        """int_x^b q per node."""
        p, theta = self._locate(x)
        # int_{cos theta}^1 T_k = ((1 - cos (k+1) theta) / (k+1)
        # + (1 - cos (k-1) theta) / (1-k)) / 2; for k = 1 the second term
        # is 0 / 0 and its limit 0.
        k = np.arange(_X_ORDER)
        minus = np.where(k == 1, 1.0, 1.0 - k)
        part = 0.5 * (
            (1.0 - np.cos(np.outer(theta, k + 1))) / (k + 1)
            + (1.0 - np.cos(np.outer(theta, k - 1))) / minus
        )
        inside = 0.5 * self.h * np.einsum("jk,jk->j", part, self.q_coef[self.rows, p])
        return inside + self.q_tail[self.rows, p + 1]


def oracle_thresholds(model, alpha: float, mu0: float) -> ThresholdPair:
    """Population cutoffs of the fixed-cutoff rule under a known model.

    The limit, as the number of units grows, of ``calibrate_thresholds`` on
    units drawn from ``model`` (a ``law.JointModel``) and scored by their
    exact clfdr, computed by deterministic quadrature. Per unit of
    population, group 0 frees the budget cap0 = E[(alpha - clfdr) 1{G0}],
    and the group-1 units scoring above t cost
    C1(t) = E[(clfdr - alpha) 1{G1, t(x, sigma) > t}]. At fixed sigma the
    clfdr does not increase in x, so group 1 is the interval
    [mu0, x_alpha(sigma)) where clfdr(x_alpha) = alpha, and t increases
    along it. t1 solves C1(t1) = cap0; it is -inf when C1(-inf) <= cap0
    (group 1 is used up) and +inf when group 1 or group 0 is empty. Over
    sigma the expectations take one node per ``ConstantSigma`` law and
    ``_SIGMA_NODES`` Gauss-Legendre nodes per ``UniformSigma`` law, on each
    side of any sigma where clfdr(mu0, sigma) = alpha; over x, Chebyshev
    series of the model's closed-form clfdr and density on panels of half
    a sigma, on which the roots and integrals are solved.

    t2 is -inf. The step-wise walk buys the group-2 units nearest mu0
    first, and stops at the first purchase whose budget gain, alpha -
    clfdr(mu0, sigma), with the leftover budget does not fund the next
    group-1 unit, which costs clfdr - alpha at the cutoff. While the
    smallest such gain is below the largest such cost, every purchase
    has a chance of funding nothing, so the walk stops after O(1) units,
    which carry no population mass. A ratio of 1 or more raises
    ValueError naming it: every purchase then funds group 1, the walk buys
    a share of group 2, and no single-cutoff limit exists.
    """
    _check_alpha(alpha)
    tab = _Table(model, alpha, mu0)
    a, b, c0 = tab.a, tab.b, tab.c0
    x_alpha = _increasing_root(
        lambda x: alpha - tab.clfdr(x), a, b, alpha - tab.clfdr(a), alpha - tab.clfdr(b), b - a
    )
    c_alpha = tab.clfdr(x_alpha)

    def cut(t):
        # The group-1 point scoring t at each node: x - mu0 = t (clfdr - alpha).
        return _increasing_root(
            lambda x: x - mu0 - t * (tab.clfdr(x) - alpha),
            a,
            x_alpha,
            a - mu0 - t * (tab.clfdr(a) - alpha),
            x_alpha - mu0 - t * (c_alpha - alpha),
            b - a,
        )

    q_alpha = tab.q_above(x_alpha)
    cap0 = -float(tab.weight @ q_alpha)
    full = float(tab.weight @ (tab.q_above(a) - q_alpha))
    if full <= 0.0 or cap0 <= 0.0:
        return ThresholdPair(math.inf, -math.inf)
    if full <= cap0:
        return ThresholdPair(-math.inf, -math.inf)

    # Solved for s = t / (1 + t) in [0, 1], on which C1 falls from full to 0.
    def excess(s):
        t = s[0] / (1.0 - s[0])
        return np.array([cap0 - float(tab.weight @ (tab.q_above(cut(t)) - q_alpha))])

    s1 = float(_increasing_root(excess, [0.0], [1.0], [cap0 - full], [cap0])[0])
    t1 = s1 / (1.0 - s1)
    gain2 = alpha - c0[c0 < alpha]
    if gain2.size:
        cost1 = tab.clfdr(cut(t1))[x_alpha > a] - alpha
        ratio = float(gain2.min() / cost1.max())
        if ratio >= 1.0:
            raise ValueError(
                f"group-2 gain to group-1 cost ratio {ratio:.4g} is at least 1: "
                "every group-2 purchase funds group 1, so no single-cutoff limit exists"
            )
    return ThresholdPair(t1, -math.inf)
