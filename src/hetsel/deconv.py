"""Effect-size prior estimation and conditional local FDR evaluation.

The estimator approximates the prior of the true effects by point masses on
an evenly spaced grid. Grid weights are chosen so that the marginal density
implied by the discretized prior matches, in least squares over the
probability simplex, a weighted variable-bandwidth kernel estimate of the
observation density. The conditional local FDR of a unit is then the ratio
of the null-region marginal mass to the full marginal at its observation.

Two evaluation paths are provided:

* ``clfdr_by_group`` scores units against the fitted discrete prior of
  their group;
* ``oracle_clfdr`` scores units against a known prior (point masses,
  uniform intervals, or normal components) using exact closed forms, for
  simulations where the generating distribution is available. Their
  normal tails come from the numpy erfc kernel in ``model`` (Cody's
  rational approximations), so the oracle needs numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .model import _log_ndtr

__all__ = [
    "PriorGrid",
    "BandwidthPair",
    "FittedPrior",
    "PointMass",
    "UniformInterval",
    "NormalComponent",
    "TruePrior",
    "ConstantSigma",
    "UniformSigma",
    "JointModel",
    "build_grid",
    "silverman_bandwidths",
    "kernel_marginals",
    "fit_weights",
    "oracle_clfdr",
    "fit_prior",
    "fit_prior_by_group",
    "clfdr_by_group",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Elements per kernel_marginals block: 2**18 doubles, 2 MB per temporary,
# small enough to stay in cache instead of streaming through memory.
_KERNEL_BLOCK_PAIRS = 2 ** 18
# Units per JointModel.clfdr block: the oracle's dozen or so temporaries of
# 2**16 doubles (512 kB each) stay near the cache instead of streaming
# through memory on a large replicate (measured at 1e6 units, where 2**16
# and 2**18 were equally fast).
_ORACLE_BLOCK_UNITS = 2 ** 16
# Binned kernel_marginals grids, set by its 1e-3 relative-error gate:
# sigma nodes every h_sigma / 4, x nodes every h_x u / 5 in the bin at
# sigma node u, and kernel terms dropped beyond 9 bandwidths, where they
# fall below exp(-40.5) of a unit's own term.
_SIGMA_NODE_STEP = 0.25
_X_NODES_PER_BANDWIDTH = 5
_REACH = 9.0
# x nodes beyond a segment's outer points: the reach plus the cubic stencil.
_X_PAD = int(_REACH * _X_NODES_PER_BANDWIDTH) + 2

_TINY = np.finfo(float).tiny
# Units with ((x - node) / sigma)^2 at or above this at some node are scored
# by _far_exponents: beyond it the rounding of z^2 (about eps z^2) passes
# 2^-20 in the exponent.
_FAR_Z2 = 2.0 ** 32


def _gauss(z, h):
    """Gaussian kernel with scale h: exp(-z^2 / (2 h^2)) / (sqrt(2 pi) h).

    Works in place on z, a float array the caller has just made, so the
    kernel blocks allocate no further temporaries.
    """
    z /= h
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z /= _SQRT_2PI * h
    return z


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
class PriorGrid:
    """Evenly spaced support points {left, left + eta, ..., left + (k-1) eta}."""

    left: float
    eta: float
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("grid spacing eta must be positive and finite")
        if not np.isfinite(self.left):
            raise ValueError("grid left endpoint must be finite")

    @property
    def right(self) -> float:
        return self.left + self.eta * (self.k - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.left + self.eta * np.arange(self.k)


@dataclass(frozen=True)
class BandwidthPair:
    """Kernel bandwidths for the observation and sigma directions."""

    h_x: float
    h_sigma: float

    def __post_init__(self):
        for name, v in (("h_x", self.h_x), ("h_sigma", self.h_sigma)):
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True, eq=False)
class FittedPrior:
    """Discretized prior estimate: grid nodes, simplex weights, fit diagnostics.

    ``kkt_gap`` measures how far the weights are from the simplex optimality
    conditions; see ``fit_weights``. ``hetsel.cli`` writes it into
    ``prior_fit.json``.
    """

    grid: PriorGrid
    weights: np.ndarray
    objective: float
    kkt_gap: float
    bandwidths: BandwidthPair | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.k,):
            raise ValueError("weights length must equal the grid size")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.objective < 0:
            raise ValueError("objective must be nonnegative")
        if not self.kkt_gap >= 0:
            raise ValueError("kkt_gap must be nonnegative")
        object.__setattr__(self, "weights", w)


def build_grid(xs, k: int = 50) -> PriorGrid:
    """Grid spanning the empirical 1% and 99% quantiles of the observations.

    Quantiles use order statistics with linear interpolation (probability p
    maps to 1-based index p (m - 1) + 1), i.e. numpy's default convention.
    """
    x = np.asarray(xs, dtype=float)
    if k < 2:
        raise ValueError("grid needs at least 2 nodes")
    if np.unique(x).size < 2:
        raise ValueError("need at least 2 distinct observations to build a grid")
    lo, hi = np.quantile(x, [0.01, 0.99])
    if not hi > lo:
        raise ValueError("degenerate support: 1% and 99% quantiles coincide")
    return PriorGrid(left=float(lo), eta=float((hi - lo) / (k - 1)), k=int(k))


def _rule_of_thumb(values: np.ndarray, m: int, name: str) -> float:
    # A far outlier overflows the sum of squares; sd is then inf and the
    # IQR sets the spread.
    with np.errstate(over="ignore"):
        sd = float(np.std(values, ddof=1))
    if sd <= 0:
        raise ValueError(f"zero spread in {name}: rule-of-thumb bandwidth vanishes")
    iqr = float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
    spread = min(sd, iqr) if iqr > 0 else sd
    return 0.9 * spread / (1.34 * m ** 0.2)


def silverman_bandwidths(xs, sigmas) -> BandwidthPair:
    """Rule-of-thumb bandwidths 0.9 min{sd(v), IQR(v)} / (1.34 m^(1/5)).

    Applied to the observations and to the standard deviations separately.
    The sample standard deviation uses the unbiased (ddof=1) convention.
    When ties make the IQR zero, sd alone sets the spread; only zero sd
    (all values equal) is rejected.
    When all sigmas coincide the sigma-direction kernel weights are uniform
    whatever the bandwidth, so the placeholder h_sigma = 1.0 is returned
    instead of failing the zero-spread check.
    """
    x = np.asarray(xs, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if x.shape != s.shape:
        raise ValueError("xs and sigmas must have the same length")
    m = x.size
    if m < 2:
        raise ValueError("need at least 2 observations for bandwidth selection")
    h_x = _rule_of_thumb(x, m, "xs")
    h_sigma = 1.0 if np.ptp(s) == 0 else _rule_of_thumb(s, m, "sigmas")
    return BandwidthPair(h_x=h_x, h_sigma=h_sigma)


def _cubic_weights(p):
    """Lagrange weights of the nodes -1, 0, 1, 2 at the point p."""
    below, above, beyond = p + 1.0, p - 1.0, p - 2.0
    return (
        p * above * beyond / -6.0,
        below * above * beyond / 2.0,
        below * p * beyond / -2.0,
        below * p * above / 6.0,
    )


def _smoothed_grid(xs, ws, h):
    """Binned Gaussian smoothing of weighted points, ready for interpolation.

    The points are spread with cubic weights onto nodes every h / 5 and the
    node counts are convolved with phi_h by one rFFT per segment. A sorted
    gap wider than two pads starts a new segment, so the grid grows with
    the number of points, not with their range. Returns (values, offset,
    start, size, dx): segment s covers values[offset[s]:offset[s] + size[s]],
    and its node _X_PAD lies at its first point start[s]. Positions are
    taken relative to that point, so they keep their precision however
    large x is.
    """
    dx = h / _X_NODES_PER_BANDWIDTH
    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order]
    new_segment = np.diff(xs) > 2 * _X_PAD * dx
    cut = np.flatnonzero(new_segment)
    start = np.concatenate((xs[:1], xs[cut + 1]))
    last = np.concatenate((xs[cut], xs[-1:]))
    size = np.floor((last - start) / dx).astype(np.int64) + 2 * _X_PAD + 1
    # Each segment gets a power-of-two FFT length; the zeros beyond its
    # size only widen the gap the circular convolution wraps across.
    length = 2 ** np.ceil(np.log2(size)).astype(np.int64)
    by_length = np.argsort(length, kind="stable")
    offset = np.empty_like(length)
    offset[by_length] = np.cumsum(length[by_length]) - length[by_length]
    values = np.zeros(int(length.sum()))
    seg = np.concatenate(([0], np.cumsum(new_segment)))
    chunk = _KERNEL_BLOCK_PAIRS // 4
    for lo in range(0, xs.size, chunk):
        s = seg[lo:lo + chunk]
        t = (xs[lo:lo + chunk] - start[s]) / dx + _X_PAD
        node = np.floor(t)
        base = offset[s] + node.astype(np.int64) - 1
        for e, w in enumerate(_cubic_weights(t - node)):
            values += np.bincount(base + e, w * ws[lo:lo + chunk], minlength=values.size)
    for n in np.unique(length).tolist():
        rows = np.flatnonzero(length == n)
        first = offset[rows[0]]
        block = values[first:first + rows.size * n].reshape(rows.size, n)
        # Fourier transform of phi with a standard deviation of 5 nodes.
        freq = np.arange(n // 2 + 1) / n
        transfer = np.exp(-2.0 * (math.pi * _X_NODES_PER_BANDWIDTH * freq) ** 2)
        block[:] = np.fft.irfft(np.fft.rfft(block, axis=1) * transfer, n=n, axis=1)
    values /= dx
    return values, offset, start, size, dx


def _interpolate(grid, x):
    """Cubic interpolation of a ``_smoothed_grid`` at x; 0 off its segments."""
    values, offset, start, size, dx = grid
    seg = np.maximum(np.searchsorted(start - _X_PAD * dx, x, side="right") - 1, 0)
    t = (x - start[seg]) / dx + _X_PAD
    inside = (t >= 1.0) & (t < size[seg] - 2)
    t = np.where(inside, t, 1.0)
    node = np.floor(t)
    base = offset[seg] + node.astype(np.int64) - 1
    out = np.zeros(x.size)
    for e, w in enumerate(_cubic_weights(t - node)):
        out += w * values[base + e]
    out *= inside
    return out


def kernel_marginals(x, sigma, bandwidths: BandwidthPair):
    """Weighted variable-bandwidth kernel estimate of each unit's marginal.

    For unit i the estimate is
        sum_j  w_ij * phi_{h_x sigma_j}(x_i - x_j),
    where w_ij normalizes phi_{h_sigma}(sigma_i - sigma_j) over j, so units
    with similar sigma dominate, and the x-kernel widens with sigma_j. The
    sum includes j = i, hence the result is strictly positive.

    The sum is evaluated on bins, not pair by pair. Each unit's sigma is
    spread with cubic Lagrange weights onto nodes u_b every h_sigma / 4
    from min(sigma) (one-sided stencils at the bottom, so no node lies
    below it). In each occupied sigma bin the units' x are binned again
    with cubic weights, onto nodes every h_x u_b / 5, and smoothed with
    phi_{h_x u_b} by FFT (``_smoothed_grid``). Unit i then reads
        sum_b phi_{h_sigma}(sigma_i - u_b) g_b(x_i)
            / sum_b phi_{h_sigma}(sigma_i - u_b) n_b,
    with g_b interpolated cubically and n_b the binned count, over the
    bins within 9 h_sigma. Terms beyond 9 bandwidths are below 3e-18 of a
    unit's own term; the relative error against the pairwise sum stays
    under 1e-3. Empty bins are never built and sparse x is split into
    segments, so time and memory grow with m and the occupied bins, not
    with the range of x or sigma; beyond a few arrays of length m, the
    temporaries stay near ``_KERNEL_BLOCK_PAIRS`` elements.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    if xs.shape != sg.shape or xs.ndim != 1:
        raise ValueError("x and sigma must be 1-d arrays of equal length")
    m = xs.size
    if m < 1:
        raise ValueError("need at least one observation")
    if not (np.isfinite(xs).all() and np.isfinite(sg).all() and (sg > 0).all()):
        raise ValueError("x must be finite and sigma positive and finite")
    order = np.argsort(sg, kind="stable")
    xs, sg = xs[order], sg[order]
    h_s = bandwidths.h_sigma
    step = _SIGMA_NODE_STEP * h_s
    tau = (sg - sg[0]) / step
    # Stencil of unit j: nodes first[j] .. first[j] + 3, at local point p[j]
    # relative to node first[j] + 1.
    first = np.maximum(np.floor(tau) - 1.0, 0.0)
    p = tau - first - 1.0
    first = first.astype(np.int64)
    node_weights = _cubic_weights(p)
    num = np.zeros(m)
    den = np.zeros(m)
    chunk = _KERNEL_BLOCK_PAIRS // 8
    for b in np.unique(np.unique(first)[:, None] + np.arange(4)).tolist():
        # Units with first = b - 3, ..., b form one run of the sigma order,
        # and b is node 3, ..., 0 of their stencils.
        bounds = np.searchsorted(first, [b - 3, b - 2, b - 1, b, b + 1])
        ws = np.concatenate(
            [node_weights[3 - i][bounds[i]:bounds[i + 1]] for i in range(4)]
        )
        if not ws.any():  # only units lying exactly on other nodes reach b
            continue
        u = sg[0] + b * step
        grid = _smoothed_grid(xs[bounds[0]:bounds[4]], ws, bandwidths.h_x * u)
        count = ws.sum()
        lo, hi = np.searchsorted(sg, [u - _REACH * h_s, u + _REACH * h_s])
        for start in range(lo, hi, chunk):
            stop = min(start + chunk, hi)
            sw = np.exp(-0.5 * np.square((sg[start:stop] - u) / h_s))
            num[start:stop] += sw * _interpolate(grid, xs[start:stop])
            den[start:stop] += sw * count
    out = np.empty(m)
    out[order] = num / den
    return out


def _design_matrix(grid: PriorGrid, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return _gauss(x[:, None] - grid.nodes[None, :], sigma[:, None])


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set solve of min ||E u - f|| subject to u >= 0.

    Finite in exact arithmetic; the pass bound only stops floating-point
    cycling.
    """
    n = E.shape[1]
    u = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * max(E.shape) * np.abs(E).sum(axis=0).max()
    for _ in range(3 * E.shape[0]):
        dual = E.T @ (f - E @ u)
        dual[free] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] <= tol:
            break
        free[j] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(E[:, free], f, rcond=None)[0]
            if np.all(z[free] > 0):
                break
            # Step from u towards z until the first free variable hits zero.
            blocking = np.flatnonzero(free & (z <= 0))
            ratios = u[blocking] / np.maximum(u[blocking] - z[blocking], _TINY)
            i = int(np.argmin(ratios))
            u += ratios[i] * (z - u)
            u[blocking[i]] = 0.0
            free &= u > 0
            u[~free] = 0.0
        u = z
    return u


def fit_weights(grid: PriorGrid, x, sigma, marginals) -> FittedPrior:
    """Least-squares simplex weights matching the implied marginals.

    Minimizes ||A w - b||^2 over the probability simplex, where
    A_ij = phi_{sigma_i}(x_i - node_j) and b holds the marginals. On the
    simplex A w - b = C w with C = A - b 1', so the objective is w'Hw with
    H = C'C. With R'R = H / s from the eigendecomposition of H, the NNLS
    objective ||R u||^2 + (1'u - 1)^2 has minimum q / (1 + q) along each ray
    u = t w, where q = w'Hw / s increases with w'Hw; hence the Lawson-Hanson
    solution, normalized to sum one, is the exact simplex minimizer. s, the
    largest eigenvalue of H, only balances the two terms.

    ``kkt_gap`` is the spread of the gradient g = 2Hw over the support plus
    how far the smallest g off the support falls below the smallest g on
    it, relative to max |g|; it is 0 at an exact optimum.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    b = np.asarray(marginals, dtype=float)
    if not (xs.shape == sg.shape == b.shape):
        raise ValueError("x, sigma and marginals must have equal length")
    if np.any(b <= 0):
        raise ValueError("marginals must be strictly positive")

    # A tiny sigma overflows the kernel's square, whose density is then 0 as
    # it should be, and can overflow H, which is checked below.
    with np.errstate(over="ignore"):
        C = _design_matrix(grid, xs, sg)
        C -= b[:, None]
        H = C.T @ C
    if not np.isfinite(H).all():
        # LAPACK would fail on H with an unrelated message.
        raise ValueError(
            f"the least-squares fit overflows: H = C'C is not finite, since the marginal "
            f"density reaches {float(b.max())!r} (the smallest sigma is {float(sg.min())!r})"
        )
    lam, V = np.linalg.eigh(H)
    R = np.sqrt(np.clip(lam, 0.0, None) / max(lam[-1], _TINY))[:, None] * V.T
    target = np.zeros(grid.k + 1)
    target[-1] = 1.0
    u = _nnls(np.vstack([R, np.ones(grid.k)]), target)
    w = u / u.sum()

    g = 2.0 * (H @ w)
    on = g[w > 0]
    shortfall = max(on.min() - g[w == 0].min(initial=np.inf), 0.0)
    kkt_gap = (np.ptp(on) + shortfall) / max(np.abs(g).max(), _TINY)
    return FittedPrior(
        grid=grid,
        weights=w,
        objective=max(float(w @ H @ w), 0.0),
        kkt_gap=float(kkt_gap),
    )


def _clfdr_table(fits: dict, group_ids, x, sigma):
    """Builds once the map mu0 -> clfdr of fixed units under fitted priors.

    Each unit is scored under the fit of its group. For each fit the
    running log-sum-exp across the ascending nodes,
        L_ij = log sum_{l <= j} w_l exp(-((x_i - node_l) / sigma_i)^2 / 2),
    is taken once; the unit factor 1 / (sqrt(2 pi) sigma_i) cancels in the
    ratio. Then clfdr(mu0) = exp(L_ij - L_i,k-1), with j the last node
    <= mu0 (closed inequality), so a new mu0 costs one row lookup and the
    ratio keeps its value where both densities underflow. The prefix never
    decreases, hence every value lies in [0, 1]. Units too many sigmas from
    the nodes for z^2 to resolve them are scored by ``_far_exponents``.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    gids = np.asarray(group_ids)
    tables = []
    for g, fit in fits.items():
        idx = np.flatnonzero(gids == g)
        nodes = fit.grid.nodes
        with np.errstate(divide="ignore"):
            log_w = np.log(fit.weights)
        # In place: these k x m arrays set the peak memory of select and
        # rvalue. The arithmetic is that of log_w - 0.5 z^2, bit for bit.
        with np.errstate(over="ignore"):
            z = (xs[idx][None, :] - nodes[:, None]) / sg[idx][None, :]
            np.square(z, out=z)
        # z^2 is largest at an end node.
        far = np.flatnonzero((z[0] >= _FAR_Z2) | (z[-1] >= _FAR_Z2))
        z *= -0.5
        z += log_w[:, None]
        if far.size:
            z[:, far] = _far_exponents(nodes, log_w, xs[idx][far], sg[idx][far])
        L = np.logaddexp.accumulate(z, axis=0, out=z)
        L -= L[-1]
        tables.append((idx, nodes, np.exp(L, out=L)))

    def clfdr(mu0: float) -> np.ndarray:
        out = np.empty(xs.shape, dtype=float)
        for idx, nodes, table in tables:
            j = int(np.searchsorted(nodes, mu0, side="right")) - 1
            out[idx] = table[j] if j >= 0 else 0.0
        return out

    return clfdr


def _far_exponents(nodes, log_w, x, sigma):
    """log w_j - ((x - node_j) / sigma)^2 / 2 up to a constant per unit, for
    units so far from the nodes that z^2 rounds away the node spacing or
    overflows.

    With r the nearest positive-weight node, the exponent is taken as
    log w_j - (node_r - node_j)(2x - node_j - node_r) / (2 sigma^2), whose
    factors keep their relative precision. Where the posterior is a point
    mass to double precision, every other node then weighs exactly 0, so
    the clfdr is its limit: 1 if node_r <= mu0 and 0 otherwise.
    """
    pos = np.flatnonzero(np.isfinite(log_w))
    n = nodes[pos]
    i = np.searchsorted(n, x)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, n.size - 1)
    r = np.where(x - n[lo] <= n[hi] - x, lo, hi)
    # Both factors share the sign of node_r - node_j, so q >= 0. A factor
    # is 0 only at r itself or where x lies exactly midway between node_r
    # and node_j, and q = 0 there too, also where the other factor is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        q = (n[r] - n[:, None]) / sigma * (((x - n[:, None]) + (x - n[r])) / (2.0 * sigma))
    q[np.isnan(q)] = 0.0
    out = np.full((nodes.size, x.size), -np.inf)
    out[pos] = log_w[pos, None] - q
    return out


# ---------------------------------------------------------------------------
# Known priors (for simulations) and exact conditional local FDR.
# ---------------------------------------------------------------------------


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


PriorComponent = Union[PointMass, UniformInterval, NormalComponent]


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


def oracle_clfdr(prior: TruePrior, x, sigma, mu0: float):
    """Exact conditional local FDR under a known prior.

    Point masses reduce to finite sums, uniform components to differences of
    normal CDFs, normal components to Gaussian convolution identities with a
    CDF truncation term; no generic quadrature is involved. The null and
    non-null marginals are summed in log space and combined as
    1 / (1 + exp(log f1 - log f0)), so the result lies in [0, 1] and keeps
    its value where both densities underflow.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    sg = np.atleast_1d(np.asarray(sigma, dtype=float))
    xs, sg = np.broadcast_arrays(xs, sg)
    log_null, log_alt = prior.log_masses(xs, sg, mu0)
    out = np.subtract(log_alt, log_null, out=log_alt)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    if np.ndim(x) == 0 and np.ndim(sigma) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Sigma laws and the joint (sigma, mu) model of the simulation designs.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Convenience pipeline: bandwidths + grid + kernel marginals + weights.
# ---------------------------------------------------------------------------


def fit_prior(x, sigma, *, k: int = 50) -> FittedPrior:
    """Full deconvolution fit for one group of observations."""
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    bandwidths = silverman_bandwidths(xs, sg)
    grid = build_grid(xs, k)
    marginals = kernel_marginals(xs, sg, bandwidths)
    return replace(fit_weights(grid, xs, sg, marginals), bandwidths=bandwidths)


def fit_prior_by_group(x, sigma, group_ids, *, k: int = 50) -> dict:
    """Fits one prior per sigma-group; returns {group_id: FittedPrior}.

    Fitting per group restores the independence between sigma and the
    effect prior that the estimator relies on when the two are correlated
    across groups. A group that cannot be fit (too few units, constant x)
    raises ValueError naming the group, its size and its sigma range.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    gids = np.asarray(group_ids)
    fits = {}
    for g in np.unique(gids):
        mask = gids == g
        key = g.item() if hasattr(g, "item") else g
        try:
            fits[key] = fit_prior(xs[mask], sg[mask], k=k)
        except ValueError as exc:
            lo, hi = float(sg[mask].min()), float(sg[mask].max())
            raise ValueError(
                f"fit group {key!r} ({int(mask.sum())} units, sigma in "
                f"[{lo!r}, {hi!r}]): {exc}"
            ) from exc
    return fits


def clfdr_by_group(fits: dict, group_ids, x, sigma, mu0: float) -> np.ndarray:
    """Evaluates each unit's conditional local FDR under its group's fit."""
    return _clfdr_table(fits, group_ids, x, sigma)(mu0)
