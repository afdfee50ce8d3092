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
* ``oracle_clfdr`` combines the null and non-null marginal masses of any
  prior that states them, for simulations where the generating
  distribution is known. The known law itself, with its closed forms,
  lives in ``hetsel.law``, which only the simulations load.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "PriorGrid",
    "BandwidthPair",
    "FittedPrior",
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
# Binned kernel_marginals grids, set by its 1e-3 relative-error gate.
# sigma nodes are evenly spaced in v(sigma) = log(sinh(k sigma)) / rho with
# rho = _SIGMA_NODE_RATIO and k = rho / (_SIGMA_NODE_STEP h_sigma): h_sigma / 4
# apart where sigma is large and about sigma / 16 apart where it is small,
# so neither the sigma weight nor the x bandwidth h_x u changes much from
# one node to the next.
_SIGMA_NODE_STEP = 0.25
_SIGMA_NODE_RATIO = 1.0 / 16.0
# x nodes every h_x u_lo / 5 in a run of sigma nodes whose lowest is u_lo. A
# run spans less than an octave of u, so a node's bandwidth is 5 to 10 x
# nodes wide.
_X_NODES_PER_BANDWIDTH = 5
# Kernel terms are dropped beyond 9 bandwidths, where they fall below
# exp(-40.5) of a unit's own term.
_REACH = 9.0
# x nodes beyond a tile's outer points: the reach of the widest bandwidth
# in its run plus the cubic stencil.
_X_PAD = int(_REACH * 2 * _X_NODES_PER_BANDWIDTH) + 2

_TINY = np.finfo(float).tiny
# Units with ((x - node) / sigma)^2 at or above this at some node are scored
# by _far_exponents: beyond it the rounding of z^2 (about eps z^2) passes
# 2^-20 in the exponent.
_FAR_Z2 = 2.0 ** 32


def _gauss(z, h):
    """Gaussian kernel with scale h: exp(-z^2 / (2 h^2)) / (sqrt(2 pi) h).

    Works in place on z, a float array the caller has just made, so the
    fit's m x k design matrix (``_design_matrix``) allocates no further
    temporaries.
    """
    z /= h
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    z /= _SQRT_2PI * h
    return z


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


def _quantiles(values, qs) -> np.ndarray:
    """``np.quantile(values, qs)`` for a 1-d float array and a list of
    probabilities, bit for bit, with numpy's default linear method.

    The order statistics come from the same ``np.partition`` call, at the
    virtual index (n - 1) q, and are interpolated as numpy's ``_lerp``
    does: a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5. A NaN
    makes every quantile NaN. Unlike ``np.quantile``, this never calls
    ``np.unique``, which imports ``numpy.ma``.
    """
    v = (values.size - 1) * np.asarray(qs, dtype=float)
    below = np.floor(v)
    above = below + 1.0
    top = v >= values.size - 1
    below[top] = above[top] = -1.0
    below, above = below.astype(np.intp), above.astype(np.intp)
    kth = np.sort(np.concatenate(([0, -1], below, above)))
    kth = kth[np.concatenate(([True], kth[1:] != kth[:-1]))]
    part = np.partition(values, kth)
    a, b = part[below], part[above]
    t = v - below
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(part[-1]):
        out[:] = part[-1]
    return out


def build_grid(xs, k: int = 50) -> PriorGrid:
    """Grid spanning the empirical 1% and 99% quantiles of the observations.

    Quantiles use order statistics with linear interpolation (probability p
    maps to 1-based index p (m - 1) + 1), i.e. numpy's default convention.
    """
    x = np.asarray(xs, dtype=float)
    if k < 2:
        raise ValueError("grid needs at least 2 nodes")
    # At least 2 distinct values, NaN counting as one and -0.0 as 0.0, as
    # np.unique counts them.
    ends = np.sort(x)[[0, -1]] if x.size else None
    if ends is None or not (ends[0] < ends[1] or (ends[1] != ends[1] and ends[0] == ends[0])):
        raise ValueError("need at least 2 distinct observations to build a grid")
    lo, hi = _quantiles(x, [0.01, 0.99])
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
    iqr = float(_quantiles(values, [0.75])[0] - _quantiles(values, [0.25])[0])
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


def _pow2(n):
    """The smallest power of two at or above each count in ``n``."""
    return 2 ** np.ceil(np.log2(np.maximum(n, 1))).astype(np.int64)


def _distinct(values):
    """The distinct values of a sorted array."""
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _log_sinh(y):
    """log(sinh(y)) for y > 0, without overflow."""
    return y - math.log(2.0) + np.log(-np.expm1(-2.0 * y))


def _sigma_weights(d, h):
    """phi_{h}(d) up to its constant factor, within ``_REACH`` + 1 bandwidths:
    the extra bandwidth covers the three node steps of a unit's stencil."""
    return np.where(np.abs(d) <= (_REACH + 1.0) * h, np.exp(-0.5 * np.square(d / h)), 0.0)


def _sigma_lattice(sg, h_s):
    """Spreads each sigma onto four nodes of the sigma lattice.

    Returns ``(w_sigma, row0, u)``: unit i has the cubic Lagrange weights
    w_sigma[:, i] on the occupied rows row0[i], ..., row0[i] + 3, whose
    nodes are u[row0[i]], ... . The nodes are evenly spaced in v(sigma)
    (see ``_SIGMA_NODE_RATIO``) from min(sigma), which is node 0; a unit
    within the first step takes a one-sided stencil, so no node lies below
    min(sigma).
    """
    k = _SIGMA_NODE_RATIO / (_SIGMA_NODE_STEP * h_s)
    s0 = sg.min()
    v0 = _log_sinh(k * s0)
    tau = (_log_sinh(k * sg) - v0) / _SIGMA_NODE_RATIO
    first = np.maximum(np.floor(tau) - 1.0, 0.0)
    w_sigma = np.array(_cubic_weights(tau - first - 1.0))
    lead, inverse = np.unique(first.astype(np.int64), return_inverse=True)
    nodes = _distinct(np.sort((lead[:, None] + np.arange(4)).ravel()))
    row0 = np.searchsorted(nodes, lead)[inverse]
    # Inverse of v: asinh(e^t) / k, in the form that neither overflows nor
    # cancels on either side of t = 0.
    t = v0 + _SIGMA_NODE_RATIO * nodes
    low, high = np.minimum(t, 0.0), np.maximum(t, 0.0)
    u = np.where(
        t <= 0.0, np.arcsinh(np.exp(low)), high + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * high)))
    ) / k
    u[0] = s0
    return w_sigma, row0, u


def _sigma_sums(u, values, h_s):
    """sum_b phi_{h_sigma}(u_c - u_b) values_b for every row c, over the rows
    within reach: a band of the sorted rows."""
    out = values.copy()
    for shift in range(1, u.size):
        d = u[shift:] - u[:-shift]
        if not (d <= (_REACH + 1.0) * h_s).any():
            break
        w = _sigma_weights(d, h_s)
        out[shift:] += w * values[:-shift]
        out[:-shift] += w * values[shift:]
    return out


@dataclass(frozen=True, eq=False)
class _Tiles:
    """The tiles of a binned kernel, one entry per tile.

    Tile t holds the units of one run of sigma rows whose x fall in one
    segment. Its source rows are lo[t] .. hi[t]; its output rows a[t] ..
    b[t] - 1 are every occupied row within reach of them. Its x nodes lie
    dx[t] apart, node ``_X_PAD`` at its first unit's x, x0[t]; size[t]
    nodes hold its units and pads, padded to length[t], a power of two.
    Its entries start at index start[t] of the sorted entries. The grids
    are stored by shape class: the tiles of class c, order[bounds[c]:
    bounds[c + 1]], share their length and their numbers of source and
    output rows, n_src[t] and n_out[t], both padded to powers of two.
    Source grids start at g_off[t] of one flat array, output grids at
    h_off[t] of another.
    """

    start: np.ndarray
    run: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    dx: np.ndarray
    size: np.ndarray
    length: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    n_src: np.ndarray
    n_out: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    g_off: np.ndarray
    h_off: np.ndarray


def _tiles(e_x, e_run, e_lo, e_hi, run_dx, u, reach) -> _Tiles:
    """Cuts entries (a unit in one run: x, run, first and last row), sorted
    by run and then x, into tiles: a new tile at each new run and at each x
    gap wider than two pads. A gap that overflows is infinite and cuts."""
    with np.errstate(over="ignore"):
        gap = np.diff(e_x)
    cut = np.flatnonzero((e_run[1:] != e_run[:-1]) | (gap > 2 * _X_PAD * run_dx[e_run[1:]])) + 1
    first = np.concatenate(([0], cut))
    last = np.append(cut, e_x.size) - 1
    run = e_run[first]
    x0, x1, dx = e_x[first], e_x[last], run_dx[run]
    size = np.floor((x1 - x0) / dx).astype(np.int64) + 2 * _X_PAD + 1
    length = _pow2(size)
    lo = np.minimum.reduceat(e_lo, first)
    hi = np.maximum.reduceat(e_hi, first)
    a = np.searchsorted(u, u[lo] - reach)
    b = np.searchsorted(u, u[hi] + reach, side="right")
    n_src, n_out = _pow2(hi - lo + 1), _pow2(b - a)
    shape = (np.log2(length) * 64 + np.log2(n_src)) * 64 + np.log2(n_out)
    shapes, cls = np.unique(shape.astype(np.int64), return_inverse=True)
    order = np.argsort(cls, kind="stable")
    bounds = np.searchsorted(cls[order], np.arange(shapes.size + 1))
    g_cells, h_cells = (n_src * length)[order], (n_out * length)[order]
    g_off, h_off = np.empty_like(length), np.empty_like(length)
    g_off[order] = np.cumsum(g_cells) - g_cells
    h_off[order] = np.cumsum(h_cells) - h_cells
    return _Tiles(first, run, x0, x1, dx, size, length, lo, hi, a, b, n_src, n_out, order,
                  bounds, g_off, h_off)


def _smoothed_tiles(tl, e_x, e_unit, row0, w_sigma, u, run_u, h_s):
    """The output grids of every tile, flat: row c of tile t holds
    sum_b phi_{h_sigma}(u_c - u_b) g_b(x) / dx[t] over its source rows b,
    with g_b the binned counts of row b smoothed by phi_{h_x u_b}.

    ``e_x`` and ``e_unit`` list the entries in the order ``_tiles`` cut.
    """
    # Entries in the order of the flat source grid: each tile's range, by class.
    count = np.diff(np.append(tl.start, e_x.size))[tl.order]
    tile = np.repeat(tl.order, count)
    shift = tl.start[tl.order] - (np.cumsum(count) - count)
    where = np.arange(e_x.size) + np.repeat(shift, count)
    e_x, e_unit = e_x[where], e_unit[where]
    G = np.zeros(int((tl.n_src * tl.length).sum()))
    four = np.arange(4)[:, None]
    # The stencil slots that carry weight for some unit: with every unit on
    # a node (sigma constant), three of the four are empty.
    slots = np.flatnonzero(w_sigma.any(axis=1))[:, None]
    # Blocks of entries, up to 16 cells each: a unit's 4 rows times 4 x nodes.
    chunk = _KERNEL_BLOCK_PAIRS // 16
    for lo in range(0, e_x.size, chunk):
        t = tile[lo:lo + chunk]
        units = e_unit[lo:lo + chunk]
        pos = (e_x[lo:lo + chunk] - tl.x0[t]) / tl.dx[t] + _X_PAD
        node = np.floor(pos)
        w_x = np.array(_cubic_weights(pos - node))
        rows = row0[units] + slots
        # A unit's rows outside the tile lie in another run.
        w_rows = w_sigma[slots, units] * ((rows >= tl.lo[t]) & (rows <= tl.hi[t]))
        first = int(tl.g_off[t[0]])
        base = (tl.g_off[t] - first - 1 + node.astype(np.int64)
                + (np.clip(rows, tl.lo[t], tl.hi[t]) - tl.lo[t]) * tl.length[t])
        cells = np.bincount(
            (base[:, None, :] + four[None]).ravel(),
            (w_rows[:, None, :] * w_x[None, :, :]).ravel(),
        )
        G[first:first + cells.size] += cells

    H = np.empty(int((tl.n_out * tl.length).sum()))
    for c in range(tl.bounds.size - 1):
        tiles = tl.order[tl.bounds[c]:tl.bounds[c + 1]]
        t0 = tiles[0]
        n, n_src, n_out = int(tl.length[t0]), int(tl.n_src[t0]), int(tl.n_out[t0])
        g = G[tl.g_off[t0]:tl.g_off[t0] + tiles.size * n_src * n].reshape(tiles.size, n_src, n)
        src = tl.lo[tiles][:, None] + np.arange(n_src)
        src_in = src <= tl.hi[tiles][:, None]
        src = np.minimum(src, tl.hi[tiles][:, None])
        # Fourier transform of phi with a standard deviation of
        # 5 u_b / u_lo nodes, row by row.
        width = _X_NODES_PER_BANDWIDTH * u[src] / run_u[tl.run[tiles]][:, None]
        freq = np.arange(n // 2 + 1) / n
        transfer = np.exp(-2.0 * math.pi ** 2 * np.square(width)[:, :, None] * np.square(freq))
        g = np.fft.irfft(np.fft.rfft(g, axis=2) * transfer, n=n, axis=2)
        out = tl.a[tiles][:, None] + np.arange(n_out)
        out_in = out < tl.b[tiles][:, None]
        out = np.minimum(out, tl.b[tiles][:, None] - 1)
        weights = _sigma_weights(u[out][:, :, None] - u[src][:, None, :], h_s)
        weights *= out_in[:, :, None] & src_in[:, None, :]
        weights /= tl.dx[tiles][:, None, None]
        np.matmul(weights, g, out=H[tl.h_off[t0]:tl.h_off[t0] + tiles.size * n_out * n]
                  .reshape(tiles.size, n_out, n))
    return H


def _read_tiles(tl, H, xs, row0, w_sigma, r_first, r_count):
    """sum over the tiles each unit reads of the bicubic interpolation of
    their output grids at the unit: its four rows' sigma weights times
    cubic weights in x.

    Unit i reads, in run r_first[i] + k for k < r_count[i], the tile whose
    x range holds it, if the tile's output rows hold its four rows.
    Units are in x order, so a unit's index is its x rank.
    """
    m = xs.size
    # The stencil slots that carry weight for some unit.
    slots = np.flatnonzero(w_sigma.any(axis=1)).tolist()
    # Tiles are sorted by run, then x: key run * (m + 1) + the x rank of
    # their start.
    start = np.searchsorted(xs, tl.x0 - _X_PAD * tl.dx)
    stop = np.searchsorted(xs, tl.x1 + _X_PAD * tl.dx, side="right")
    key = tl.run * (m + 1) + start
    num = np.zeros(m)
    chunk = _KERNEL_BLOCK_PAIRS // 4
    for lo in range(0, m, chunk):
        block = np.arange(lo, min(lo + chunk, m))
        for k in range(int(r_count[block].max())):
            units = block[r_count[block] > k]
            run = r_first[units] + k
            t = np.searchsorted(key, run * (m + 1) + units, side="right") - 1
            ok = t >= 0
            t = np.maximum(t, 0)
            row = row0[units] - tl.a[t]
            # A unit too far from the tile for pos to be finite fails the
            # range test below.
            with np.errstate(over="ignore"):
                pos = (xs[units] - tl.x0[t]) / tl.dx[t] + _X_PAD
            ok &= (tl.run[t] == run) & (units < stop[t])
            ok &= (row >= 0) & (row + 4 <= tl.b[t] - tl.a[t])
            ok &= (pos >= 1.0) & (pos < tl.size[t] - 2)
            units, t, row, pos = units[ok], t[ok], row[ok], pos[ok]
            node = np.floor(pos)
            base = tl.h_off[t] + row * tl.length[t] + node.astype(np.int64) - 1
            w_x = _cubic_weights(pos - node)
            total = np.zeros(units.size)
            for e in slots:
                cell = base + e * tl.length[t]
                value = w_x[0] * H[cell]
                for f in range(1, 4):
                    value += w_x[f] * H[cell + f]
                total += w_sigma[e, units] * value
            num[units] += total
    return num


def kernel_marginals(x, sigma, bandwidths: BandwidthPair):
    """Weighted variable-bandwidth kernel estimate of each unit's marginal.

    For unit i the estimate is
        sum_j  w_ij * phi_{h_x sigma_j}(x_i - x_j),
    where w_ij normalizes phi_{h_sigma}(sigma_i - sigma_j) over j, so units
    with similar sigma dominate, and the x-kernel widens with sigma_j. The
    sum includes j = i, hence the result is strictly positive.

    The sum is evaluated on a two-dimensional binned grid (Wand, JCGS
    1994), not pair by pair. Each unit is spread with cubic Lagrange
    weights onto four sigma nodes u_b (``_sigma_lattice``) and, on each,
    four x nodes. The occupied sigma rows are cut into runs of less than
    an octave of u (at a gap wider than twice the reach too), and a run's
    units into x segments at gaps wider than two pads; a run times a
    segment is a tile, with x nodes every h_x u_lo / 5 for the run's
    lowest node u_lo. In each tile every row is smoothed by phi_{h_x u_b}
    with one batched rFFT, and the rows are summed onto every occupied row
    u_c within reach with the weights phi_{h_sigma}(u_c - u_b), one batched
    matrix product (``_smoothed_tiles``). Unit i then reads
        sum_c l_c sum_b phi_{h_sigma}(u_c - u_b) g_b(x_i)
            / sum_c l_c sum_b phi_{h_sigma}(u_c - u_b) n_b,
    with l_c the cubic weights of its own four rows, g_b interpolated
    cubically in x and n_b the binned count of row b: 16 grid reads per
    tile in its reach, one to three for sigma in [0.5, 3].

    Terms beyond 9 bandwidths, below 3e-18 of a unit's own term, are
    dropped; the relative error against the pairwise sum stays under
    1e-3. Empty rows and x gaps are never built, so time and memory grow
    with m and the occupied rows, not with the range of x or sigma. Beyond
    the grids (about 0.3 M cells at m = 10k) and a few arrays of length m,
    the temporaries stay near ``_KERNEL_BLOCK_PAIRS`` elements.
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
    order = np.argsort(xs)
    xs, sg = xs[order], sg[order]
    h_s = bandwidths.h_sigma
    reach = (_REACH + 1.0) * h_s
    w_sigma, row0, u = _sigma_lattice(sg, h_s)

    cut = np.flatnonzero((np.diff(np.floor(np.log2(u))) != 0) | (np.diff(u) > 2 * reach)) + 1
    run_lo = np.concatenate(([0], cut))
    run_hi = np.append(cut, u.size) - 1
    run_of_row = np.repeat(np.arange(run_lo.size), run_hi - run_lo + 1)
    run_dx = bandwidths.h_x * u[run_lo] / _X_NODES_PER_BANDWIDTH

    # Entries: each unit once per run its four rows fall in, most in one;
    # sorted by run, then x.
    r0 = run_of_row[row0]
    spill = run_of_row[row0 + 3] - r0
    e_unit, e_run = [np.arange(m)], [r0]
    for extra in range(1, int(spill.max()) + 1):
        more = np.flatnonzero(spill >= extra)
        e_unit.append(more)
        e_run.append(r0[more] + extra)
    e_unit, e_run = np.concatenate(e_unit), np.concatenate(e_run)
    by_run = np.argsort(e_run * (m + 1) + e_unit)
    e_unit, e_run = e_unit[by_run], e_run[by_run]
    e_x = xs[e_unit]
    tl = _tiles(
        e_x, e_run, np.maximum(row0[e_unit], run_lo[e_run]),
        np.minimum(row0[e_unit] + 3, run_hi[e_run]), run_dx, u, reach,
    )
    H = _smoothed_tiles(tl, e_x, e_unit, row0, w_sigma, u, u[run_lo], h_s)

    # The runs whose output rows hold a unit's four rows.
    low = np.searchsorted(u, u[run_lo] - reach)
    high = np.searchsorted(u, u[run_hi] + reach, side="right")
    r_first = np.searchsorted(high, row0 + 3, side="right")
    r_count = np.searchsorted(low, row0, side="right") - r_first
    num = _read_tiles(tl, H, xs, row0, w_sigma, r_first, r_count)
    mass = sum(np.bincount(row0 + e, w_sigma[e], minlength=u.size) for e in range(4))
    counts = _sigma_sums(u, mass, h_s)
    den = sum(w_sigma[e] * counts[row0 + e] for e in range(4))
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


def _log_prefix_rows(fit: FittedPrior, x, sigma):
    """Walks one fit's nodes in ascending order and yields, after node j,
    the running log-sum-exp of the units' log weighted node densities,
        L_j = log sum_{l <= j} w_l exp(-((x - node_l) / sigma)^2 / 2),
    as one row over the units; the unit factor 1 / (sqrt(2 pi) sigma)
    cancels in the clfdr and is left out. The prefix never decreases, so
    exp(L_j - L_last) lies in [0, 1].

    The row is one buffer that the next step updates in place: a caller
    that keeps a row copies it. Units too many sigmas from the nodes for
    z^2 to resolve them take their exponents from ``_far_exponents``.
    """
    nodes = fit.grid.nodes
    with np.errstate(divide="ignore"):
        log_w = np.log(fit.weights)
    # z^2 is largest at an end node.
    with np.errstate(over="ignore"):
        ends = (x[None, :] - nodes[[0, -1]][:, None]) / sigma[None, :]
        np.square(ends, out=ends)
    far = np.flatnonzero((ends[0] >= _FAR_Z2) | (ends[1] >= _FAR_Z2))
    if far.size:
        far_z = _far_exponents(nodes, log_w, x[far], sigma[far])
    acc = np.empty(x.size)
    z = np.empty(x.size)
    for j in range(nodes.size):
        # The arithmetic is that of log w_j - 0.5 z^2, bit for bit.
        with np.errstate(over="ignore"):
            np.subtract(x, nodes[j], out=z)
            z /= sigma
            np.square(z, out=z)
        z *= -0.5
        z += log_w[j]
        if far.size:
            z[far] = far_z[j]
        if j:
            np.logaddexp(acc, z, out=acc)
        else:
            np.copyto(acc, z)
        yield acc


def _clfdr_table(fits: dict, group_ids, x, sigma):
    """Builds once the map mu0 -> clfdr of fixed units under fitted priors,
    for a scan over many mu0.

    Each unit is scored under the fit of its group. The rows L_j of
    ``_log_prefix_rows`` are stacked into a k x m table once; then
    clfdr(mu0) = exp(L_j - L_last), with j the last node <= mu0 (closed
    inequality), so a new mu0 costs one row lookup and the ratio keeps its
    value where both densities underflow. ``clfdr_by_group`` takes one mu0
    from the same walk without the table.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    gids = np.asarray(group_ids)
    tables = []
    for g, fit in fits.items():
        idx = np.flatnonzero(gids == g)
        # This k x m table sets the peak memory of rvalue.
        L = np.empty((fit.grid.nodes.size, idx.size))
        for j, row in enumerate(_log_prefix_rows(fit, xs[idx], sg[idx])):
            L[j] = row
        L -= L[-1]
        tables.append((idx, fit.grid.nodes, np.exp(L, out=L)))

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


def oracle_clfdr(prior, x, sigma, mu0: float):
    """Exact conditional local FDR under a known prior.

    ``prior.log_masses(x, sigma, mu0)`` gives (log f0, log f1), the null
    (mu <= mu0) and non-null parts of the marginal density, as new arrays
    (``law.TruePrior`` states them in closed form). They are combined as
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
    labels, inverse = np.unique(gids, return_inverse=True)
    for i, g in enumerate(labels):
        mask = inverse == i
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
    """Evaluates each unit's conditional local FDR under its group's fit.

    One walk of ``_log_prefix_rows`` per group keeps the running row at the
    last node j <= mu0 and returns exp(L_j - L_last): the values of
    ``_clfdr_table(...)(mu0)`` bit for bit, without its k x m table.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    gids = np.asarray(group_ids)
    out = np.empty(xs.shape, dtype=float)
    for g, fit in fits.items():
        idx = np.flatnonzero(gids == g)
        j = int(np.searchsorted(fit.grid.nodes, mu0, side="right")) - 1
        if j < 0:
            out[idx] = 0.0
            continue
        for i, row in enumerate(_log_prefix_rows(fit, xs[idx], sg[idx])):
            if i == j:
                L_j = row.copy()
        L_j -= row
        out[idx] = np.exp(L_j, out=L_j)
    return out
