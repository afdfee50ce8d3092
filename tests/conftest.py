"""Shared helpers: coherent instance generators and independent oracles.

The generators draw (x, sigma) from explicit joint models and attach exact
conditional local FDR values, so every instance is realizable under the
model class the procedures assume. The oracles re-derive expected results
from scratch (pure-Python loops, direct objective evaluation) and never
call the code paths they check.
"""
from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

import numpy as np
from scipy.special import expit, log_ndtr

from hetsel import (
    BandwidthPair,
    ConstantSigma,
    FittedPrior,
    JointModel,
    NormalComponent,
    PointMass,
    PriorGrid,
    TruePrior,
    UniformInterval,
    UniformSigma,
    calibrate_thresholds,
    select_dd,
)
from hetsel.cli import _PRIOR_FIT_SCHEMA, _envelope
from hetsel.deconv import _KERNEL_BLOCK_PAIRS, _gauss


def point_masses(locs, weights) -> TruePrior:
    """A known prior of point masses at ``locs``."""
    return TruePrior(tuple(weights), tuple(PointMass(float(v)) for v in locs))


def fitted_prior_from_json(doc: dict) -> FittedPrior:
    """Reads back one fit of ``prior_fit.json`` (``hetsel.cli._prior_fit``)."""
    if doc.get("schema") != _PRIOR_FIT_SCHEMA:
        raise ValueError(
            f"unsupported prior fit schema {doc.get('schema')!r}; "
            f"expected {_PRIOR_FIT_SCHEMA!r}"
        )
    grid = PriorGrid(**doc["grid"])
    if not np.array_equal(grid.nodes, np.asarray(doc["nodes"], dtype=float)):
        raise ValueError("prior fit nodes do not match the grid block")
    bw = None
    if "bandwidths" in doc:
        bw = BandwidthPair(doc["bandwidths"]["h_x"], doc["bandwidths"]["h_sigma"])
    return FittedPrior(
        grid=grid,
        weights=np.asarray(doc["weights"], dtype=float),
        objective=float(doc["objective"]),
        kkt_gap=float(doc["kkt_gap"]),
        bandwidths=bw,
    )


def oracle_thresholds_mc(model, alpha, mu0, n_mc, seed):
    """Monte Carlo reference for ``oracle_thresholds``: draws n_mc units
    from ``model``, scores them by their exact clfdr and runs the empirical
    curve search of ``select_dd`` and reads its cutoffs with
    ``calibrate_thresholds``."""
    rng = np.random.default_rng(seed)
    x, sigma, _, group = model.sample(rng, int(n_mc))
    return calibrate_thresholds(select_dd(x, model.clfdr(x, sigma, group, mu0), alpha, mu0))


INSTANCE_FAMILIES = {
    "two-interval": JointModel.independent(
        TruePrior.uniform_mixture([(0.8, -3.0, -1.0), (0.2, 1.0, 2.0)]),
        UniformSigma(0.5, 3.0),
    ),
    "group2-rich": JointModel.independent(
        TruePrior.uniform_mixture([(0.05, -1.5, -0.5), (0.95, 0.5, 4.0)]),
        UniformSigma(1.0, 3.0),
    ),
    "point-mass": JointModel.independent(
        point_masses([-1.0, 0.8, 2.5], [0.3, 0.4, 0.3]),
        UniformSigma(0.5, 2.5),
    ),
    "mixed": JointModel.independent(
        TruePrior(
            (0.2, 0.5, 0.3),
            (
                PointMass(-0.7),
                UniformInterval(0.3, 2.0),
                NormalComponent(1.0, 0.5),
            ),
        ),
        UniformSigma(0.8, 3.0),
    ),
    "correlated": JointModel(
        (0.5, 0.5),
        (ConstantSigma(0.5), ConstantSigma(2.5)),
        (
            TruePrior.normal_mixture([(0.6, -0.5, 0.25), (0.4, 1.5, 0.25)]),
            TruePrior.normal_mixture([(0.6, -0.5, 0.25), (0.4, 3.0, 0.25)]),
        ),
    ),
}


def coherent_instance(rng, m, mu0=0.0, family=None):
    """One instance (x, sigma, clfdr) with exact scores under a known model."""
    names = sorted(INSTANCE_FAMILIES)
    name = family or names[int(rng.integers(len(names)))]
    model = INSTANCE_FAMILIES[name]
    x, sigma, mu, group = model.sample(rng, m)
    clfdr = model.clfdr(x, sigma, group, mu0)
    return x, sigma, clfdr, model


def classify_group(x, clfdr, mu0, alpha):
    """Scalar oracle of ``SelectionCurve.group``: the group label of one unit."""
    if x - mu0 >= 0:
        return 0 if clfdr - alpha <= 0 else 1
    return 2 if clfdr - alpha <= 0 else 3


def score(x, clfdr, mu0, alpha):
    """Scalar oracle of ``SelectionCurve.t``: the score t of one unit."""
    if not 0.0 <= clfdr <= 1.0:
        raise ValueError("clfdr must lie in [0, 1]")
    num = x - mu0
    den = clfdr - alpha
    if den == 0.0:
        return math.inf if num > 0 else (-math.inf if num < 0 else 0.0)
    return num / den


def classify_groups_select(x, clfdr, mu0, alpha):
    """Reference for ``SelectionCurve.group``: ``np.select`` over the three
    labelled sign patterns, group 3 by default."""
    gain = np.asarray(x, dtype=float) - mu0 >= 0
    cheap = np.asarray(clfdr, dtype=float) - alpha <= 0
    return np.select(
        [gain & cheap, gain & ~cheap, ~gain & cheap],
        [0, 1, 2],
        default=3,
    ).astype(np.int8)


def score_arrays_where(x, clfdr, mu0, alpha):
    """Reference for ``SelectionCurve.t``: the sentinels chosen by ``np.where``
    before dividing by a denominator with its zeros replaced by 1."""
    num = np.asarray(x, dtype=float) - mu0
    den = np.asarray(clfdr, dtype=float) - alpha
    zero = den == 0.0
    safe = np.where(zero, 1.0, den)
    return np.where(zero, np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0)), num / safe)


def ordered_reference(indices, t, x, descending_t: bool):
    """Reference for the order of groups 1 and 2 in ``SelectionCurve``:
    one 3-key ``lexsort`` by t (descending for group 1), then by larger x,
    then by earlier position."""
    key_t = -t[indices] if descending_t else t[indices]
    return indices[np.lexsort((indices, -x[indices], key_t))]


def stepwise_reference(x, clfdr, alpha, mu0):
    """The step-wise rule move by move in Python on the groups of the
    ``np.select`` / ``np.where`` / ``lexsort`` references; returns
    (g0, g1, g2, t, decisions). Each purchase of a group-2 unit is kept
    unless the refilled selection has strictly less modified power; the
    budget and power after b purchases are the same sums the curve
    compares, so the decisions match bit for bit."""
    x = np.asarray(x, dtype=float)
    cl = np.asarray(clfdr, dtype=float)
    t = score_arrays_where(x, cl, mu0, alpha)
    labels = classify_groups_select(x, cl, mu0, alpha)
    g0 = np.flatnonzero(labels == 0)
    g1 = ordered_reference(np.flatnonzero(labels == 1), t, x, descending_t=True)
    g2 = ordered_reference(np.flatnonzero(labels == 2), t, x, descending_t=False)
    cap0, etp0 = float(np.sum(alpha - cl[g0])), float(np.sum(x[g0] - mu0))
    cost1, power1 = np.cumsum(cl[g1] - alpha).tolist(), np.cumsum(x[g1] - mu0).tolist()
    gain2, loss2 = np.cumsum(alpha - cl[g2]).tolist(), np.cumsum(x[g2] - mu0).tolist()

    def refill(b):
        cap = cap0 + (gain2[b - 1] if b else 0.0)
        a = 0
        while a < len(g1) and cost1[a] <= cap:
            a += 1
        return a, etp0 + (loss2[b - 1] if b else 0.0) + (power1[a - 1] if a else 0.0)

    b = 0
    a, etp = refill(0)
    while a < len(g1) and b < len(g2):
        a_next, etp_next = refill(b + 1)
        if etp_next < etp:
            break
        b, a, etp = b + 1, a_next, etp_next
    decisions = np.zeros(x.size, dtype=np.int8)
    decisions[g0] = 1
    decisions[g1[:a]] = 1
    decisions[g2[:b]] = 1
    return g0, g1, g2, t, decisions


def enumerate_prefix_best(x, clfdr, alpha, mu0, tol=1e-12):
    """Exhaustive maximum of sum(x - mu0) over feasible prefix selections.

    Considers every subset made of all group-0 units, a descending-score
    prefix of group 1 and an ascending-score prefix of group 2, subject to
    sum(clfdr - alpha) <= tol. Pure Python, quadratic in the group sizes.
    """
    x = np.asarray(x, dtype=float)
    clfdr = np.asarray(clfdr, dtype=float)
    m = x.size
    t = np.empty(m)
    for i in range(m):
        den = clfdr[i] - alpha
        num = x[i] - mu0
        if den == 0.0:
            t[i] = np.inf if num > 0 else (-np.inf if num < 0 else 0.0)
        else:
            t[i] = num / den
    g0, g1, g2 = [], [], []
    for i in range(m):
        if x[i] >= mu0:
            (g0 if clfdr[i] <= alpha else g1).append(i)
        elif clfdr[i] <= alpha:
            g2.append(i)
    g1.sort(key=lambda i: (-t[i], -x[i], i))
    g2.sort(key=lambda i: (t[i], -x[i], i))
    best = -np.inf
    for a in range(len(g1) + 1):
        for b in range(len(g2) + 1):
            chosen = g0 + g1[:a] + g2[:b]
            if sum(clfdr[i] - alpha for i in chosen) <= tol:
                best = max(best, sum(x[i] - mu0 for i in chosen))
    return best if best > -np.inf else 0.0


def stepup_bh_reference(pvalues, alpha):
    """BH step-up by direct loop: the largest j with p_(j) <= j alpha / m."""
    p = sorted(pvalues)
    m = len(p)
    k = 0
    for j in range(1, m + 1):
        if p[j - 1] <= j * alpha / m:
            k = j
    if k == 0:
        return [0] * m
    cut = p[k - 1]
    return [1 if v <= cut else 0 for v in pvalues]


def stepup_clfdr_reference(clfdrs, alpha):
    """Running-mean step-up by direct loop, ties at the cutoff included."""
    c = sorted(clfdrs)
    m = len(c)
    k = 0
    total = 0.0
    for j in range(1, m + 1):
        total += c[j - 1]
        if total / j <= alpha:
            k = j
    if k == 0:
        return [0] * m
    cut = c[k - 1]
    return [1 if v <= cut else 0 for v in clfdrs]


def kernel_marginals_exact(x, sigma, bandwidths: BandwidthPair):
    """Weighted variable-bandwidth kernel estimate of each unit's marginal.

    For unit i the estimate is
        sum_j  w_ij * phi_{h_x sigma_j}(x_i - x_j),
    where w_ij normalizes phi_{h_sigma}(sigma_i - sigma_j) over j, so units
    with similar sigma dominate, and the x-kernel widens with sigma_j. The
    sum includes j = i, hence the result is strictly positive.

    Rows are evaluated in blocks of about ``_KERNEL_BLOCK_PAIRS`` pairs, so
    each temporary stays near 2 MB whatever m is.

    The exact pairwise reference for the binned ``kernel_marginals``.
    """
    xs = np.asarray(x, dtype=float)
    sg = np.asarray(sigma, dtype=float)
    if xs.shape != sg.shape or xs.ndim != 1:
        raise ValueError("x and sigma must be 1-d arrays of equal length")
    m = xs.size
    if m < 1:
        raise ValueError("need at least one observation")
    hx_j = bandwidths.h_x * sg
    out = np.empty(m, dtype=float)
    # At least 8 rows: einsum sums a block of one row in another order,
    # and the marginals would then depend on the block size.
    rows = max(8, _KERNEL_BLOCK_PAIRS // m)
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        sw = _gauss(sg[start:stop, None] - sg[None, :], bandwidths.h_sigma)
        sw /= sw.sum(axis=1, keepdims=True)
        xk = _gauss(xs[start:stop, None] - xs[None, :], hx_j[None, :])
        out[start:stop] = np.einsum("ij,ij->i", sw, xk)
    return out


def kernel_marginal(i, x, sigma, bandwidths):
    """Kernel marginal estimate of one unit, the scalar oracle for
    ``kernel_marginals_exact``: sum_j w_ij phi_{h_x sigma_j}(x_i - x_j) with
    w_ij proportional to phi_{h_sigma}(sigma_i - sigma_j)."""
    def gauss(z, h):
        return math.exp(-0.5 * (z / h) ** 2) / (math.sqrt(2.0 * math.pi) * h)

    sw = [gauss(sigma[i] - s, bandwidths.h_sigma) for s in sigma]
    xk = [gauss(x[i] - xj, bandwidths.h_x * s) for xj, s in zip(x, sigma)]
    return sum(a * b for a, b in zip(sw, xk)) / sum(sw)


def clfdr_linear(fit, x, sigma, mu0):
    """Linear-space reference for ``clfdr_by_group``: the ratio of the null
    and full weighted node densities, summed as densities. Valid in the bulk
    only; both sums underflow to 0 far outside the grid."""
    xs, sg = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(sigma, dtype=float))
    z = (xs[:, None] - fit.grid.nodes[None, :]) / sg[:, None]
    dens = np.exp(-0.5 * z ** 2) / (math.sqrt(2.0 * math.pi) * sg[:, None])
    null_mask = fit.grid.nodes <= mu0
    return (dens[:, null_mask] @ fit.weights[null_mask]) / (dens @ fit.weights)


def _log_interval_mass_scipy(z_lo, z_hi):
    """log P(z_lo <= Z <= z_hi) by scipy's log_ndtr, intervals right of
    zero mirrored to the left."""
    right = z_lo > 0
    lo = np.where(right, -z_hi, z_lo)
    hi = np.where(right, -z_lo, z_hi)
    log_hi = log_ndtr(hi)
    with np.errstate(divide="ignore"):
        return log_hi + np.log(-np.expm1(log_ndtr(lo) - log_hi))


def _component_log_masses_scipy(comp, w, x, sigma, mu0):
    """(null, non-null) log marginal masses of one weighted component, in
    the textbook form: posterior mean and sd, then scipy's log_ndtr."""
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    none = np.full(x.shape, -np.inf)
    if isinstance(comp, PointMass):
        z = (x - comp.loc) / sigma
        dens = log_w - 0.5 * np.square(z) - np.log(math.sqrt(2.0 * math.pi) * sigma)
        return (dens, none) if comp.loc <= mu0 else (none, dens)
    if isinstance(comp, UniformInterval):
        log_scale = log_w - math.log(comp.high - comp.low)

        def piece(low, high):
            if not high > low:
                return none
            return log_scale + _log_interval_mass_scipy((x - high) / sigma, (x - low) / sigma)

        return piece(comp.low, min(comp.high, mu0)), piece(max(comp.low, mu0), comp.high)
    total_var = sigma ** 2 + comp.sd ** 2
    dens = (
        log_w
        - 0.5 * (x - comp.mean) ** 2 / total_var
        - 0.5 * np.log(2.0 * math.pi * total_var)
    )
    post_mean = comp.mean + (comp.sd ** 2 / total_var) * (x - comp.mean)
    post_sd = sigma * comp.sd / np.sqrt(total_var)
    z = (mu0 - post_mean) / post_sd
    small = log_ndtr(-np.abs(z))
    large = np.log1p(-np.exp(small))
    below = z < 0
    return dens + np.where(below, small, large), dens + np.where(below, large, small)


def oracle_clfdr_scipy(prior, x, sigma, mu0):
    """Reference for ``oracle_clfdr``: the same closed forms evaluated with
    scipy's log_ndtr and expit, summed from -inf arrays, one whole-array
    pass per component."""
    xs, sg = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(sigma, dtype=float))
    )
    log_null = np.full(xs.shape, -np.inf)
    log_alt = np.full(xs.shape, -np.inf)
    for w, comp in zip(prior.weights, prior.components):
        d0, d1 = _component_log_masses_scipy(comp, w, xs, sg, mu0)
        log_null = np.logaddexp(log_null, d0)
        log_alt = np.logaddexp(log_alt, d1)
    return expit(log_null - log_alt)


def write_json_reference(path, doc):
    """The JSON artifact format by the standard library's encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tied_units(r):
    """Reference tie flags of r-values ``r``: a unit is tied iff its r is
    finite and another unit shares it."""
    counts = Counter(r.tolist())
    return np.array([math.isfinite(v) and counts[v] > 1 for v in r.tolist()], dtype=bool)


def write_rvalues_reference(config, ids, x, sigma, table):
    """Reference for ``rvalues.csv`` and ``rvalues.json`` in ``config.output``:
    ``csv.writer`` over repr cells, empty where r is infinite or r_prime is
    NaN, and ``json.dump`` of the envelope around the scan's metadata and
    the counts of the finite r."""
    finite = Counter(v for v in table.r.tolist() if math.isfinite(v))
    doc = _envelope("rvalues", config, {
        "schema": "hetsel/rvalues/v1",
        "definition": table.definition,
        "grid_resolution": table.grid_resolution,
        "n_grid": table.n_grid,
        "n_distinct_r": len(finite),
        "largest_tie": max(finite.values(), default=0),
    })

    def cell(v):
        return repr(v) if math.isfinite(v) else ""

    resolution = repr(table.grid_resolution)
    with open(os.path.join(config.output, "rvalues.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "sigma", "r", "r_prime", "definition", "grid_resolution"])
        writer.writerows(
            [uid, repr(xv), repr(sg), cell(rv), cell(rp), table.definition, resolution]
            for uid, xv, sg, rv, rp in zip(
                ids, np.asarray(x, dtype=float).tolist(), np.asarray(sigma, dtype=float).tolist(),
                table.r.tolist(), table.r_prime.tolist(),
            )
        )
    write_json_reference(os.path.join(config.output, "rvalues.json"), doc)


def trace_steps(curve):
    """``curve.trace_columns`` as a list of dicts ``{"step", "unit",
    "etp_star", "capacity"}``, one per step, ``unit`` None at a
    checkpoint."""
    cols = curve.trace_columns
    return [
        {"step": step, "unit": None if unit < 0 else unit, "etp_star": e, "capacity": k}
        for step, unit, e, k in zip(cols["step"], cols["unit"].tolist(),
                                    cols["etp_star"].tolist(), cols["capacity"].tolist())
    ]


def trace_reference(c):
    """The trace of a ``SelectionCurve`` replayed step by step in Python:
    running sums added unit by unit in the order the rule visits the units,
    checkpoints read off the curve."""
    x, cl, alpha, mu0 = c.x, c.clfdr, c.alpha, c.mu0
    trace = []
    if x.size == 0:
        return trace
    run = {"etp": 0.0, "cap": 0.0}

    def step(kind, unit, d_etp=None, d_cap=None):
        if d_etp is not None:
            run["etp"] += d_etp
            run["cap"] += d_cap
        trace.append({"step": kind, "unit": unit, "etp_star": run["etp"], "capacity": run["cap"]})

    def checkpoint(kind, b):
        a = int(c.a_of_b[b])
        trace.append({"step": kind, "unit": None, "etp_star": float(c.etp_b[b]),
                      "capacity": float(c.cap_b[b]) - float(c.cost1[a])})

    def refill(b):
        for i in c.g1[(int(c.a_of_b[b - 1]) if b else 0):int(c.a_of_b[b])]:
            step("add_group1", int(i), x[i] - mu0, -(cl[i] - alpha))
        checkpoint("store_etp", b)

    def buy(b):
        i = int(c.g2[b - 1])
        step("add_group2", i, x[i] - mu0, alpha - cl[i])
        refill(b)

    for i in c.g0:
        step("seed_group0", int(i), x[i] - mu0, alpha - cl[i])
    refill(0)
    for b in range(1, c.b_star + 1):
        buy(b)
    if c.stop == "power_decline":
        b = c.b_star + 1
        buy(b)
        for i in c.g1[c.a_star:int(c.a_of_b[b])][::-1]:
            step("rollback_group1", int(i), -(x[i] - mu0), cl[i] - alpha)
        i = int(c.g2[b - 1])
        step("rollback_group2", i, -(x[i] - mu0), -(alpha - cl[i]))
    checkpoint(f"stop_{c.stop}", c.b_star)
    return trace


def read_records_reference(path):
    """``(ids, x, sigma)`` of a direct-layout input CSV by ``csv.reader``,
    one record at a time, with the same line-numbered errors."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, x_col, sigma_col = [], [], []
        # Each record is numbered by the line it starts on.
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            try:
                if len(row) < 3:
                    raise ValueError("expected at least 3 fields")
                rid, x, sigma = row[0], float(row[1]), float(row[2])
                if not (sigma > 0 and math.isfinite(sigma) and math.isfinite(x)):
                    raise ValueError("need sigma > 0 and finite x")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ids.append(rid)
            x_col.append(x)
            sigma_col.append(sigma)
    return ids, np.array(x_col, dtype=float), np.array(sigma_col, dtype=float)
