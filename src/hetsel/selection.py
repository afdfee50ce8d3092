"""Selection procedures: the prioritized step-wise rule and baselines.

Units are partitioned four ways by the signs of (x - mu0) and (clfdr -
alpha). Group 0 units gain both power and error budget and are always
selected; group 3 units lose both and never are. Groups 1 and 2 trade one
currency for the other, ranked by the value-to-cost score
t = (x - mu0) / (clfdr - alpha). The step-wise procedure alternates between
spending budget on group 1 (descending t) and buying budget from group 2
(ascending t), stopping when the realized modified power starts to fall.
Scores are compared on the t scale only; the bounded transform s = tanh(t)
is kept for reporting, because distinct t values collide in s long before
tanh saturates to exactly 1.0.

Every procedure returns 0/1 decisions (int8), the step-wise rule as part of
its ``SelectionCurve``, which also holds the scores ``t`` and the ordered
groups, and builds the units' group labels and the audit trail when they
are read. Sums over a selection, such as its modified power or leftover
budget, are left to the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deconv import oracle_clfdr

__all__ = [
    "ThresholdPair",
    "SelectionCurve",
    "select_dd",
    "select_clfdr_stepup",
    "clfdr_stepup_threshold",
    "select_bh",
    "calibrate_thresholds",
    "oracle_thresholds",
    "select_oracle",
]

@dataclass(frozen=True)
class ThresholdPair:
    """Cutoffs (t1, t2) on the value-to-cost score t for groups 1 and 2.

    ``calibrate_thresholds`` reads them off the step-wise rule on data;
    ``oracle_thresholds`` gives their population limit under a known law.
    +inf / -inf encode "select none" of group 1 / group 2, and -inf / +inf
    "select all". ``c1`` and ``c2`` are the same cutoffs on the bounded
    scale s = tanh(t), for reporting only.
    """

    t1: float
    t2: float

    def __post_init__(self):
        for name, v in (("t1", self.t1), ("t2", self.t2)):
            if math.isnan(v):
                raise ValueError(f"{name} must not be NaN")

    # np.tanh, as for the s column of selection.csv, so a cutoff and a
    # unit's reported s agree bit for bit (math.tanh can differ in the last
    # place).
    @property
    def c1(self) -> float:
        return float(np.tanh(self.t1))

    @property
    def c2(self) -> float:
        return float(np.tanh(self.t2))


def _check_alpha(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_ratio(values, name):
    v = np.asarray(values, dtype=float)
    # NaN and +-inf fail one of the two comparisons.
    if not np.all((v >= 0) & (v <= 1)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return v


def _masks(xs, cl, mu0: float, alpha: float):
    # gain: x - mu0 >= 0; cheap: clfdr - alpha <= 0. Both boundaries are
    # closed towards groups 0 and 2. A NaN input fails its mask.
    return xs - mu0 >= 0, cl - alpha <= 0


def _scores(xs, cl, mu0: float, alpha: float) -> np.ndarray:
    # t = (x - mu0) / (clfdr - alpha) on 1-d arrays of equal length. Where
    # clfdr equals alpha exactly, t is +inf for x > mu0, -inf for x < mu0
    # and 0 at x = mu0; where the quotient overflows, t is its limit +-inf.
    num = xs - mu0
    den = cl - alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = num / den
    zero = np.flatnonzero(den == 0.0)
    if zero.size:
        num = num[zero]
        t[zero] = np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0))
    return t


def _ordered(indices, t, x, descending_t: bool):
    # Ties in the score break towards larger x (the quantity the power
    # metric rewards), then towards earlier input position.
    key_t = -t[indices] if descending_t else t[indices]
    order = np.lexsort((indices, -x[indices], key_t))
    return indices[order]


@dataclass(frozen=True, eq=False)
class SelectionCurve:
    """The one-dimensional selection curve of one instance.

    ``t`` holds the units' scores. Index b counts group-2 purchases in
    ascending t. ``cap_b[b]`` is the budget after them and ``a_of_b[b]``
    the longest group-1 prefix, in descending t, that budget affords;
    ``etp_b[b]`` is the modified power of that selection, and ``cost1`` the
    group-1 budget prefix sums with a leading zero. The rule stops at
    ``b_star`` for ``stop``, selecting ``decisions`` (0/1, int8).

    ``group`` and ``trace_columns`` are built each time they are read,
    so callers that only need the decisions pay nothing for them.
    ``group`` labels each unit 0-3 (int8) by the signs of (x - mu0,
    clfdr - alpha); x = mu0 counts as a gain and clfdr = alpha as free
    budget. ``trace_columns`` is the audit trail, one column per key
    ``"step"``, ``"unit"``, ``"etp_star"`` and ``"capacity"``: what
    happened at each step, to which unit (-1 at a checkpoint), and the
    running modified power and budget.
    """

    x: np.ndarray
    clfdr: np.ndarray
    t: np.ndarray
    alpha: float
    mu0: float
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    cost1: np.ndarray
    cap_b: np.ndarray
    a_of_b: np.ndarray
    etp_b: np.ndarray
    b_star: int
    stop: str
    decisions: np.ndarray

    @property
    def a_star(self) -> int:
        return int(self.a_of_b[self.b_star])

    @property
    def group(self) -> np.ndarray:
        label = np.full(self.x.size, 3, dtype=np.int8)
        label[self.g0], label[self.g1], label[self.g2] = 0, 1, 2
        return label

    @property
    def trace_columns(self) -> dict:
        return _trace(self)


def _units(x, clfdr, alpha: float):
    """x and clfdr as checked float arrays, 1-d and of equal length."""
    _check_alpha(alpha)
    xs = np.asarray(x, dtype=float)
    cl = _check_ratio(clfdr, "clfdr")
    if xs.shape != cl.shape or xs.ndim != 1:
        raise ValueError("x and clfdr must be one-dimensional and of equal length")
    return xs, cl


def select_dd(x, clfdr, alpha: float, mu0: float) -> SelectionCurve:
    """Step-wise prioritized selection; returns its curve, whose
    ``decisions`` are the selection and whose ``trace_columns`` are the
    audit trail.

    Seeds the selection with every group-0 unit, then alternates between
    two moves: fill group 1 in descending t while the cumulative budget
    sum(clfdr - alpha) over new additions fits within the current capacity,
    and buy one group-2 unit (ascending t) to enlarge the capacity. After
    each refill the realized modified power is compared with the previous
    value; on the first strict decline the last group-2 purchase and its
    refill are rolled back and the previous state is returned. Exhausting
    group 2 triggers one final refill; exhausting group 1 returns directly.

    The moves are not replayed one by one: the curve is searched for its
    stop. It stops at the first b where group 1 is used up (checked first)
    or where buying the next group-2 unit would strictly lower the modified
    power, whichever comes first; otherwise at b = n2.
    """
    xs, cl = _units(x, clfdr, alpha)
    t = _scores(xs, cl, mu0, alpha)
    gain, cheap = _masks(xs, cl, mu0, alpha)

    g0 = np.flatnonzero(gain & cheap)
    g1 = _ordered(np.flatnonzero(gain & ~cheap), t, xs, descending_t=True)
    g2 = _ordered(np.flatnonzero(cheap & ~gain), t, xs, descending_t=False)
    n1, n2 = g1.size, g2.size

    cap0 = float(np.sum(alpha - cl[g0]))
    # cost1 strictly increases (clfdr > alpha on group 1), so a prefix
    # search finds the longest affordable group-1 prefix.
    cost1 = np.concatenate(([0.0], np.cumsum(cl[g1] - alpha)))
    gain2 = np.concatenate(([0.0], np.cumsum(alpha - cl[g2])))
    cap_b = cap0 + gain2
    a_of_b = np.searchsorted(cost1[1:], cap_b, side="right")
    # Sums of x - mu0 past the float range take their limit +-inf. The
    # gains etp0 and power1 are >= 0 and the losses loss2 <= 0, so etp_b
    # is NaN only where both overflow, and then at its last b too.
    with np.errstate(over="ignore", invalid="ignore"):
        etp0 = float(np.sum(xs[g0] - mu0))
        power1 = np.concatenate(([0.0], np.cumsum(xs[g1] - mu0)))
        loss2 = np.concatenate(([0.0], np.cumsum(xs[g2] - mu0)))
        etp_b = etp0 + loss2 + power1[a_of_b]
    if math.isnan(etp_b[-1]):
        raise ValueError(
            f"the modified power at mu0 = {mu0!r} overflows the float range both ways: "
            "its gains sum to +inf and its losses to -inf"
        )

    used_up = np.flatnonzero(a_of_b == n1)
    declines = np.flatnonzero(etp_b[1:] < etp_b[:-1])
    b_used_up = int(used_up[0]) if used_up.size else n2 + 1
    b_decline = int(declines[0]) if declines.size else n2
    if b_used_up <= min(b_decline, n2):
        b_star, stop = b_used_up, "group1_exhausted"
    elif b_decline < n2:
        b_star, stop = b_decline, "power_decline"
    else:
        b_star, stop = n2, "group2_exhausted"
    decisions = np.zeros(xs.size, dtype=np.int8)
    decisions[g0] = 1
    decisions[g2[:b_star]] = 1
    decisions[g1[: a_of_b[b_star]]] = 1
    return SelectionCurve(
        xs, cl, t, alpha, mu0, g0, g1, g2, cost1, cap_b, a_of_b, etp_b, b_star, stop, decisions
    )


# Step names of the trace, by code; the last is the stop, named by reason.
_STEPS = ("seed_group0", "add_group1", "store_etp", "add_group2",
          "rollback_group1", "rollback_group2")


def _trace(c: SelectionCurve) -> dict:
    """Replays the step-wise rule along its curve as columns: ``step``
    (names), ``unit`` (int64, -1 at a checkpoint), ``etp_star`` and
    ``capacity`` (float64).

    The running sums accumulate unit by unit in the order the rule visits
    the units, as one cumulative sum each, so every value is the same
    sequence of additions a step-by-step replay makes. The checkpoints
    store the curve's own values at each b.
    """
    x, cl, alpha, mu0 = c.x, c.clfdr, c.alpha, c.mu0
    if x.size == 0:
        return {"step": [], "unit": np.empty(0, dtype=np.int64),
                "etp_star": np.empty(0), "capacity": np.empty(0)}
    decline = c.stop == "power_decline"
    last = c.b_star + decline
    a = c.a_of_b[:last + 1]
    before = np.concatenate(([0], a[:-1]))
    # Per b: the group-2 purchase (none at b = 0), the group-1 refill and
    # its checkpoint, after the group-0 seeds.
    bought = np.arange(last + 1) > 0
    size = bought + (a - before) + 1
    start = c.g0.size + np.cumsum(size) - size
    checks = start + size - 1
    n1 = int(a[-1])
    refill_b = np.searchsorted(a, np.arange(n1), side="right")
    refill_pos = start[refill_b] + bought[refill_b] + np.arange(n1) - before[refill_b]
    # Rolled back after a decline, last first (none otherwise: n1 = a*).
    back = np.arange(n1 - 1, c.a_star - 1, -1)
    end = c.g0.size + int(size.sum())
    total = end + back.size + decline + 1

    code = np.full(total, 2, dtype=np.int8)
    unit = np.full(total, -1, dtype=np.int64)
    code[:c.g0.size], unit[:c.g0.size] = 0, c.g0
    code[start[1:]], unit[start[1:]] = 3, c.g2[:last]
    code[refill_pos], unit[refill_pos] = 1, c.g1[:n1]
    if decline:
        # The losing purchase and its refill stay in the trace, followed by
        # their rollback; the previous state is the one returned.
        code[end:end + back.size], unit[end:end + back.size] = 4, c.g1[back]
        code[end + back.size], unit[end + back.size] = 5, c.g2[last - 1]
    code[-1] = 6
    steps = list(map((*_STEPS, f"stop_{c.stop}").__getitem__, code.tolist()))

    moves = np.flatnonzero(unit >= 0)
    kind, who = code[moves], unit[moves]
    # Groups 0 and 2 add budget (cap += alpha - clfdr), group 1 spends it
    # (cap -= clfdr - alpha); a rollback subtracts what its step added.
    undo = kind >= 4
    gain = x[who] - mu0
    d_etp = np.where(undo, -gain, gain)
    d_cap = np.where((kind == 1) | (kind == 4), -(cl[who] - alpha), alpha - cl[who])
    d_cap = np.where(undo, -d_cap, d_cap)
    etp_star, capacity = np.empty(total), np.empty(total)
    etp_star[moves] = np.cumsum(np.concatenate(([0.0], d_etp)))[1:]
    capacity[moves] = np.cumsum(np.concatenate(([0.0], d_cap)))[1:]
    b = np.append(np.arange(last + 1), c.b_star)
    at = np.append(checks, total - 1)
    etp_star[at] = c.etp_b[b]
    capacity[at] = c.cap_b[b] - c.cost1[c.a_of_b[b]]
    return {"step": steps, "unit": unit, "etp_star": etp_star, "capacity": capacity}


def select_clfdr_stepup(clfdrs, alpha: float) -> np.ndarray:
    """Step-up on sorted clfdr values: largest prefix with running mean <= alpha.

    Returns the 0/1 decisions (int8). All units tied with the cutoff value
    are included.
    """
    threshold = clfdr_stepup_threshold(clfdrs, alpha)
    return (np.asarray(clfdrs, dtype=float) <= threshold).astype(np.int8)


def clfdr_stepup_threshold(clfdrs, alpha: float) -> float:
    """The clfdr cutoff realized by the step-up rule; -inf when nothing passes."""
    _check_alpha(alpha)
    cl = _check_ratio(clfdrs, "clfdrs")
    srt = np.sort(cl)
    ok = np.flatnonzero(np.cumsum(srt) / np.arange(1, cl.size + 1) <= alpha)
    return float(srt[ok[-1]]) if ok.size else -math.inf


def select_bh(pvalues, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up on p-values; returns the 0/1 decisions (int8)."""
    _check_alpha(alpha)
    p = _check_ratio(pvalues, "pvalues")
    srt = np.sort(p)
    ok = np.flatnonzero(srt <= np.arange(1, p.size + 1) * alpha / p.size)
    return (p <= (srt[ok[-1]] if ok.size else -math.inf)).astype(np.int8)


def calibrate_thresholds(c: SelectionCurve) -> ThresholdPair:
    """Empirical score cutoffs at the stop of a step-wise curve.

    The group-1 cutoff is the first excluded group-1 score and the group-2
    cutoff the first excluded group-2 score, so the fixed-cutoff rule
    reproduces the curve's selection on its data. Infinite sentinels
    encode "select none" (+inf for group 1, -inf for group 2) and "select
    all" (the opposite signs). A curve with empty groups 1 and 2 yields
    (+inf, -inf), meaning group 0 only.
    """
    a_star, b_star = c.a_star, c.b_star
    if a_star == 0:
        t1 = math.inf
    elif a_star == c.g1.size:
        t1 = -math.inf
    else:
        t1 = float(c.t[c.g1[a_star]])
    if b_star == 0:
        t2 = -math.inf
    elif b_star == c.g2.size:
        t2 = math.inf
    else:
        t2 = float(c.t[c.g2[b_star]])
    return ThresholdPair(t1, t2)


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


def select_oracle(x, clfdr, thresholds: ThresholdPair, alpha: float, mu0: float) -> np.ndarray:
    """Fixed-cutoff rule: all of group 0, group 1 with t > t1, group 2 with t < t2.

    Returns the 0/1 decisions (int8). Both comparisons are strict, so a
    unit whose score equals the cutoff is not selected. x and clfdr must
    be one-dimensional and of equal length.
    """
    xs, cl = _units(x, clfdr, alpha)
    t = _scores(xs, cl, mu0, alpha)
    gain, cheap = _masks(xs, cl, mu0, alpha)
    sel = gain & (cheap | (t > thresholds.t1)) | cheap & ~gain & (t < thresholds.t2)
    return sel.astype(np.int8)
