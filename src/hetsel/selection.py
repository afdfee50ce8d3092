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

__all__ = [
    "ThresholdPair",
    "SelectionCurve",
    "select_dd",
    "select_clfdr_stepup",
    "clfdr_stepup_threshold",
    "select_bh",
    "calibrate_thresholds",
    "select_oracle",
]

@dataclass(frozen=True)
class ThresholdPair:
    """Cutoffs (t1, t2) on the value-to-cost score t for groups 1 and 2.

    ``calibrate_thresholds`` reads them off the step-wise rule on data;
    ``law.oracle_thresholds`` gives their population limit under the known
    law.
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


def _budget(cl, alpha: float):
    # den = clfdr - alpha, the positions where it is exactly 0, and the
    # mask cheap: den <= 0. The gain mask is x - mu0 >= 0, compared as
    # x >= mu0, which is the same test and cannot overflow. Both boundaries
    # are closed towards groups 0 and 2; a NaN input fails its mask.
    den = cl - alpha
    return den, np.flatnonzero(den == 0.0), den <= 0


def _scores(xs, mu0: float, den, zero) -> np.ndarray:
    # t = (x - mu0) / (clfdr - alpha) on 1-d arrays of equal length, from
    # den and its zeros as _budget gives them. Where clfdr equals alpha
    # exactly, t is +inf for x > mu0, -inf for x < mu0 and 0 at x = mu0;
    # where x - mu0 or the quotient overflows, t is its limit +-inf.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = xs - mu0
        t = num / den
    if zero.size:
        num = num[zero]
        t[zero] = np.where(num > 0, np.inf, np.where(num < 0, -np.inf, 0.0))
    return t


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


def _units(x, clfdr):
    """x and clfdr as checked float arrays, 1-d and of equal length."""
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

    Scores tie towards larger x (the quantity the power metric rewards),
    then towards earlier input position. A lone call puts only the units
    of groups 1 and 2 in that order; the r-value scans order all units once
    and replay through ``_prepare_row``.
    """
    _check_alpha(alpha)
    xs, cl = _units(x, clfdr)
    den, zero, cheap = _budget(cl, alpha)
    gain = xs >= mu0
    pair = np.flatnonzero(gain != cheap)
    pair = pair[np.argsort(-xs[pair], kind="stable")]
    in_g1 = gain[pair]
    return _curve(xs, cl, alpha, mu0, den, zero, np.flatnonzero(gain & cheap),
                  pair[in_g1], pair[~in_g1])


def _tie_order(xs):
    """All positions by descending x, then ascending position, with their
    -x: the tie order of both score orders, which depends on x only."""
    keys = -xs
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def _prepare_row(xs, tie_order, cl, alpha: float):
    """Does once the work of a replay that depends on x and the clfdr row
    ``cl`` but not on mu0: the budget terms of ``_budget``, and the cheap
    and dear units in tie order with their -x, so that the units with
    x >= mu0 lead both lists at every mu0. ``xs`` and ``cl`` come checked
    from ``_units``, and ``tie_order`` from ``_tie_order(xs)``.

    Returns ``select(mu0)``, the curve of ``select_dd`` at mu0 bit for bit:
    group 1 is a prefix of the dear units and group 2 the cheap units past
    the group-0 prefix, both found by bisection on -x.
    """
    _check_alpha(alpha)
    den, zero, cheap = _budget(cl, alpha)
    order, keys = tie_order
    in_cheap = cheap[order]
    cheap_units, cheap_keys = order[in_cheap], keys[in_cheap]
    dear_units, dear_keys = order[~in_cheap], keys[~in_cheap]

    def select(mu0: float) -> SelectionCurve:
        k_dear = int(np.searchsorted(dear_keys, -mu0, side="right"))
        k_cheap = int(np.searchsorted(cheap_keys, -mu0, side="right"))
        g0 = np.flatnonzero((xs >= mu0) & cheap)
        return _curve(xs, cl, alpha, mu0, den, zero, g0,
                      dear_units[:k_dear], cheap_units[k_cheap:])

    return select


def _curve(xs, cl, alpha: float, mu0: float, den, zero, g0, g1, g2) -> SelectionCurve:
    """The curve search of ``select_dd``, given groups 1 and 2 in tie order;
    a stable sort on t keeps that order among equal scores."""
    if math.isnan(mu0):
        # The bisections of _prepare_row would not see that no unit gains.
        raise ValueError("mu0 must not be NaN")
    t = _scores(xs, mu0, den, zero)
    g1 = g1[np.argsort(-t[g1], kind="stable")]
    g2 = g2[np.argsort(t[g2], kind="stable")]
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
    d_cap = np.where((kind == 1) | (kind == 4), -(cl[who] - alpha), alpha - cl[who])
    d_cap = np.where(undo, -d_cap, d_cap)
    etp_star, capacity = np.empty(total), np.empty(total)
    # Gains and running sums past the float range take their limit +-inf,
    # as the curve's own sums do.
    with np.errstate(over="ignore", invalid="ignore"):
        gain = x[who] - mu0
        d_etp = np.where(undo, -gain, gain)
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


def select_oracle(x, clfdr, thresholds: ThresholdPair, alpha: float, mu0: float) -> np.ndarray:
    """Fixed-cutoff rule: all of group 0, group 1 with t > t1, group 2 with t < t2.

    Returns the 0/1 decisions (int8). Both comparisons are strict, so a
    unit whose score equals the cutoff is not selected. x and clfdr must
    be one-dimensional and of equal length.
    """
    _check_alpha(alpha)
    xs, cl = _units(x, clfdr)
    den, zero, cheap = _budget(cl, alpha)
    t = _scores(xs, mu0, den, zero)
    gain = xs >= mu0
    sel = gain & (cheap | (t > thresholds.t1)) | cheap & ~gain & (t < thresholds.t2)
    return sel.astype(np.int8)
