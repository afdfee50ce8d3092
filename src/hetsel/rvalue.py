"""R-values: extremal-threshold rankings induced by a selection procedure.

A unit's r-value is the most demanding setting at which the procedure still
selects it: the smallest FDR level alpha (definition "alpha"), or the
largest reference level mu0 (definition "mu0"). Units selected earlier are
more important, which yields an objective ranking without fixing the
threshold parameter in advance.

The continuum definitions are approximated on a declared finite grid. The
procedures here are not assumed nested in the varying parameter, so the
extremum is taken over every grid point where the unit is selected rather
than located by bisection. A scan needs only the number of units and a
replay hook; the units' ids, x and sigma stay with the caller.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .selection import select_dd

__all__ = [
    "RValueTable",
    "default_alpha_grid",
    "default_mu0_grid",
    "rvalue_vary_alpha",
    "rvalue_vary_mu0",
    "dd_alpha_evaluator",
    "dd_mu0_evaluator",
]

VARY_ALPHA = "alpha"
VARY_MU0 = "mu0"
# Ends of the default alpha grid.
_ALPHA_LOW, _ALPHA_HIGH = 1e-4, 0.5


@dataclass(frozen=True, eq=False)
class RValueTable:
    """Per-unit r-values and standardized ranks, one column per field in
    the units' input order, plus the scan's metadata: the varied parameter
    ``definition``, the grid's largest step ``grid_resolution`` and its
    size ``n_grid``. The table holds only what the scan computed and knows
    no file format; ``hetsel.cli`` writes it, next to the units' ids, x
    and sigma, as ``rvalues.csv`` and ``rvalues.json``.

    ``r`` is +inf (vary-alpha) or -inf (vary-mu0) for units never selected
    on the grid; those units carry no rank (``r_prime`` is NaN). ``tied``
    flags units sharing their r-value with another unit, where the rank
    order fell back to the tie-break: larger score t at the grid point of
    first selection, then input position. Ties are broken on t, not on
    s = tanh(t), whose values collide long before t does.
    """

    definition: str
    grid_resolution: float
    n_grid: int
    r: np.ndarray
    r_prime: np.ndarray
    tied: np.ndarray


def default_alpha_grid(n: int) -> np.ndarray:
    """``n`` log-spaced ascending FDR levels from ``_ALPHA_LOW`` to
    ``_ALPHA_HIGH``."""
    return np.geomspace(_ALPHA_LOW, _ALPHA_HIGH, int(n))


def default_mu0_grid(x, n: int) -> np.ndarray:
    """``n`` linearly spaced descending levels from above max(x) to below
    min(x), padded by 1e-3 of the x span (1e-6 when x is constant).
    Raises ValueError when a padded end overflows the float range."""
    xs = np.asarray(x, dtype=float)
    lo, hi = float(xs.min()), float(xs.max())
    pad = 1e-3 * (hi - lo) if hi > lo else 1e-6
    top, bottom = hi + pad, lo - pad
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError(f"x spans [{lo!r}, {hi!r}], too wide for the default mu0 grid: "
                         f"its padded ends {top!r} and {bottom!r} overflow the float range")
    return np.linspace(top, bottom, int(n))


def _validate_grid(grid, definition):
    g = np.asarray(grid, dtype=float)
    if g.size < 2:
        raise ValueError(
            f"{definition} grid needs at least 2 points to have a resolution, got {g.size}"
        )
    d = np.diff(g)
    if definition == VARY_ALPHA:
        if np.any(g <= 0) or np.any(g >= 1):
            raise ValueError("alpha grid must lie in (0, 1)")
        if not np.all(d > 0):
            raise ValueError("alpha grid must be strictly ascending")
    elif not np.all(d < 0):
        raise ValueError("mu0 grid must be strictly descending")
    return g, float(np.max(np.abs(d)))


def _scan(m, evaluate, grid, sentinel):
    """First-selection scan: records the first grid point selecting each unit.

    The grid is ordered from most to least demanding, so the first selection
    realizes the extremum even for non-nested procedures (each point is
    evaluated regardless of earlier selections).
    """
    r = np.full(m, sentinel, dtype=float)
    t_at = np.full(m, -np.inf)
    for point in grid:
        point = float(point)
        out = evaluate(point)
        sel, t = out if isinstance(out, tuple) else (out, None)
        sel = np.asarray(sel, dtype=bool)
        if sel.shape != (m,):
            raise ValueError("procedure returned a selection of the wrong length")
        newly = sel & ~np.isfinite(r)
        if newly.any():
            r[newly] = point
            if t is not None:
                t_at[newly] = np.asarray(t, dtype=float)[newly]
    return r, t_at


def _build_table(r, t_at, definition, resolution, n_grid):
    ranked = np.flatnonzero(np.isfinite(r))
    r_prime = np.full(r.size, np.nan)
    if ranked.size:
        # Importance order: ascending r for vary-alpha (selected at a smaller
        # level first), descending r for vary-mu0 (still selected at a higher
        # reference level). Ties break to larger score t, then input order.
        primary = r[ranked] if definition == VARY_ALPHA else -r[ranked]
        order = np.lexsort((ranked, -t_at[ranked], primary))
        r_prime[ranked[order]] = np.arange(1, ranked.size + 1) / r.size
    # Counts from the inverse, not np.isin, which can import numpy.ma.
    _, inverse, counts = np.unique(r, return_inverse=True, return_counts=True)
    return RValueTable(
        definition=definition,
        grid_resolution=resolution,
        n_grid=n_grid,
        r=r,
        r_prime=r_prime,
        tied=np.isfinite(r) & (counts[inverse] > 1),
    )


def rvalue_vary_alpha(m: int, evaluate, alpha_grid) -> RValueTable:
    """R-values of m units as the smallest grid alpha at which each is selected.

    ``evaluate(alpha)`` must return a 0/1 selection vector of length m,
    optionally paired with the per-unit scores t used for rank tie-breaks.
    Units never selected get r = +inf and no rank.
    """
    grid, resolution = _validate_grid(alpha_grid, VARY_ALPHA)
    r, t_at = _scan(m, evaluate, grid, math.inf)
    return _build_table(r, t_at, VARY_ALPHA, resolution, grid.size)


def rvalue_vary_mu0(m: int, evaluate, mu0_grid) -> RValueTable:
    """R-values of m units as the largest grid mu0 at which each is selected.

    The grid must descend, conventionally from above max(x) to below
    min(x). Units never selected get r = -inf and no rank.
    """
    grid, resolution = _validate_grid(mu0_grid, VARY_MU0)
    r, t_at = _scan(m, evaluate, grid, -math.inf)
    return _build_table(r, t_at, VARY_MU0, resolution, grid.size)


def _replay_dd(x, clfdr, alpha: float, mu0: float):
    # One scoring pass: the tie-break scores t come from the curve
    # select_dd already built.
    curve = select_dd(x, clfdr, alpha, mu0)
    return curve.decisions, curve.t


def dd_alpha_evaluator(x, clfdr, mu0: float):
    """Replay hook for the step-wise procedure with alpha varying."""
    xs = np.asarray(x, dtype=float)
    cl = np.asarray(clfdr, dtype=float)

    def evaluate(alpha: float):
        return _replay_dd(xs, cl, alpha, mu0)

    return evaluate


def dd_mu0_evaluator(x, clfdr_fn, alpha: float):
    """Replay hook with mu0 varying; ``clfdr_fn(mu0)`` supplies the scores."""
    xs = np.asarray(x, dtype=float)

    def evaluate(mu0: float):
        return _replay_dd(xs, np.asarray(clfdr_fn(mu0), dtype=float), alpha, mu0)

    return evaluate
