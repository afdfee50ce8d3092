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

from .selection import _prepare_row, _tie_order, _units

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
    no file format; ``hetsel.cli`` writes its columns, next to the units'
    ids, x and sigma, as ``rvalues.csv`` and its metadata as
    ``rvalues.json``.

    ``r`` is +inf (vary-alpha) or -inf (vary-mu0) for units never selected
    on the grid; those units carry no rank (``r_prime`` is NaN). A unit is
    tied when another unit shares its finite r-value; the rank order of
    tied units falls back to the tie-break: larger score t at the grid
    point of first selection, then input position. Ties are broken on t,
    not on s = tanh(t), whose values collide long before t does. In
    ``rvalues.csv`` a unit is tied iff its ``r`` cell is non-empty and
    appears in another row.
    """

    definition: str
    grid_resolution: float
    n_grid: int
    r: np.ndarray
    r_prime: np.ndarray


def _grid_points(n, definition) -> int:
    """``n`` as the size of a ``definition`` grid; raises ValueError when
    it is below 2, which leaves the grid no resolution."""
    n = int(n)
    if n < 2:
        raise ValueError(
            f"{definition} grid needs at least 2 points to have a resolution, got {n}"
        )
    return n


def default_alpha_grid(n: int) -> np.ndarray:
    """``n`` log-spaced ascending FDR levels from ``_ALPHA_LOW`` to
    ``_ALPHA_HIGH``; ``n`` must be at least 2."""
    return np.geomspace(_ALPHA_LOW, _ALPHA_HIGH, _grid_points(n, VARY_ALPHA))


def default_mu0_grid(x, n: int) -> np.ndarray:
    """``n`` linearly spaced descending levels from above max(x) to below
    min(x), padded by 1e-3 of the x span (1e-6 when x is constant).
    Raises ValueError when ``n`` is below 2 or a padded end overflows the
    float range."""
    xs = np.asarray(x, dtype=float)
    lo, hi = float(xs.min()), float(xs.max())
    pad = 1e-3 * (hi - lo) if hi > lo else 1e-6
    top, bottom = hi + pad, lo - pad
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValueError(f"x spans [{lo!r}, {hi!r}], too wide for the default mu0 grid: "
                         f"its padded ends {top!r} and {bottom!r} overflow the float range")
    return np.linspace(top, bottom, _grid_points(n, VARY_MU0))


def _validate_grid(grid, definition):
    g = np.asarray(grid, dtype=float)
    _grid_points(g.size, definition)
    d = np.diff(g)
    if definition == VARY_ALPHA:
        if np.any(g <= 0) or np.any(g >= 1):
            raise ValueError("alpha grid must lie in (0, 1)")
        if not np.all(d > 0):
            raise ValueError("alpha grid must be strictly ascending")
    elif not np.all(d < 0):
        raise ValueError("mu0 grid must be strictly descending")
    elif not np.isfinite(g).all():
        # A unit first selected at an infinite level would read as never
        # selected.
        raise ValueError("mu0 grid must be finite")
    return g, float(np.max(np.abs(d)))


def _scan(m, evaluate, grid, sentinel):
    """First-selection scan: records the first grid point selecting each unit.

    The grid is ordered from most to least demanding, so the first selection
    realizes the extremum even for non-nested procedures (each point is
    evaluated regardless of earlier selections).
    """
    r = np.full(m, sentinel, dtype=float)
    t_at = np.full(m, -np.inf)
    unranked = np.ones(m, dtype=bool)
    for point in grid:
        point = float(point)
        out = evaluate(point)
        sel, t = out if isinstance(out, tuple) else (out, None)
        sel = np.asarray(sel, dtype=bool)
        if sel.shape != (m,):
            raise ValueError("procedure returned a selection of the wrong length")
        newly = np.flatnonzero(sel & unranked)
        if newly.size:
            unranked[newly] = False
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
    return RValueTable(
        definition=definition, grid_resolution=resolution, n_grid=n_grid, r=r, r_prime=r_prime
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


def dd_alpha_evaluator(x, clfdr, mu0: float):
    """Replay hook for the step-wise procedure with alpha varying.

    x and clfdr are checked and x's tie order is built once; a replay
    prepares the row at its alpha and searches the curve."""
    xs, cl = _units(x, clfdr)
    order = _tie_order(xs)

    def evaluate(alpha: float):
        curve = _prepare_row(xs, order, cl, alpha)(mu0)
        # The tie-break scores t come from the curve the replay built.
        return curve.decisions, curve.t

    return evaluate


def dd_mu0_evaluator(x, clfdr_fn, alpha: float):
    """Replay hook with mu0 varying; ``clfdr_fn(mu0)`` supplies the scores.

    x's tie order is built once. The rows ``clfdr_fn`` returns are
    read-only: a row is checked and prepared when ``clfdr_fn`` returns a
    different object than at the previous level, and a row returned again
    is not checked again, so the replay does only the work that depends on
    mu0. ``deconv._clfdr_table`` returns the same row for every mu0
    between the same positive-weight nodes."""
    xs = np.asarray(x, dtype=float)
    order = _tie_order(xs)
    last, select = None, None

    def evaluate(mu0: float):
        nonlocal last, select
        scores = clfdr_fn(mu0)
        if scores is not last:
            last, select = scores, _prepare_row(xs, order, _units(xs, scores)[1], alpha)
        curve = select(mu0)
        return curve.decisions, curve.t

    return evaluate
