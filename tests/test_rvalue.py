import argparse
import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import tied_units, write_rvalues_reference
from hetsel import (
    JointModel,
    TruePrior,
    UniformSigma,
    dd_alpha_evaluator,
    dd_mu0_evaluator,
    default_alpha_grid,
    default_mu0_grid,
    fit_prior_by_group,
    oracle_clfdr,
    rvalue_vary_alpha,
    rvalue_vary_mu0,
    select_dd,
    zvalue_pvalue,
)
from hetsel.cli import _group_ids, _write_rvalues
from hetsel.deconv import _clfdr_table

TWO_INTERVAL = TruePrior.uniform_mixture([(0.8, -3.0, -1.0), (0.2, 1.0, 2.0)])


def _instance(seed, m, sigma_max=3.0):
    model = JointModel.independent(TWO_INTERVAL, UniformSigma(0.5, sigma_max))
    rng = np.random.default_rng(seed)
    x, sigma, mu, grp = model.sample(rng, m)
    return x, sigma


class TestVaryAlpha:
    def test_pcer_rule_recovers_pvalues(self):
        # With the simple per-comparison rule and a grid containing every
        # p-value, the r-value is the p-value itself.
        rng = np.random.default_rng(0)
        p = np.unique(np.round(rng.random(50), 3))
        grid = np.unique(np.concatenate([p, np.geomspace(1e-3, 0.97, 60)]))
        table = rvalue_vary_alpha(p.size, lambda a: p <= a, grid)
        assert np.array_equal(table.r, p)

    def test_never_selected_gets_sentinel(self):
        x = np.array([2.0, -1.0])
        cl = np.array([0.05, 0.9])  # second unit stays group 3 at every level
        grid = default_alpha_grid(40)
        table = rvalue_vary_alpha(2, dd_alpha_evaluator(x, cl, 0.0), grid)
        # The first unit enters once its clfdr fits the budget: the first
        # grid level at or above 0.05 turns it into a group-0 selection.
        assert table.r[0] == grid[grid >= 0.05].min()
        assert table.r[1] == math.inf
        assert math.isnan(table.r_prime[1])

    def test_refinement_never_increases_r(self):
        x, sigma = _instance(5, 150)
        cl = oracle_clfdr(TWO_INTERVAL, x, sigma, 0.0)
        coarse = default_alpha_grid(25)
        fine = np.unique(np.concatenate([coarse, default_alpha_grid(73)]))
        ev = dd_alpha_evaluator(x, cl, 0.0)
        r_coarse = rvalue_vary_alpha(150, ev, coarse).r
        r_fine = rvalue_vary_alpha(150, ev, fine).r
        assert np.all(r_fine <= r_coarse + 1e-15)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rvalue_vary_alpha(1, lambda a: np.array([True]), [])
        with pytest.raises(ValueError):
            rvalue_vary_alpha(1, lambda a: np.array([True]), [0.3, 0.1])
        with pytest.raises(ValueError):
            rvalue_vary_alpha(1, lambda a: np.array([True]), [0.0, 0.5])
        with pytest.raises(ValueError, match="at least 2 points"):
            rvalue_vary_alpha(1, lambda a: np.array([True]), [0.1])
        with pytest.raises(ValueError, match="at least 2 points"):
            rvalue_vary_mu0(1, lambda m: np.array([True]), [0.5])

    def test_selection_of_the_wrong_length(self):
        # The hook must return one decision per unit, in both definitions.
        with pytest.raises(ValueError, match="wrong length"):
            rvalue_vary_alpha(2, lambda a: np.array([True]), [0.1, 0.2])
        with pytest.raises(ValueError, match="wrong length"):
            rvalue_vary_mu0(1, lambda m: (np.array([True, False]), np.zeros(2)), [1.0, 0.0])


class TestVaryMu0:
    def test_single_unit_rank_one(self):
        x = np.array([4.0])
        grid = np.linspace(5.0, 0.0, 30)

        def rule(mu0):
            return np.array([mu0 <= x[0] - 1.0])

        table = rvalue_vary_mu0(1, rule, grid)
        assert table.r[0] == grid[grid <= 3.0].max()
        assert table.r_prime[0] == 1.0

    def test_two_units_rank_order(self):
        x = np.array([5.0, 1.0])
        grid = np.linspace(6.0, 0.0, 40)

        def rule(mu0):
            return np.array([mu0 <= 4.0, mu0 <= 0.5])

        table = rvalue_vary_mu0(2, rule, grid)
        assert table.r_prime.tolist() == [0.5, 1.0]
        assert table.r[0] > table.r[1]

    def test_refinement_never_decreases_r(self):
        x, sigma = _instance(6, 120)

        def clfdr_fn(mu0):
            return oracle_clfdr(TWO_INTERVAL, x, sigma, mu0)

        ev = dd_mu0_evaluator(x, clfdr_fn, 0.1)
        coarse = default_mu0_grid(x, 20)
        fine = np.unique(np.concatenate([coarse, default_mu0_grid(x, 59)]))[::-1]
        r_coarse = rvalue_vary_mu0(120, ev, coarse).r
        r_fine = rvalue_vary_mu0(120, ev, fine).r
        assert np.all(r_fine >= r_coarse - 1e-15)

    def test_row_shuffle_only_permutes_the_table(self):
        # Ties in r break on t, then input position; t ties do not occur on
        # continuous data, so the ranks must not depend on the row order.
        # Tie-breaks on s = tanh(t) collide once |t| passes about 19.
        x, sigma = _instance(7, 1000)
        perm = np.random.default_rng(8).permutation(1000)

        def table(order):
            xs, sg = x[order], sigma[order]

            def clfdr_fn(mu0):
                return oracle_clfdr(TWO_INTERVAL, xs, sg, mu0)

            return rvalue_vary_mu0(
                order.size, dd_mu0_evaluator(xs, clfdr_fn, 0.1), default_mu0_grid(x, 100)
            )

        base = table(np.arange(1000))
        shuffled = table(perm)
        assert tied_units(base.r).sum() > 100
        for column in ("r", "r_prime"):
            np.testing.assert_array_equal(getattr(shuffled, column), getattr(base, column)[perm])

    def test_descending_grid_required(self):
        with pytest.raises(ValueError):
            rvalue_vary_mu0(1, lambda m: np.array([True]), [0.0, 1.0])
        with pytest.raises(ValueError, match="mu0 grid must be finite"):
            rvalue_vary_mu0(1, lambda m: np.array([True]), [math.inf, 0.0])

    def test_default_grid_rejects_an_overflowing_span(self):
        # x from -1e308 to 1e308 spans more than the float range; the error
        # names the x span, not a grid the caller never gave.
        with pytest.raises(ValueError, match=r"x spans \[-1e\+308, 1e\+308\]"):
            default_mu0_grid(np.array([1e308, 0.0, -1e308]), 20)
        grid = default_mu0_grid(np.array([1e308, 0.0]), 20)
        assert np.isfinite(grid).all() and grid[0] > 1e308 and grid[-1] < 0.0

    def test_tied_units_flagged(self):
        x = np.array([3.0, 2.0, 1.0])
        grid = np.array([2.5, 1.5, 0.5])

        def rule(mu0):
            return np.array([True, True, mu0 <= 0.5])

        table = rvalue_vary_mu0(3, rule, grid)
        assert tied_units(table.r).tolist() == [True, True, False]
        # Without scores the tie breaks by input position.
        assert table.r_prime[0] < table.r_prime[1]

    def test_top20_by_rvalue_skews_to_larger_effects(self):
        # Seeded qualitative check: the r-value ranking prefers larger
        # observed effects than the p-value ranking on the same data.
        x, sigma = _instance(21, 2000)

        def clfdr_fn(mu0):
            return oracle_clfdr(TWO_INTERVAL, x, sigma, mu0)

        table = rvalue_vary_mu0(
            2000, dd_mu0_evaluator(x, clfdr_fn, 0.1), default_mu0_grid(x, 150)
        )
        rp = table.r_prime
        _, p = zvalue_pvalue(x, sigma, 0.0)
        top_r = np.argsort(np.where(np.isnan(rp), 2.0, rp))[:20]
        top_p = np.argsort(p)[:20]
        assert x[top_r].mean() > x[top_p].mean()


def _scan_reference(x, clfdr_fn, alpha, grid):
    """(r, r_prime) of the mu0 scan by a per-point loop of ``select_dd``
    on a fresh copy of each clfdr row: first selection in grid order, ranks
    by descending r, then larger t at the first selection, then position."""
    m = x.size
    r, t_at = np.full(m, -np.inf), np.full(m, -np.inf)
    for mu0 in grid.tolist():
        curve = select_dd(x, np.array(clfdr_fn(mu0)), alpha, mu0)
        newly = (curve.decisions == 1) & ~np.isfinite(r)
        r[newly], t_at[newly] = mu0, curve.t[newly]
    ranked = sorted(np.flatnonzero(np.isfinite(r)).tolist(), key=lambda i: (-r[i], -t_at[i], i))
    r_prime = np.full(m, np.nan)
    r_prime[ranked] = np.arange(1, len(ranked) + 1) / m
    return r, r_prime


class TestSharedReplays:
    """The mu0 scan sorts x once and prepares a clfdr row only when the row
    changes; it must rank as a loop of lone ``select_dd`` calls does."""

    def _split_case(self, seed=4, m=1500):
        x, sigma = _instance(seed, m)
        groups = _group_ids(sigma, (1.5,))
        fits = fit_prior_by_group(x, sigma, groups, k=30)
        grid = default_mu0_grid(x, 120)
        return x, _clfdr_table(fits, groups, x, sigma, grid), grid

    def test_scan_equals_a_per_point_loop(self):
        x, clfdr_fn, grid = self._split_case()
        rows = [clfdr_fn(mu0) for mu0 in grid.tolist()]
        # Rows are shared inside a cell and change when either group's cell
        # does; no caller can write into a shared row.
        distinct = len({id(row) for row in rows})
        assert 2 < distinct < len(rows)
        assert not rows[0].flags.writeable
        table = rvalue_vary_mu0(x.size, dd_mu0_evaluator(x, clfdr_fn, 0.1), grid)
        r, r_prime = _scan_reference(x, clfdr_fn, 0.1, grid)
        assert np.isfinite(r).sum() > 100 and tied_units(r).any()
        assert np.array_equal(table.r.view(np.int64), r.view(np.int64))
        assert np.array_equal(table.r_prime, r_prime, equal_nan=True)

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    @pytest.mark.parametrize("at", [0, 7])
    def test_a_new_row_out_of_range_raises(self, bad, at):
        x, clfdr_fn, grid = self._split_case(m=300)
        calls = []

        def spoiled(mu0):
            calls.append(mu0)
            row = clfdr_fn(mu0)
            if len(calls) <= at:
                return row
            row = np.array(row)
            row[5] = bad
            return row

        with pytest.raises(ValueError, match=r"clfdr must lie in \[0, 1\]"):
            rvalue_vary_mu0(x.size, dd_mu0_evaluator(x, spoiled, 0.1), grid)
        assert len(calls) == at + 1

    def test_alpha_hook_checks_clfdr_when_built(self):
        x, _ = _instance(3, 50)
        cl = np.full(50, 0.2)
        cl[3] = 1.5
        with pytest.raises(ValueError, match=r"clfdr must lie in \[0, 1\]"):
            dd_alpha_evaluator(x, cl, 0.0)


def _output_tables():
    """(ids, x, sigma, r-value table) covering the writers' cases, by name."""
    x = np.array([2.0, -1.0, 0.3])
    sg = np.array([1.0, 2.0, 0.5])
    cl = np.array([0.05, 0.9, 0.2])
    ids = ["a,b", 'q"q', "\u00e9t\u00e9"]  # CSV quoting, JSON \u escapes
    alpha_grid = default_alpha_grid(30)
    mu0_grid = np.linspace(2.5, -1.5, 17)

    def mu0_rule(mu0):
        # The second unit is never selected.
        return np.array([mu0 <= 1.5, False, mu0 <= -0.25])

    xs, sigma = _instance(5, 150)
    seeded_ids = [f"u{i:03d}" for i in range(150)]
    one = (["only"], np.array([4.0]), np.array([1.0]))
    return {
        "alpha": (ids, x, sg, rvalue_vary_alpha(3, dd_alpha_evaluator(x, cl, 0.0), alpha_grid)),
        "mu0": (ids, x, sg, rvalue_vary_mu0(3, mu0_rule, mu0_grid)),
        "m1-selected": (*one, rvalue_vary_mu0(1, lambda m: np.array([m <= 0.0]), mu0_grid)),
        "m1-never": (*one, rvalue_vary_alpha(1, lambda a: np.array([False]), alpha_grid)),
        "seeded-alpha": (seeded_ids, xs, sigma, rvalue_vary_alpha(
            150,
            dd_alpha_evaluator(xs, oracle_clfdr(TWO_INTERVAL, xs, sigma, 0.0), 0.0),
            alpha_grid,
        )),
        "seeded-mu0": (seeded_ids, xs, sigma, rvalue_vary_mu0(
            150,
            dd_mu0_evaluator(xs, lambda m: oracle_clfdr(TWO_INTERVAL, xs, sigma, m), 0.1),
            default_mu0_grid(xs, 40),
        )),
    }


def _rvalue_args(output, alpha=None, mu0=None):
    """The flags of an ``rvalue`` run writing into ``output``, as
    ``hetsel.cli._check`` leaves them."""
    return argparse.Namespace(command="rvalue", output=str(output), alpha=alpha, mu0=mu0, k=50,
                              sigma_split=(), trim=None)


class TestTableOutputs:
    def test_csv_and_json(self, tmp_path):
        # Both artifacts are byte-identical to csv.writer over repr cells and
        # json.dump of the metadata and counts, on every case of _output_tables.
        cases = _output_tables()
        for name, sentinel in (("alpha", math.inf), ("mu0", -math.inf)):
            table = cases[name][3]
            never = table.r == sentinel
            assert never.any() and np.isnan(table.r_prime[never]).all()
        assert cases["m1-never"][3].r[0] == math.inf
        for name, (ids, x, sigma, table) in cases.items():
            new, ref = tmp_path / name / "new", tmp_path / name / "ref"
            new.mkdir(parents=True)
            ref.mkdir()
            _write_rvalues(_rvalue_args(new, alpha=0.1, mu0=0.0), ids, x, sigma, table)
            write_rvalues_reference(_rvalue_args(ref, alpha=0.1, mu0=0.0), ids, x, sigma, table)
            for artifact in ("rvalues.csv", "rvalues.json"):
                got, want = (new / artifact).read_bytes(), (ref / artifact).read_bytes()
                assert got == want, (name, artifact)
        rows = (tmp_path / "alpha" / "new" / "rvalues.csv").read_text("utf-8").splitlines()
        assert rows[0] == "id,x,sigma,r,r_prime,definition,grid_resolution"
        assert rows[1].startswith('"a,b",') and rows[2].startswith('"q""q",')
        doc = json.loads((tmp_path / "alpha" / "new" / "rvalues.json").read_text("utf-8"))
        assert "entries" not in doc

    def test_tied_is_the_rule_on_the_r_column(self, tmp_path):
        # A unit is tied iff its r cell is non-empty and appears in another
        # row of rvalues.csv; rvalues.json counts the distinct finite r and
        # the ranked units sharing the most common one.
        cases = _output_tables()
        seeded = tied_units(cases["seeded-mu0"][3].r)
        assert seeded.any() and not seeded.all()
        for name, (ids, x, sigma, table) in cases.items():
            out = tmp_path / name
            out.mkdir()
            _write_rvalues(_rvalue_args(out), ids, x, sigma, table)
            with open(out / "rvalues.csv", newline="", encoding="utf-8") as fh:
                cells = [row["r"] for row in csv.DictReader(fh)]
            seen = Counter(cells)
            assert tied_units(table.r).tolist() == [c != "" and seen[c] > 1 for c in cells], name
            ranked = table.r[np.isfinite(table.r)]
            values, counts = np.unique(ranked, return_counts=True)
            doc = json.loads((out / "rvalues.json").read_text("utf-8"))
            assert doc["n_distinct_r"] == values.size, name
            assert doc["largest_tie"] == (int(counts.max()) if counts.size else 0), name
