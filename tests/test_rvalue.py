import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import write_rvalues_reference
from hetsel import (
    JointModel,
    TruePrior,
    UniformSigma,
    dd_alpha_evaluator,
    dd_mu0_evaluator,
    default_alpha_grid,
    default_mu0_grid,
    oracle_clfdr,
    rvalue_vary_alpha,
    rvalue_vary_mu0,
    zvalue_pvalue,
)
from hetsel.cli import RunConfig, _write_rvalues

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
        assert base.tied.sum() > 100
        for column in ("r", "r_prime", "tied"):
            np.testing.assert_array_equal(getattr(shuffled, column), getattr(base, column)[perm])

    def test_descending_grid_required(self):
        with pytest.raises(ValueError):
            rvalue_vary_mu0(1, lambda m: np.array([True]), [0.0, 1.0])

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
        assert table.tied.tolist() == [True, True, False]
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


class TestTableOutputs:
    def test_csv_and_json(self, tmp_path):
        # Both artifacts are byte-identical to csv.writer over repr cells and
        # json.dump of one entry dict per unit, on every case of _output_tables.
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
            config = RunConfig(
                command="rvalue", output=str(new), alpha=0.1, mu0=0.0, definition=table.definition
            )
            _write_rvalues(config, ids, x, sigma, table)
            write_rvalues_reference(replace(config, output=str(ref)), ids, x, sigma, table)
            for artifact in ("rvalues.csv", "rvalues.json"):
                got, want = (new / artifact).read_bytes(), (ref / artifact).read_bytes()
                assert got == want, (name, artifact)
        text = (tmp_path / "alpha" / "new" / "rvalues.json").read_text(encoding="ascii")
        assert '"id": "\\u00e9t\\u00e9"' in text and '"r": null' in text
        rows = (tmp_path / "alpha" / "new" / "rvalues.csv").read_text("utf-8").splitlines()
        assert rows[0] == "id,x,sigma,r,r_prime,definition,grid_resolution"
        assert rows[1].startswith('"a,b",') and rows[2].startswith('"q""q",')
