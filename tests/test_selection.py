import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hetsel.law as law_module
from conftest import (
    INSTANCE_FAMILIES,
    classify_group,
    classify_groups_select,
    coherent_instance,
    enumerate_prefix_best,
    oracle_thresholds_mc,
    point_masses,
    score,
    score_arrays_where,
    stepup_bh_reference,
    stepup_clfdr_reference,
    stepwise_reference,
    trace_reference,
    trace_steps,
)
from hetsel import (
    ConstantSigma,
    JointModel,
    ThresholdPair,
    TruePrior,
    UniformSigma,
    calibrate_thresholds,
    clfdr_stepup_threshold,
    oracle_thresholds,
    select_bh,
    select_clfdr_stepup,
    select_dd,
    select_oracle,
)
from hetsel.selection import _prepare_row, _tie_order, _units
from hetsel.sim import CorrelatedTwoGroup, TwoComponent, UniformIndep, joint_model

# The three built-in designs at their default mu0 (and the uniform one at
# mu0 = 1), and the criterion-1 model.
POPULATION_CASES = {
    "correlated": (joint_model(CorrelatedTwoGroup(sigma=1.0)), 1.0),
    "two-component": (joint_model(TwoComponent(sigma2=2.0)), 6.0),
    "uniform": (joint_model(UniformIndep(sigma_max=3.0)), 0.0),
    # Some sigma nodes have near-free group-1 units at the cutoff here,
    # yet no group-2 purchase is sure to fund one: t2 is still -inf.
    "uniform-mu0-1": (joint_model(UniformIndep(sigma_max=3.0)), 1.0),
    "criterion-1": (
        JointModel.independent(
            TruePrior.uniform_mixture([(0.8, -3.0, -1.0), (0.2, 1.0, 2.0)]),
            UniformSigma(0.5, 3.0),
        ),
        0.0,
    ),
}


class TestClassify:
    def test_group_examples(self):
        x = [1.0, -1.0, 0.0, 2.0, -2.0]
        cl = [0.05, 0.3, 0.1, 0.4, 0.02]
        # The third unit sits on both boundaries, which are closed.
        expect = [0, 3, 0, 1, 2]
        assert select_dd(x, cl, 0.1, 0.0).group.tolist() == expect

    def test_vector_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=100)
        cl = rng.random(100)
        got = select_dd(x, cl, 0.15, 0.2).group
        expect = [classify_group(x[i], cl[i], 0.2, 0.15) for i in range(100)]
        assert got.tolist() == expect


class TestScore:
    def test_hand_value(self):
        t = select_dd([1.0], [0.6], 0.1, 0.0).t
        assert_allclose(t[0], 2.0)
        assert_allclose(np.tanh(t[0]), math.tanh(2.0), rtol=0, atol=1e-15)

    def test_zero_numerator(self):
        t = select_dd([0.5], [0.3], 0.1, 0.5).t
        assert (t[0], np.tanh(t[0])) == (0.0, 0.0)

    def test_boundary_infinite(self):
        t = select_dd([1.0, -1.0], [0.1, 0.1], 0.1, 0.0).t
        assert t.tolist() == [math.inf, -math.inf]
        assert np.tanh(t).tolist() == [1.0, -1.0]

    def test_invalid_clfdr(self):
        with pytest.raises(ValueError):
            select_dd([1.0], [1.5], 0.1, 0.0)
        with pytest.raises(ValueError):
            score(1.0, 1.5, 0.0, 0.1)

    def test_vector_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        x = np.round(rng.normal(size=200), 1)
        cl = np.round(rng.random(200), 1)  # hits clfdr == alpha exactly
        t = select_dd(x, cl, 0.3, 0.2).t
        for i in range(200):
            t_ref = score(x[i], cl[i], 0.2, 0.3)
            assert t[i] == t_ref
            assert_allclose(np.tanh(t[i]), math.tanh(t_ref), rtol=0, atol=1e-15)


def _assert_replay_matches_references(x, cl, mu0, alpha):
    """Labels, t and the ordered groups of one replay, lone and on a shared
    tie order, equal those of the np.select / np.where references, bit for
    bit."""
    labels = classify_groups_select(x, cl, mu0, alpha)
    t = score_arrays_where(x, cl, mu0, alpha)
    g1 = sorted(np.flatnonzero(labels == 1), key=lambda i: (-t[i], -x[i], i))
    g2 = sorted(np.flatnonzero(labels == 2), key=lambda i: (t[i], -x[i], i))
    xs, cls = _units(x, cl)
    shared = _prepare_row(xs, _tie_order(xs), cls, alpha)(mu0)
    for curve in (select_dd(x, cl, alpha, mu0), shared):
        got_labels = curve.group
        assert got_labels.dtype == np.int8 and np.array_equal(got_labels, labels)
        assert np.array_equal(curve.t, t) and np.array_equal(np.signbit(curve.t), np.signbit(t))
        assert np.array_equal(curve.g0, np.flatnonzero(labels == 0))
        assert np.array_equal(curve.g1, np.array(g1, dtype=int))
        assert np.array_equal(curve.g2, np.array(g2, dtype=int))


class TestReplayReferences:
    def test_x_equal_to_mu0(self):
        x = np.array([0.5, 0.5, 0.5, 1.0, 0.0, 0.5, -0.5])
        cl = np.array([0.05, 0.1, 0.3, 0.3, 0.02, 0.9, 0.01])
        assert select_dd(x, cl, 0.1, 0.5).group.tolist() == [0, 0, 1, 1, 2, 1, 2]
        _assert_replay_matches_references(x, cl, 0.5, 0.1)

    def test_clfdr_equal_to_alpha(self):
        # The sentinels: +inf above mu0, -inf below, 0 at mu0.
        x = np.array([1.0, -1.0, 0.0, 2.0, 0.5, -0.3])
        cl = np.array([0.1, 0.1, 0.1, 0.1, 0.4, 0.05])
        assert select_dd(x, cl, 0.1, 0.0).t[:4].tolist() == [math.inf, -math.inf, 0.0, math.inf]
        _assert_replay_matches_references(x, cl, 0.0, 0.1)

    def test_mu0_sweep(self):
        model = INSTANCE_FAMILIES["two-interval"]
        x, sigma, _, group = model.sample(np.random.default_rng(13), 10_000)
        alpha = 0.1
        # 190 grid points plus 10 that equal some unit's x exactly.
        grid = np.concatenate((np.linspace(x.max(), x.min(), 190), x[::1000]))
        for k, mu0 in enumerate(grid):
            cl = model.clfdr(x, sigma, group, mu0)
            cl[k::97] = alpha  # clfdr == alpha on both sides of mu0
            _assert_replay_matches_references(x, cl, mu0, alpha)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestTieOrder:
    """A lone call orders only groups 1 and 2; the r-value replays share
    one tie order of x and one prepared row per clfdr. Both must give the
    groups, scores and decisions of the ``lexsort`` reference bit for bit,
    also where x, t and clfdr tie."""

    @staticmethod
    def _instance(seed, m=400):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(0.0, 1.5, m), 1)
        x[rng.random(m) < 0.1] = 0.0
        x[rng.random(m) < 0.1] = -0.0
        cl = np.round(rng.random(m), 1)  # 0.0, 0.1 (= alpha), ..., 1.0
        cl[rng.random(m) < 0.05] = 0.3
        return x, cl

    def _assert_reference(self, curve, x, cl, alpha, mu0):
        g0, g1, g2, t, decisions = stepwise_reference(x, cl, alpha, mu0)
        assert np.array_equal(curve.g0, g0)
        assert np.array_equal(curve.g1, g1) and np.array_equal(curve.g2, g2)
        assert np.array_equal(_bits(curve.t), _bits(t))
        assert np.array_equal(curve.decisions, decisions)

    @pytest.mark.parametrize("seed", range(6))
    def test_lone_and_replayed_calls_equal_the_reference(self, seed):
        x, cl = self._instance(seed)
        order = _tie_order(x)
        levels = [0.0, -0.0, 0.1, -0.1, 1.5, -2.0, *x[:6].tolist()]
        sentinels = 0
        for alpha in (0.1, 0.3):
            select = _prepare_row(x, order, _units(x, cl)[1], alpha)
            for mu0 in levels:
                lone = select_dd(x, cl, alpha, mu0)
                sentinels += int(np.sum(np.isinf(lone.t) | (lone.t == 0.0)))
                self._assert_reference(lone, x, cl, alpha, mu0)
                self._assert_reference(select(mu0), x, cl, alpha, mu0)
        # The instances exercise both +-inf and +-0 scores.
        assert sentinels > 100

    def test_nan_mu0_is_rejected(self):
        x, cl = self._instance(0, 20)
        select = _prepare_row(x, _tie_order(x), cl, 0.1)
        for call in (lambda: select_dd(x, cl, 0.1, math.nan), lambda: select(math.nan)):
            with pytest.raises(ValueError, match="mu0 must not be NaN"):
                call()


class TestSelectDD:
    def test_hand_trace(self):
        # A enters as group 0; B is unaffordable until D's purchase raises
        # the capacity; then B and C both fit.
        x = np.array([2.0, 3.0, 0.5, -1.0])
        res = select_dd(x, [0.05, 0.2, 0.12, 0.02], 0.1, 0.0)
        assert sorted(np.flatnonzero(res.decisions).tolist()) == [0, 1, 2, 3]
        assert_allclose(np.sum(x[res.decisions == 1]), 4.5)
        kinds = [st["step"] for st in trace_steps(res)]
        assert kinds[0] == "seed_group0"
        assert "add_group2" in kinds
        assert kinds.count("add_group1") == 2

    def test_only_group0_selects_all(self):
        res = select_dd([1.0, 2.0, 3.0], [0.01, 0.02, 0.05], 0.1, 0.0)
        assert res.decisions.sum() == 3

    def test_all_group3_selects_none(self):
        x = np.array([-1.0, -2.0])
        res = select_dd(x, [0.5, 0.9], 0.1, 0.0)
        assert res.decisions.sum() == 0
        assert np.sum(x[res.decisions == 1]) == 0.0

    def test_empty_input(self):
        res = select_dd([], [], 0.1, 0.0)
        assert res.decisions.sum() == 0

    def test_power_overflow(self):
        # Power sums past the float range are +inf, and the rule stops at
        # their limit; gains of +inf with losses of -inf leave no power to
        # compare, and no NaN reaches the stop rule.
        res = select_dd([1e308, 1e308, 1.0], [0.0, 0.0, 0.5], 0.1, 0.0)
        assert res.etp_b.tolist() == [math.inf]
        assert res.decisions.tolist() == [1, 1, 0]
        with pytest.raises(ValueError, match="overflows the float range both ways"):
            select_dd([1e308, 1e308, -1e308, -1e308], [0.0] * 4, 0.1, 0.0)

    def test_group_membership_rules(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(5, 60)))
            alpha = float(rng.uniform(0.05, 0.4))
            res = select_dd(x, cl, alpha, 0.0)
            groups = res.group
            sel = res.decisions.astype(bool)
            assert np.all(sel[groups == 0])
            assert not np.any(sel[groups == 3])

    def test_capacity_feasible_at_every_checkpoint(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(5, 80)))
            alpha = float(rng.uniform(0.05, 0.4))
            res = select_dd(x, cl, alpha, 0.0)
            assert -np.sum(cl[res.decisions == 1] - alpha) >= -1e-9
            for st in trace_steps(res):
                if st["step"] in ("store_etp", "stop_power_decline"):
                    assert st["capacity"] >= -1e-9

    def test_prefix_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(5, 80)), family="group2-rich")
            alpha = float(rng.uniform(0.1, 0.4))
            res = select_dd(x, cl, alpha, 0.0)
            sel = set(np.flatnonzero(res.decisions).tolist())
            t = res.t
            groups = res.group
            for grp, descending in ((1, True), (2, False)):
                members = np.flatnonzero(groups == grp).tolist()
                members.sort(key=lambda i: (-t[i] if descending else t[i], -x[i], i))
                chosen = [i in sel for i in members]
                if any(chosen):
                    last = max(i for i, c in enumerate(chosen) if c)
                    assert all(chosen[: last + 1])

    def test_trace_replays_to_decisions(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(5, 80)), family="group2-rich")
            alpha = float(rng.uniform(0.1, 0.4))
            res = select_dd(x, cl, alpha, 0.0)
            picked = set()
            for st in trace_steps(res):
                if st["step"] in ("seed_group0", "add_group1", "add_group2"):
                    picked.add(st["unit"])
                elif st["step"] in ("rollback_group1", "rollback_group2"):
                    picked.remove(st["unit"])
            assert picked == set(np.flatnonzero(res.decisions).tolist())

    @pytest.mark.parametrize("family", sorted(INSTANCE_FAMILIES))
    def test_trace_columns_match_the_replay(self, family):
        # The columns' running sums are cumulative sums of the replay's
        # steps: the same additions, so the same bits. Every stop reason
        # and x exactly at mu0 occur among the instances; the last ones,
        # whose clfdr is drawn apart from x, often stop on a power decline.
        rng = np.random.default_rng(5)
        stops = set()
        for trial in range(150):
            if trial < 120:
                x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(0, 60)), family=family)
            else:
                m = int(rng.integers(1, 60))
                x, cl = rng.normal(0.0, 2.0, m), rng.uniform(0.0, 0.6, m)
            if trial % 3 == 0 and x.size:
                x[rng.integers(0, x.size, 2)] = 0.0
            alpha = float(rng.choice([0.05, 0.1, 0.3]))
            res = select_dd(x, cl, alpha, 0.0)
            stops.add(res.stop)
            got, want = trace_steps(res), trace_reference(res)
            assert [(st["step"], st["unit"]) for st in got] == [
                (st["step"], st["unit"]) for st in want
            ]
            for key in ("etp_star", "capacity"):
                assert [float(st[key]).hex() for st in got] == [
                    float(st[key]).hex() for st in want
                ]
            cols = res.trace_columns
            assert cols["step"] == [st["step"] for st in got]
            assert cols["unit"].tolist() == [-1 if st["unit"] is None else st["unit"] for st in got]
        assert stops == {"group1_exhausted", "group2_exhausted", "power_decline"}, stops

    def test_not_nested_in_alpha(self):
        # A unit can leave the selection when the level is relaxed: at the
        # lower level the expensive high-x unit is bought first; at the
        # higher level ten cheap units overtake it in score and exhaust the
        # capacity before it is reached.
        x = [1.0] * 9 + [10.0] + [1.24] * 10
        cl = [0.01] * 9 + [0.9] + [0.2] * 10
        lo = select_dd(x, cl, 0.10, 0.0)
        hi = select_dd(x, cl, 0.12, 0.0)
        assert bool(lo.decisions[9]) and not bool(hi.decisions[9])


class TestStepUp:
    def test_running_mean_example(self):
        res = select_clfdr_stepup([0.01, 0.05, 0.2, 0.5], 0.1)
        assert res.tolist() == [1, 1, 1, 0]
        assert clfdr_stepup_threshold([0.01, 0.05, 0.2, 0.5], 0.1) == 0.2

    def test_all_above_alpha(self):
        assert select_clfdr_stepup([0.3, 0.9], 0.1).sum() == 0

    def test_all_zero(self):
        assert select_clfdr_stepup([0.0, 0.0, 0.0], 0.1).sum() == 3

    def test_ties_at_cutoff_included(self):
        res = select_clfdr_stepup([0.0, 0.25, 0.25, 0.25], 0.15)
        assert res.sum() == 4

    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cl = rng.random(int(rng.integers(1, 25)))
            alpha = float(rng.uniform(0.02, 0.5))
            got = select_clfdr_stepup(cl, alpha).tolist()
            assert got == stepup_clfdr_reference(cl.tolist(), alpha)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        cl = rng.random(40)
        perm = rng.permutation(40)
        a = select_clfdr_stepup(cl, 0.2)
        b = select_clfdr_stepup(cl[perm], 0.2)
        assert np.array_equal(a[perm], b)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        cl = rng.random(60)
        sets = [
            set(np.flatnonzero(select_clfdr_stepup(cl, a)).tolist())
            for a in (0.05, 0.1, 0.2, 0.4)
        ]
        for small, large in zip(sets, sets[1:]):
            assert small <= large


class TestBH:
    def test_examples(self):
        assert select_bh([0.001, 0.2, 0.9], 0.1).tolist() == [1, 0, 0]
        assert select_bh([1.0, 1.0], 0.1).sum() == 0
        assert select_bh([0.04, 0.06], 0.1).tolist() == [1, 1]

    def test_matches_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.random(int(rng.integers(1, 25)))
            alpha = float(rng.uniform(0.02, 0.5))
            assert select_bh(p, alpha).tolist() == stepup_bh_reference(
                p.tolist(), alpha
            )

    def test_order_invariance_and_monotonicity(self):
        rng = np.random.default_rng(9)
        p = rng.random(50)
        perm = rng.permutation(50)
        assert np.array_equal(select_bh(p, 0.2)[perm], select_bh(p[perm], 0.2))
        small = set(np.flatnonzero(select_bh(p, 0.05)).tolist())
        large = set(np.flatnonzero(select_bh(p, 0.3)).tolist())
        assert small <= large


class TestThresholds:
    def test_degenerate_pair_without_groups_1_and_2(self):
        # Only group 0 and group 3 present.
        pair = calibrate_thresholds(select_dd([1.0, -1.0], [0.05, 0.9], 0.1, 0.0))
        assert (pair.t1, pair.t2) == (math.inf, -math.inf)
        assert (pair.c1, pair.c2) == (1.0, -1.0)

    def test_two_dimensional_cross_check(self):
        # The curve search must reach the best feasible prefix pair found by
        # scanning the whole (group-1, group-2) prefix lattice.
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, sigma, cl, _ = coherent_instance(rng, 100, family="group2-rich")
            alpha = 0.25
            pair = calibrate_thresholds(select_dd(x, cl, alpha, 0.0))
            chosen = select_oracle(x, cl, pair, alpha, 0.0)
            best = enumerate_prefix_best(x, cl, alpha, 0.0)
            assert np.sum(x[chosen == 1]) >= best - 1e-9

    @pytest.mark.parametrize("family", sorted(INSTANCE_FAMILIES))
    def test_cutoffs_reproduce_the_stepwise_selection(self, family):
        # The fixed-cutoff rule at the cutoffs read off a curve selects
        # exactly the units the curve selects.
        rng = np.random.default_rng(sorted(INSTANCE_FAMILIES).index(family))
        for _ in range(200):
            x, sigma, cl, _ = coherent_instance(rng, int(rng.integers(1, 120)), family=family)
            for alpha in (0.05, 0.1, 0.2, 0.3):
                curve = select_dd(x, cl, alpha, 0.0)
                pair = calibrate_thresholds(curve)
                assert np.array_equal(select_oracle(x, cl, pair, alpha, 0.0), curve.decisions)

    def test_population_cutoffs_are_deterministic(self):
        model = joint_model(UniformIndep(sigma_max=3.0, m=1000))
        a = oracle_thresholds(model, 0.1, 0.0)
        b = oracle_thresholds(joint_model(UniformIndep(sigma_max=3.0, m=1000)), 0.1, 0.0)
        assert (a.t1, a.t2) == (b.t1, b.t2)
        assert math.isfinite(a.t1) and a.c2 == -1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    @pytest.mark.parametrize("case", sorted(POPULATION_CASES))
    def test_doubling_the_quadrature_keeps_t1(self, case, alpha, monkeypatch):
        model, mu0 = POPULATION_CASES[case]
        pair = oracle_thresholds(model, alpha, mu0)
        for name in ("_SIGMA_NODES", "_X_ORDER", "_PANELS_PER_SIGMA"):
            monkeypatch.setattr(law_module, name, 2 * getattr(law_module, name))
        fine = oracle_thresholds(model, alpha, mu0)
        assert abs(fine.t1 - pair.t1) < 1e-6 * abs(pair.t1)
        assert pair.t2 == fine.t2 == -math.inf

    @pytest.mark.parametrize("case", ["correlated", "two-component", "uniform", "uniform-mu0-1"])
    def test_agrees_with_monte_carlo(self, case):
        # t1 lies within 3 standard errors of the mean Monte Carlo cutoff,
        # and the sampled walk buys at most one group-2 unit, whose score
        # is O(1 / n_mc) above 0.
        model, mu0 = POPULATION_CASES[case]
        pair = oracle_thresholds(model, 0.1, mu0)
        draws = [oracle_thresholds_mc(model, 0.1, mu0, 10 ** 6, seed) for seed in range(8)]
        t1 = np.array([d.t1 for d in draws])
        se = t1.std(ddof=1) / math.sqrt(t1.size)
        assert abs(pair.t1 - t1.mean()) <= 3 * se
        assert pair.t2 == -math.inf
        assert all(d.t2 == -math.inf or 0 < d.t2 < 1e-2 for d in draws)

    @pytest.mark.parametrize(
        "prior, alpha, expected",
        [
            # clfdr(mu0) < alpha at sigma = 1: group 1 is empty.
            (point_masses([-3.0, 3.0], [0.01, 0.99]), 0.1, (math.inf, -math.inf)),
            # Group 0 frees more budget than all of group 1 costs.
            (point_masses([-1.0, 3.0], [0.1, 0.9]), 0.2, (-math.inf, -math.inf)),
        ],
    )
    def test_sentinel_cutoffs_match_monte_carlo(self, prior, alpha, expected):
        model = JointModel.independent(prior, ConstantSigma(1.0))
        pair = oracle_thresholds(model, alpha, 0.0)
        sampled = oracle_thresholds_mc(model, alpha, 0.0, 10 ** 5, 0)
        assert (pair.t1, pair.t2) == (sampled.t1, sampled.t2) == expected

    def test_ratio_guard(self):
        # Group-2 units (sigma = 1) all gain alpha; at alpha = 0.45 that is
        # more than any group-1 unit (sigma = 2) costs at the cutoff, so the
        # sampled walk buys most of group 2 and its t2 stays near 2 as n
        # grows. At alpha = 0.3 the ratio is 0.62 and the walk stops at once.
        law = JointModel(
            (0.2, 0.8),
            (ConstantSigma(1.0), ConstantSigma(2.0)),
            (point_masses([1.0], [1.0]), point_masses([-0.1, 1.1], [0.86, 0.14])),
        )
        with pytest.raises(ValueError, match=r"cost ratio 1\.17 is at least 1"):
            oracle_thresholds(law, 0.45, 0.0)
        assert all(oracle_thresholds_mc(law, 0.45, 0.0, n, 0).t2 > 1.5 for n in (10 ** 4, 10 ** 5))
        assert oracle_thresholds(law, 0.3, 0.0).t2 == -math.inf
        assert oracle_thresholds_mc(law, 0.3, 0.0, 10 ** 5, 0).t2 < 0.01

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair(t1=math.nan, t2=0.0)
        with pytest.raises(ValueError):
            ThresholdPair(t1=0.0, t2=math.nan)
        pair = ThresholdPair(t1=1.5, t2=-math.inf)
        assert (pair.c1, pair.c2) == (float(np.tanh(1.5)), -1.0)


class TestSelectOracle:
    def test_strict_inequality_at_cutoff(self):
        t = select_dd([1.0], [0.6], 0.1, 0.0).t
        pair = ThresholdPair(t1=float(t[0]), t2=-math.inf)
        res = select_oracle([1.0], [0.6], pair, 0.1, 0.0)
        assert res.sum() == 0

    def test_extreme_thresholds_group0_only(self):
        x = [2.0, 1.0, -0.5, -2.0]
        cl = [0.05, 0.5, 0.05, 0.9]
        res = select_oracle(x, cl, ThresholdPair(math.inf, -math.inf), 0.1, 0.0)
        assert np.flatnonzero(res).tolist() == [0]

    def test_permissive_thresholds(self):
        x = [2.0, 1.0, -0.5, -2.0]
        cl = [0.05, 0.5, 0.05, 0.9]
        res = select_oracle(x, cl, ThresholdPair(-math.inf, math.inf), 0.1, 0.0)
        assert np.flatnonzero(res).tolist() == [0, 1, 2]

    def test_saturated_scores_resolved_on_t_scale(self):
        # Scores tanh-saturate at t around 19; the pair must still separate
        # units by their value-to-cost ratio.
        x, cl = [30.0, 25.0], [0.2, 0.2]
        s = np.tanh(select_dd(x, cl, 0.1, 0.0).t)
        assert s.tolist() == [1.0, 1.0]
        pair = ThresholdPair(t1=280.0, t2=-math.inf)
        res = select_oracle(x, cl, pair, 0.1, 0.0)
        assert res.tolist() == [1, 0]

    def test_tanh_collision_below_saturation(self):
        # t = 18.967 lies above the cutoff 18.895, but both map to the same
        # s = 0.9999999999999999 < 1.0, so a comparison on s drops the unit.
        t = select_dd([1.8967], [0.2], 0.1, 0.0).t
        s = np.tanh(t)
        pair = ThresholdPair(t1=18.895, t2=-math.inf)
        assert t[0] > pair.t1 and s[0] == pair.c1 == 0.9999999999999999
        res = select_oracle([1.8967], [0.2], pair, 0.1, 0.0)
        assert res.tolist() == [1]

    def test_unequal_lengths_rejected(self):
        # x and clfdr are checked as the step-wise rule checks them, not
        # broadcast against each other.
        with pytest.raises(ValueError, match="equal length"):
            select_oracle([1.0, 2.0], [0.05], ThresholdPair(0.0, 0.0), 0.1, 0.0)
