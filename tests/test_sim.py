import json

import numpy as np
import pytest

from hetsel import (
    ConstantSigma,
    CorrelatedTwoGroup,
    NormalComponent,
    SimDesign,
    TwoComponent,
    UniformIndep,
    UniformSigma,
    clfdr_by_group,
    fit_prior_by_group,
    generate,
    joint_model,
    run_replications,
)
from hetsel.cli import _report_doc, _tidy_rows


def _design(family, mu0, reps=2, seed=42, alpha=0.1):
    return SimDesign(family=family, mu0=mu0, alpha=alpha, reps=reps, master_seed=seed)


class TestGenerate:
    @pytest.mark.parametrize(
        "family, mu0",
        [
            (TwoComponent(sigma2=2.0, m=300), 6.0),
            (UniformIndep(sigma_max=3.0, m=300), 0.0),
            (CorrelatedTwoGroup(sigma=2.0, m=300), 1.0),
        ],
    )
    def test_generate_is_one_draw_of_joint_model(self, family, mu0):
        design = _design(family, mu0=mu0, reps=3, seed=17)
        rep = generate(design, 2)
        rng = np.random.default_rng(np.random.SeedSequence((17, 0, 2)))
        x, sigma, mu, group = joint_model(family).sample(rng, family.m)
        assert rep.seed_key == (17, 0, 2)
        assert np.array_equal(rep.x, x) and np.array_equal(rep.sigma, sigma)
        assert np.array_equal(rep.mu, mu) and np.array_equal(rep.group_ids, group)
        assert np.array_equal(rep.theta, (mu > mu0).astype(np.int8))

    def test_two_component_sigma_pattern(self):
        design = _design(TwoComponent(sigma2=2.0, m=400), mu0=6.0)
        rep = generate(design, 0)
        assert set(np.unique(rep.sigma)) == {1.0, 2.0}
        assert np.array_equal(rep.group_ids, (rep.sigma == 2.0).astype(int))
        assert np.array_equal(rep.theta, (rep.mu > 6.0).astype(np.int8))

    def test_uniform_intervals_match_labels(self):
        design = _design(UniformIndep(sigma_max=3.0, m=500), mu0=0.0)
        rep = generate(design, 1)
        null = rep.mu[rep.theta == 0]
        alt = rep.mu[rep.theta == 1]
        assert np.all((null > -3.0) & (null < -1.0))
        assert np.all((alt > 1.0) & (alt < 2.0))
        assert np.all((rep.sigma > 0.5) & (rep.sigma < 3.0))

    def test_correlated_sigma_groups_and_priors(self):
        design = _design(CorrelatedTwoGroup(sigma=2.0, m=500), mu0=1.0)
        rep = generate(design, 0)
        assert set(np.unique(rep.sigma)) == {0.5, 2.5}
        assert np.array_equal(rep.theta, (rep.mu > 1.0).astype(np.int8))
        lo, hi = joint_model(design.family).priors
        assert lo.components[1] == NormalComponent(1.5, 0.25)
        assert hi.components[1] == NormalComponent(3.0, 0.25)
        assert lo.weights == (0.9, 0.1)

    def test_theta_matches_mu_at_design_mu0(self):
        # Holds by construction in every design, at any reference level.
        design = _design(TwoComponent(sigma2=1.5, m=200), mu0=5.5)
        rep = generate(design, 0)
        assert np.array_equal(rep.theta, (rep.mu > 5.5).astype(np.int8))

    def test_rep_isolation_and_distinct_seeds(self):
        d3 = _design(UniformIndep(sigma_max=3.0, m=100), mu0=0.0, reps=3)
        d5 = _design(UniformIndep(sigma_max=3.0, m=100), mu0=0.0, reps=5)
        a = generate(d3, 2)
        b = generate(d5, 2)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.sigma, b.sigma)
        keys = {generate(d5, r).seed_key for r in range(5)}
        assert len(keys) == 5

    def test_rep_out_of_range(self):
        with pytest.raises(ValueError):
            generate(_design(UniformIndep(sigma_max=3.0, m=50), mu0=0.0), 2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            TwoComponent(sigma2=2.0, m=3)  # below the bound of 4
        with pytest.raises(ValueError):
            UniformIndep(sigma_max=0.4)
        with pytest.raises(ValueError):
            CorrelatedTwoGroup(sigma=-1.0)
        with pytest.raises(ValueError):
            SimDesign(UniformIndep(sigma_max=2.0), mu0=0.0, alpha=0.1, reps=0, master_seed=1)
        for mu0 in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="mu0 must be finite"):
                SimDesign(UniformIndep(sigma_max=2.0), mu0=mu0, alpha=0.1, reps=1, master_seed=1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_are_named(self, bad):
        cases = [
            (lambda: TwoComponent(sigma2=bad), "sigma2 must"),
            (lambda: UniformIndep(sigma_max=bad), "sigma_max must"),
            (lambda: CorrelatedTwoGroup(sigma=bad), "sigma must"),
            (lambda: ConstantSigma(bad), "sigma must"),
            (lambda: UniformSigma(0.5, bad), "need 0 < low < high < inf"),
            (lambda: UniformSigma(bad, 2.0), "need 0 < low < high < inf"),
        ]
        for make, message in cases:
            with pytest.raises(ValueError, match=message):
                make()


class TestJointModel:
    def test_matches_generated_law(self):
        # Sampled sigma support and clfdr bounds line up with the designs.
        model = joint_model(CorrelatedTwoGroup(sigma=2.0, m=100))
        rng = np.random.default_rng(0)
        x, sigma, mu, group = model.sample(rng, 2000)
        assert set(np.unique(sigma)) == {0.5, 2.5}
        cl = model.clfdr(x, sigma, group, 1.0)
        assert np.all((cl >= 0) & (cl <= 1))


class TestRunReplications:
    def test_single_rep_summary_is_that_rep(self):
        design = _design(UniformIndep(sigma_max=3.0, m=300), mu0=0.0, reps=1)
        report = run_replications(design)
        for method, recs in report.per_rep.items():
            assert len(recs) == 1
            assert report.summary[method].fdr == recs[0].fdp
            assert report.summary[method].mean_etp_star == recs[0].etp_star

    def test_byte_identical_reruns(self):
        design = _design(UniformIndep(sigma_max=3.0, m=250), mu0=0.0, reps=2, seed=9)
        a = run_replications(design)
        b = run_replications(design)
        assert json.dumps(_report_doc(design, a), sort_keys=True) == json.dumps(
            _report_doc(design, b), sort_keys=True
        )

    def test_summary_equals_mean_of_reps(self):
        design = _design(UniformIndep(sigma_max=3.0, m=200), mu0=0.0, reps=4, seed=11)
        report = run_replications(design)
        for method, recs in report.per_rep.items():
            assert report.summary[method].fdr == pytest.approx(
                np.mean([r.fdp for r in recs])
            )
            assert report.summary[method].mean_etp == pytest.approx(
                np.mean([r.etp for r in recs])
            )

    def test_bh_is_conservative(self):
        # Desk-scale check at the paper's parameter points.
        for family, mu0 in (
            (UniformIndep(sigma_max=3.0, m=600), 0.0),
            (TwoComponent(sigma2=2.0, m=600), 6.0),
            (CorrelatedTwoGroup(sigma=2.0, m=600), 1.0),
        ):
            design = _design(family, mu0=mu0, reps=3, seed=13)
            report = run_replications(design)
            assert (
                report.summary["BH"].fdr <= report.summary["DD"].fdr + 0.05
            ), family

    def test_seed_ledger_and_tidy_rows(self):
        design = _design(UniformIndep(sigma_max=3.0, m=150), mu0=0.0, reps=2, seed=3)
        report = run_replications(design)
        assert len(set(report.seed_ledger)) == 2
        rows = list(_tidy_rows(design, report))
        assert {r[1] for r in rows} == {"DD", "OR", "Clfdr", "BH"}
        assert {r[2] for r in rows} == {"fdp", "etp", "etp_star", "n_selected"}
        assert len(rows) == 4 * 4 * 2

    def test_clfdr_mse_per_rep(self):
        design = _design(CorrelatedTwoGroup(sigma=1.0, m=300), mu0=1.0, reps=2, seed=5)
        report = run_replications(design, k=30)
        assert len(report.clfdr_mse) == 2
        assert _report_doc(design, report)["clfdr_mse"] == list(report.clfdr_mse)
        rep = generate(design, 1)
        fits = fit_prior_by_group(rep.x, rep.sigma, rep.group_ids, k=30)
        estimated = clfdr_by_group(fits, rep.group_ids, rep.x, rep.sigma, 1.0)
        exact = joint_model(design.family).clfdr(rep.x, rep.sigma, rep.group_ids, 1.0)
        assert report.clfdr_mse[1] == float(np.mean((estimated - exact) ** 2))

    def test_fit_failure_carries_rep_index(self, monkeypatch):
        import hetsel.sim as sim_module

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(sim_module, "fit_prior_by_group", boom)
        design = _design(UniformIndep(sigma_max=3.0, m=100), mu0=0.0, reps=1)
        with pytest.raises(RuntimeError) as info:
            run_replications(design)
        message = str(info.value)
        assert "replication 0" in message
        assert "seed key (42, 0, 0)" in message
        assert "synthetic failure" in message


def test_lowest_failing_replicate_is_raised(monkeypatch):
    import hetsel.sim as sim_module

    design = _design(UniformIndep(sigma_max=3.0, m=150), mu0=0.0, reps=4)
    failing = {generate(design, r).x[0] for r in (1, 2)}
    fit = sim_module.fit_prior_by_group

    def flaky(x, *args, **kwargs):
        if x[0] in failing:
            raise ValueError("synthetic failure")
        return fit(x, *args, **kwargs)

    monkeypatch.setattr(sim_module, "fit_prior_by_group", flaky)
    with pytest.raises(RuntimeError) as info:
        run_replications(design)
    message = str(info.value)
    assert "replication 1 " in message
    assert "seed key (42, 0, 1)" in message
    assert "synthetic failure" in message
