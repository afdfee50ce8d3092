"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy replication
studies (criteria 2 to 4) run their replicates serially; each criterion
states its tolerance inline.
"""
import math
import time

import numpy as np

from conftest import (
    INSTANCE_FAMILIES,
    coherent_instance,
    enumerate_prefix_best,
    stepup_bh_reference,
    stepup_clfdr_reference,
)
from hetsel import (
    CorrelatedTwoGroup,
    JointModel,
    SimDesign,
    TruePrior,
    TwoComponent,
    UniformIndep,
    UniformSigma,
    calibrate_thresholds,
    clfdr_by_group,
    clfdr_stepup_threshold,
    default_alpha_grid,
    default_mu0_grid,
    fit_prior,
    generate,
    joint_model,
    oracle_thresholds,
    rvalue_vary_alpha,
    run_replications,
    select_bh,
    select_clfdr_stepup,
    select_dd,
    select_oracle,
)


def _report(name: str, ok: bool, detail: str):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _paired_margin(a, b):
    """Mean difference and its Monte Carlo standard error over paired reps."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))


ILLUSTRATIVE_MODEL = JointModel.independent(
    TruePrior.uniform_mixture([(0.8, -3.0, -1.0), (0.2, 1.0, 2.0)]),
    UniformSigma(0.5, 3.0),
)


def test_criterion_1_oracle_calibration():
    """Known-model cutoffs: clfdr threshold 0.32 +- 0.02, score cutoff
    12.21 +- 0.5 on the value-to-cost scale, within two minutes."""
    start = time.time()
    alpha, mu0, n_mc = 0.1, 0.0, 10 ** 6
    rng = np.random.default_rng(np.random.SeedSequence((20240801, 1)))
    x, sigma, _, group = ILLUSTRATIVE_MODEL.sample(rng, n_mc)
    clfdr = ILLUSTRATIVE_MODEL.clfdr(x, sigma, group, mu0)

    c_alpha = clfdr_stepup_threshold(clfdr, alpha)
    pair = oracle_thresholds(ILLUSTRATIVE_MODEL, alpha, mu0)
    elapsed = time.time() - start
    ok = (
        abs(c_alpha - 0.32) <= 0.02
        and abs(pair.t1 - 12.21) <= 0.5
        and pair.c2 == -1.0
        and elapsed < 120.0
    )
    _report(
        "criterion 1 oracle calibration",
        ok,
        f"clfdr cutoff {c_alpha:.4f} (target 0.32 +- 0.02), "
        f"t cutoff {pair.t1:.3f} (target 12.21 +- 0.5), {elapsed:.0f}s",
    )


def test_criterion_2_fdr_control():
    """Uniform design, m=5000, 50 reps: DD and OR mean FDP in [0.05, 0.13]
    at nominal 0.1; BH below 0.10. Under ten minutes in total."""
    start = time.time()
    rows = []
    ok = True
    for sigma_max in (2.0, 3.0, 4.0):
        design = SimDesign(
            family=UniformIndep(sigma_max=sigma_max, m=5000),
            mu0=0.0,
            alpha=0.1,
            reps=50,
            master_seed=311,
        )
        summary = run_replications(design).summary
        dd, orc, bh = summary["DD"].fdr, summary["OR"].fdr, summary["BH"].fdr
        rows.append(f"smax={sigma_max:g}: DD {dd:.3f} OR {orc:.3f} BH {bh:.3f}")
        ok = ok and (0.05 <= dd <= 0.13) and (0.05 <= orc <= 0.13) and (bh < 0.10)
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _report("criterion 2 fdr control", ok, "; ".join(rows) + f"; {elapsed:.0f}s")


def test_criterion_3_power_ordering_two_component():
    """Two-component design: DD beats the clfdr step-up on modified power
    and loses on raw true-positive count, each by >2 standard errors."""
    design = SimDesign(
        family=TwoComponent(sigma2=2.0, m=10000),
        mu0=6.0,
        alpha=0.1,
        reps=20,
        master_seed=313,
    )
    report = run_replications(design)
    dd = report.per_rep["DD"]
    cl = report.per_rep["Clfdr"]
    star_gap, star_se = _paired_margin(
        [r.etp_star for r in dd], [r.etp_star for r in cl]
    )
    etp_gap, etp_se = _paired_margin([r.etp for r in cl], [r.etp for r in dd])
    ok = star_gap > 2 * star_se and etp_gap > 2 * etp_se
    _report(
        "criterion 3 two-component power ordering",
        ok,
        f"etp* gap {star_gap:.1f} (2se {2 * star_se:.1f}), "
        f"etp gap {etp_gap:.1f} (2se {2 * etp_se:.1f})",
    )


def test_criterion_4_power_ordering_correlated():
    """Correlated design: the same two orderings as criterion 3."""
    design = SimDesign(
        family=CorrelatedTwoGroup(sigma=2.0, m=10000),
        mu0=1.0,
        alpha=0.1,
        reps=20,
        master_seed=314,
    )
    report = run_replications(design)
    dd = report.per_rep["DD"]
    cl = report.per_rep["Clfdr"]
    star_gap, star_se = _paired_margin(
        [r.etp_star for r in dd], [r.etp_star for r in cl]
    )
    etp_gap, etp_se = _paired_margin([r.etp for r in cl], [r.etp for r in dd])
    ok = star_gap > 2 * star_se and etp_gap > 2 * etp_se
    _report(
        "criterion 4 correlated power ordering",
        ok,
        f"etp* gap {star_gap:.1f} (2se {2 * star_se:.1f}), "
        f"etp gap {etp_gap:.1f} (2se {2 * etp_se:.1f})",
    )


def test_criterion_5_deconvolution_consistency():
    """Mean squared clfdr error shrinks from m=500 to m=5000 (20 seeds)."""
    mse = {500: [], 5000: []}
    for seed in range(20):
        for m in (500, 5000):
            design = SimDesign(
                family=UniformIndep(sigma_max=3.0, m=m),
                mu0=0.0,
                alpha=0.1,
                reps=1,
                master_seed=500 + seed,
            )
            rep = generate(design, 0)
            fit = fit_prior(rep.x, rep.sigma)
            estimated = clfdr_by_group({0: fit}, np.zeros(m), rep.x, rep.sigma, 0.0)
            exact = joint_model(design.family).clfdr(
                rep.x, rep.sigma, rep.group_ids, 0.0
            )
            mse[m].append(float(np.mean((estimated - exact) ** 2)))
    small, large = float(np.mean(mse[500])), float(np.mean(mse[5000]))
    _report(
        "criterion 5 deconvolution consistency",
        large < small,
        f"mse m=500 {small:.5f} vs m=5000 {large:.5f} over 20 seeds",
    )


def test_criterion_6_stepwise_matches_enumeration():
    """On 200 tiny model-coherent instances the step-wise selection matches
    exhaustive enumeration over feasible prefix selections exactly."""
    master = np.random.SeedSequence(606)
    worst = 0.0
    count = 0
    for child in master.spawn(200):
        rng = np.random.default_rng(child)
        m = int(rng.integers(3, 13))
        alpha = float(rng.uniform(0.05, 0.4))
        x, sigma, clfdr, _ = coherent_instance(rng, m)
        res = select_dd(x, clfdr, alpha, 0.0)
        best = enumerate_prefix_best(x, clfdr, alpha, 0.0)
        worst = max(worst, best - np.sum(x[res.decisions == 1]))
        count += 1
    _report(
        "criterion 6 brute-force equivalence",
        count == 200 and worst <= 1e-9,
        f"{count} instances, worst shortfall {worst:.2e}",
    )


def _agreeability_violations(x, selections, dominates, grid, better_is_smaller):
    """Dominance violations, both pointwise and on the induced r-values.

    Pointwise: some grid point selects j but not its dominator i. R-value:
    the dominator's extremal threshold is worse (larger under the vary-alpha
    definition, smaller under vary-mu0). The grid arrives in scan order,
    most demanding point first, so the first selection is the extremum.
    """
    m = selections[0].size
    viol = 0
    sentinel = math.inf if better_is_smaller else -math.inf
    r = np.full(m, sentinel)
    for sel, point in zip(selections, grid):
        bad = dominates & (~sel[:, None]) & sel[None, :]
        viol += int(bad.sum())
        newly = sel & ~np.isfinite(r)
        r[newly] = point
    if better_is_smaller:
        viol += int((dominates & (r[:, None] > r[None, :])).sum())
    else:
        viol += int((dominates & (r[:, None] < r[None, :])).sum())
    return viol


def test_criterion_7_agreeability():
    """No pair where one unit dominates another (larger x, smaller clfdr at
    every grid point) yet receives a worse r-value; both definitions, both
    the step-wise and fixed-cutoff procedures, 100 instances."""
    master = np.random.SeedSequence(707)
    total_viol = 0
    checked_pairs = 0
    m = 120
    for count, child in enumerate(master.spawn(100)):
        rng = np.random.default_rng(child)
        name = sorted(INSTANCE_FAMILIES)[count % len(INSTANCE_FAMILIES)]
        model = INSTANCE_FAMILIES[name]
        x, sigma, _, group = model.sample(rng, m)
        x_mc, s_mc, _, g_mc = model.sample(rng, 20000)
        alpha0, mu0_base = 0.1, 0.0

        def clfdr_at(mu0):
            return model.clfdr(x, sigma, group, mu0)

        # Definition by varying the level, clfdr fixed.
        cl = clfdr_at(mu0_base)
        cl_mc = model.clfdr(x_mc, s_mc, g_mc, mu0_base)
        dom_fixed = (x[:, None] > x[None, :]) & (cl[:, None] < cl[None, :])
        checked_pairs += int(dom_fixed.sum())
        agrid = default_alpha_grid(40)
        dd_sel, or_sel = [], []
        for a in agrid:
            a = float(a)
            dd_sel.append(select_dd(x, cl, a, mu0_base).decisions.astype(bool))
            pair = calibrate_thresholds(select_dd(x_mc, cl_mc, a, mu0_base))
            or_sel.append(select_oracle(x, cl, pair, a, mu0_base).astype(bool))
        total_viol += _agreeability_violations(x, dd_sel, dom_fixed, agrid, True)
        total_viol += _agreeability_violations(x, or_sel, dom_fixed, agrid, True)

        # Definition by varying the reference level at fixed alpha;
        # dominance must hold at every grid point evaluated.
        mgrid = default_mu0_grid(x, 40)
        cl_path = np.stack([clfdr_at(float(v)) for v in mgrid])
        dom_path = (x[:, None] > x[None, :]) & np.all(
            cl_path[:, :, None] < cl_path[:, None, :], axis=0
        )
        checked_pairs += int(dom_path.sum())
        dd_sel, or_sel = [], []
        for i, v in enumerate(mgrid):
            v = float(v)
            dd_sel.append(select_dd(x, cl_path[i], alpha0, v).decisions.astype(bool))
            pair = calibrate_thresholds(
                select_dd(x_mc, model.clfdr(x_mc, s_mc, g_mc, v), alpha0, v)
            )
            or_sel.append(select_oracle(x, cl_path[i], pair, alpha0, v).astype(bool))
        total_viol += _agreeability_violations(x, dd_sel, dom_path, mgrid, False)
        total_viol += _agreeability_violations(x, or_sel, dom_path, mgrid, False)
    _report(
        "criterion 7 agreeability",
        total_viol == 0,
        f"{checked_pairs} dominating pairs checked, {total_viol} violations",
    )


def test_criterion_8_pcer_reduction():
    """With the per-comparison rule and a grid containing every p-value,
    the r-values equal the p-values exactly."""
    rng = np.random.default_rng(808)
    x = rng.normal(size=300, scale=2)
    sigma = rng.uniform(0.5, 3.0, 300)
    from hetsel import zvalue_pvalue

    _, p = zvalue_pvalue(x, sigma, 0.0)
    grid = np.unique(np.concatenate([p, np.geomspace(1e-5, 0.999, 50)]))
    grid = grid[(grid > 0) & (grid < 1)]
    table = rvalue_vary_alpha(300, lambda a: p <= a, grid)
    r = table.r
    exact = np.array_equal(r, p)
    _report(
        "criterion 8 p-value reduction",
        exact,
        f"max |r - p| = {np.max(np.abs(r - p)):.1e}" if not exact else "exact equality",
    )


def test_criterion_9_baseline_exactness():
    """Both step-up baselines match independent loop implementations on
    1000 random small inputs, exactly."""
    rng = np.random.default_rng(909)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        alpha = float(rng.uniform(0.01, 0.6))
        p = np.round(rng.random(n), int(rng.integers(1, 5)))
        cl = np.round(rng.random(n), int(rng.integers(1, 5)))
        if select_bh(p, alpha).tolist() != stepup_bh_reference(p.tolist(), alpha):
            mismatches += 1
        if select_clfdr_stepup(cl, alpha).tolist() != stepup_clfdr_reference(
            cl.tolist(), alpha
        ):
            mismatches += 1
    _report(
        "criterion 9 baseline exactness",
        mismatches == 0,
        f"1000 instances, {mismatches} mismatches",
    )
