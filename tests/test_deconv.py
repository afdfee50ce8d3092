import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from conftest import (
    INSTANCE_FAMILIES,
    clfdr_linear,
    kernel_marginal,
    kernel_marginals_exact,
    fitted_prior_from_json,
    oracle_clfdr_scipy,
    point_masses,
)
from hetsel import (
    BandwidthPair,
    CorrelatedTwoGroup,
    FittedPrior,
    PriorGrid,
    SimDesign,
    TruePrior,
    TwoComponent,
    UniformIndep,
    build_grid,
    clfdr_by_group,
    fit_prior,
    fit_prior_by_group,
    fit_weights,
    generate,
    joint_model,
    kernel_marginals,
    oracle_clfdr,
    silverman_bandwidths,
)
from hetsel.cli import _prior_fit
from hetsel.deconv import (
    _FAR_Z2,
    _ORACLE_BLOCK_UNITS,
    _clfdr_table,
    _design_matrix,
    _far_exponents,
    _log_add_into,
    _quantiles,
)


def assert_simplex_kkt(grid, x, sigma, marginals, w, rtol=1e-8):
    """Optimality of w for min ||A w - b||^2 on the simplex, from scratch:
    the gradient g = 2 A'(A w - b) is equal on the support of w and no
    smaller off it, both to rtol relative to max |g|."""
    A = _design_matrix(grid, x, sigma)
    g = 2.0 * A.T @ (A @ w - marginals)
    tol = rtol * np.abs(g).max()
    on = w > 0
    assert np.ptp(g[on]) <= tol
    assert np.all(g[~on] >= g[on].max() - tol)


# Largest relative error of the binned kernel_marginals against the exact
# pairwise sum that the tests accept.
KERNEL_RTOL = 1e-3


def _benchmark_like(m, seed):
    """The benchmark's design: mu from 0.8 U(-3, -1) + 0.2 U(1, 2),
    sigma ~ U(0.5, 3), x = mu + sigma N(0, 1)."""
    x, sigma, _, _ = INSTANCE_FAMILIES["two-interval"].sample(np.random.default_rng(seed), m)
    return x, sigma


def _with_bandwidths(x, sigma):
    return x, sigma, silverman_bandwidths(x, sigma)


def _simulation_case(family, mu0, pooled):
    rep = generate(SimDesign(family, mu0, 0.1, 1, 21), 0)
    mask = np.ones(rep.x.size, dtype=bool) if pooled else rep.group_ids == 1
    return _with_bandwidths(rep.x[mask], rep.sigma[mask])


def _heavy_tailed():
    rng = np.random.default_rng(12)
    sigma = rng.uniform(0.5, 3.0, 5000)
    return _with_bandwidths(rng.uniform(-3.0, 2.0, 5000) + sigma * rng.standard_t(3, 5000), sigma)


def _tied_x():
    x, sigma = _benchmark_like(2000, seed=13)
    x[:30] = x[30]
    return _with_bandwidths(x, sigma)


def _sigma_spike(m=4000):
    """80% of sigma within 1e-9 of 1.0, the rest U(0.5, 3): h_sigma is about
    1e-10, so the occupied sigma rows are thousands, most far apart."""
    rng = np.random.default_rng(5)
    sigma = rng.uniform(0.5, 3.0, m)
    spike = rng.random(m) < 0.8
    sigma[spike] = 1.0 + rng.uniform(-1e-9, 1e-9, int(spike.sum()))
    return _with_bandwidths(rng.uniform(-3.0, 2.0, m) + sigma * rng.standard_normal(m), sigma)


def _sigma_from_001():
    """sigma ~ U(0.01, 3): near 0.01 a step of h_sigma / 4 would be larger
    than sigma itself."""
    rng = np.random.default_rng(6)
    sigma = rng.uniform(0.01, 3.0, 4000)
    return _with_bandwidths(rng.uniform(-3.0, 2.0, 4000) + sigma * rng.standard_normal(4000), sigma)


def _one_tiny_sigma():
    """One unit at sigma = 0.001 among sigma ~ U(0.5, 3)."""
    x, sigma = _benchmark_like(4000, seed=14)
    sigma[7] = 0.001
    return _with_bandwidths(x, sigma)


def _few(m):
    x = np.array([0.4, -1.1, 2.3])[:m]
    sigma = np.array([1.5, 0.6, 2.7])[:m]
    return x, sigma, BandwidthPair(h_x=0.3, h_sigma=0.2)


KERNEL_CASES = {
    "benchmark-uniform-sigma": lambda: _with_bandwidths(*_benchmark_like(10_000, seed=1)),
    "two-component-pooled": lambda: _simulation_case(TwoComponent(4.0, 5000), 6.0, True),
    "two-component-group": lambda: _simulation_case(TwoComponent(4.0, 5000), 6.0, False),
    "correlated-pooled": lambda: _simulation_case(CorrelatedTwoGroup(1.0, 5000), 1.0, True),
    "correlated-group": lambda: _simulation_case(CorrelatedTwoGroup(1.0, 5000), 1.0, False),
    "t3-heavy-tails": _heavy_tailed,
    "30-tied-x": _tied_x,
    "sigma-spike-at-1": _sigma_spike,
    "sigma-from-0.01": _sigma_from_001,
    "one-sigma-0.001": _one_tiny_sigma,
    "m1": lambda: _few(1),
    "m2": lambda: _few(2),
    "m3": lambda: _few(3),
}


class TestBuildGrid:
    def test_quantile_convention_two_nodes(self):
        xs = np.arange(101.0)
        grid = build_grid(xs, k=2)
        assert_allclose(grid.nodes, [1.0, 99.0], rtol=0, atol=0)

    def test_default_fifty_nodes(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=400)
        grid = build_grid(xs, k=50)
        lo, hi = np.quantile(xs, [0.01, 0.99])
        assert grid.k == 50
        assert_allclose(grid.eta, (hi - lo) / 49)
        assert_allclose(grid.nodes[0], lo)
        assert_allclose(grid.nodes[-1], hi)

    def test_degenerate_support(self):
        with pytest.raises(ValueError):
            build_grid(np.full(10, 3.0), k=5)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            build_grid(np.arange(10.0), k=1)
        with pytest.raises(ValueError):
            PriorGrid(left=0.0, eta=1.0, k=1)


QUANTILE_SAMPLES = {
    "n1": [2.5],
    "n1-negative-zero": [-0.0],
    "n2": [3.0, -1.0],
    "n2-signed-zeros": [0.0, -0.0],
    "ties": [1.0, 2.0, 2.0, 2.0, 3.0, 3.0],
    "signed-zero-ties": [-0.0, 0.0, -0.0, 0.0, 0.5, -1.0, 0.0, -0.0],
    "nan": [1.0, float("nan"), 2.0],
    "normal-101": np.random.default_rng(9).standard_normal(101).tolist(),
}


@pytest.mark.parametrize("qs", [[0.0, 1.0], [0.01, 0.99], [0.25, 0.75], [0.5], [1.0], [0.3, 0.7]])
@pytest.mark.parametrize("name", sorted(QUANTILE_SAMPLES))
def test_quantiles_match_numpy_bit_for_bit(name, qs):
    values = np.array(QUANTILE_SAMPLES[name])
    with np.errstate(invalid="ignore"):
        want = np.quantile(values, qs)
        got = _quantiles(values, qs)
    assert got.tobytes() == want.tobytes()


class TestSilvermanBandwidths:
    def test_hand_value(self):
        # 16 symmetric pairs: m = 32, sample sd exactly 1.34, IQR larger.
        a = 1.34 * math.sqrt(31.0 / 32.0)
        xs = np.array([-a, a] * 16)
        sig = np.linspace(1.0, 2.0, 32)
        bw = silverman_bandwidths(xs, sig)
        assert_allclose(bw.h_x, 0.45, rtol=0, atol=1e-12)

    def test_formula_reference(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(1000)
        sig = rng.uniform(0.5, 2.0, 1000)
        bw = silverman_bandwidths(xs, sig)

        def reference(v):
            spread = min(
                np.std(v, ddof=1), np.quantile(v, 0.75) - np.quantile(v, 0.25)
            )
            return 0.9 * spread / (1.34 * len(v) ** 0.2)

        assert_allclose(bw.h_x, reference(xs), rtol=0, atol=1e-12)
        assert_allclose(bw.h_sigma, reference(sig), rtol=0, atol=1e-12)

    def test_zero_spread_rejected(self):
        # Constant sigma gets the documented placeholder bandwidth; constant
        # x has no rule-of-thumb bandwidth and is rejected.
        xs = np.arange(10.0)
        bw = silverman_bandwidths(xs, np.full(10, 2.0))
        assert bw.h_sigma == 1.0
        with pytest.raises(ValueError, match="zero spread in xs"):
            silverman_bandwidths(np.full(10, 2.0), np.linspace(1.0, 2.0, 10))

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            silverman_bandwidths([1.0], [1.0])

    def test_zero_iqr_falls_back_to_sd(self):
        xs = np.array([0.5] * 30 + [-1.0, 2.0])
        bw = silverman_bandwidths(xs, np.linspace(1.0, 2.0, 32))
        assert_allclose(bw.h_x, 0.9 * np.std(xs, ddof=1) / (1.34 * 32 ** 0.2), rtol=1e-15)


class TestKernelMarginals:
    def test_single_point_self_kernel(self):
        bw = BandwidthPair(h_x=0.7, h_sigma=1.0)
        got = kernel_marginal(0, [2.0], [1.5], bw)
        assert_allclose(got, 1.0 / (math.sqrt(2 * math.pi) * 0.7 * 1.5))

    def test_equal_sigmas_reduce_to_plain_kde(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=40)
        sig = np.full(40, 1.3)
        bw = BandwidthPair(h_x=0.4, h_sigma=0.9)
        h = 0.4 * 1.3
        expected = np.array(
            [np.mean(norm.pdf(x0, loc=xs, scale=h)) for x0 in xs]
        )
        assert_allclose(kernel_marginals_exact(xs, sig, bw), expected, rtol=1e-12)
        assert_allclose(kernel_marginals(xs, sig, bw), expected, rtol=KERNEL_RTOL)

    def test_symmetric_pair_contributes_equally(self):
        bw = BandwidthPair(h_x=0.5, h_sigma=0.8)
        xs = np.array([0.0, -1.2, 1.2])
        sig = np.full(3, 1.0)
        got = kernel_marginal(0, xs, sig, bw)
        self_term = norm.pdf(0.0, scale=0.5)
        side_term = norm.pdf(1.2, scale=0.5)
        assert_allclose(got, (self_term + 2 * side_term) / 3)

    def test_matches_vectorized(self):
        # m = 700 splits into row blocks of unequal size.
        rng = np.random.default_rng(4)
        xs = rng.normal(size=700)
        sig = rng.uniform(0.5, 2.0, 700)
        bw = BandwidthPair(h_x=0.3, h_sigma=0.2)
        full = kernel_marginals_exact(xs, sig, bw)
        each = [kernel_marginal(i, xs, sig, bw) for i in range(700)]
        assert_allclose(full, each, rtol=1e-12)
        assert np.all(full > 0)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_binned_matches_exact(self, case):
        xs, sig, bw = KERNEL_CASES[case]()
        got = kernel_marginals(xs, sig, bw)
        assert np.all(got > 0)
        assert_allclose(got, kernel_marginals_exact(xs, sig, bw), rtol=KERNEL_RTOL, atol=0)

    @pytest.mark.parametrize(
        "where, value", [("x", 1e6), ("x", 1e18), ("sigma", 1e3), ("sigma", 1e-3)]
    )
    def test_far_outlier_costs_no_range(self, where, value):
        # One unit at x = 1e6 or sigma = 1e3: a grid spanning the range
        # would need about 1e10 cells, the binned grids do not. At
        # x = 1e18 one x node spacing is below the unit's float spacing;
        # at sigma = 1e-3 its x bandwidth is 500 times narrower than the
        # others'.
        xs, sig = _benchmark_like(10_000, seed=11)
        (xs if where == "x" else sig)[17] = value
        bw = silverman_bandwidths(xs, sig)
        start = time.perf_counter()
        got = kernel_marginals(xs, sig, bw)
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            kernel_marginals(xs, sig, bw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert np.all(got > 0)
        assert_allclose(got, kernel_marginals_exact(xs, sig, bw), rtol=KERNEL_RTOL, atol=0)

    @pytest.mark.parametrize(
        "x, sigma", [([0.0, np.nan], [1.0, 1.0]), ([0.0, 1.0], [1.0, np.inf]), ([0.0, 1.0], [1.0, 0.0])]
    )
    def test_rejects_non_finite_input(self, x, sigma):
        with pytest.raises(ValueError, match="finite"):
            kernel_marginals(np.array(x), np.array(sigma), BandwidthPair(h_x=0.3, h_sigma=0.2))

    def test_peak_memory_stays_small(self):
        # The temporaries are cache-sized blocks, not m x m or 1024 x m.
        rng = np.random.default_rng(8)
        xs = rng.normal(size=5000)
        sig = rng.uniform(0.5, 3.0, 5000)
        tracemalloc.start()
        try:
            kernel_marginals(xs, sig, BandwidthPair(h_x=0.3, h_sigma=0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestFitWeights:
    def test_mass_concentration_with_lattice_oracle(self):
        grid = PriorGrid(left=-2.0, eta=1.0, k=5)
        m = 60
        xs = np.zeros(m)
        sig = np.ones(m)
        target = np.full(m, norm.pdf(0.0))
        fit = fit_weights(grid, xs, sig, target)
        assert fit.weights[2] >= 0.9

        # Brute force over the coarse simplex lattice with step 0.1.
        A = _design_matrix(grid, xs, sig)
        best_obj, best_w = np.inf, None
        for i in range(11):
            for j in range(11 - i):
                for k_ in range(11 - i - j):
                    for l_ in range(11 - i - j - k_):
                        w = np.array([i, j, k_, l_, 10 - i - j - k_ - l_]) / 10.0
                        obj = float(np.sum((A @ w - target) ** 2))
                        if obj < best_obj:
                            best_obj, best_w = obj, w
        assert best_w[2] >= 0.9
        assert fit.objective <= best_obj + 1e-12

    def test_beats_uniform_weights(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=200)
        sig = rng.uniform(0.5, 2.0, 200)
        bw = silverman_bandwidths(xs, sig)
        grid = build_grid(xs, 20)
        marg = kernel_marginals(xs, sig, bw)
        fit = fit_weights(grid, xs, sig, marg)
        A = _design_matrix(grid, xs, sig)
        uniform = np.full(20, 1 / 20)
        assert fit.objective <= float(np.sum((A @ uniform - marg) ** 2)) + 1e-12

    def test_simplex_feasibility_exact(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(size=150)
        sig = rng.uniform(0.5, 2.0, 150)
        fit = fit_prior(xs, sig, k=15)
        assert np.all(fit.weights >= 0)
        assert abs(fit.weights.sum() - 1.0) <= 1e-9

    def test_stationarity_on_well_conditioned_instance(self):
        grid = PriorGrid(left=-2.0, eta=2.0, k=3)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=80)
        sig = np.ones(80)
        marg = kernel_marginals(xs, sig, BandwidthPair(0.5, 1.0))
        fit = fit_weights(grid, xs, sig, marg)
        assert_simplex_kkt(grid, xs, sig, marg, fit.weights)
        assert fit.kkt_gap <= 1e-8

    @pytest.mark.parametrize(
        "family, mu0",
        [
            (TwoComponent(sigma2=4.0, m=2000), 6.0),
            (UniformIndep(sigma_max=3.0, m=2000), 0.0),
            (CorrelatedTwoGroup(sigma=1.0, m=2000), 1.0),
        ],
    )
    def test_kkt_on_simulation_designs(self, family, mu0):
        rep = generate(SimDesign(family, mu0, 0.1, 1, 21), 0)
        mask = rep.group_ids == rep.group_ids.max()
        xs, sig = rep.x[mask], rep.sigma[mask]
        fit = fit_prior(xs, sig)
        marg = kernel_marginals(xs, sig, fit.bandwidths)
        assert_simplex_kkt(fit.grid, xs, sig, marg, fit.weights)
        assert fit.kkt_gap <= 1e-8

    def test_fit_that_hit_the_old_iteration_cap(self):
        # Correlated design (sigma 1, m = 10000), seed key (51976702, 0, 3),
        # group 1: the former projected-gradient solver stopped at its
        # iteration cap with objective 1.4540014838e-02 and aborted the
        # whole study. The units are redrawn as the simulation drew them
        # then (uniform group labels, then each group's effects, then the
        # noise), because the bound below holds for that data set only.
        m = 10000
        rng = np.random.default_rng(np.random.SeedSequence((51976702, 0, 3)))
        group_ids = (rng.random(m) < 0.5).astype(int)
        sigma = np.where(group_ids == 0, 0.25, 1.25)
        mu = np.empty(m)
        for g, prior in enumerate(joint_model(CorrelatedTwoGroup(1.0, m)).priors):
            mask = group_ids == g
            mu[mask] = prior.sample(rng, int(mask.sum()))
        x = mu + sigma * rng.standard_normal(m)
        mask = group_ids == 1
        xs, sig = x[mask], sigma[mask]
        fit = fit_prior(xs, sig)
        assert fit.objective <= 1.4540014838e-02
        marg = kernel_marginals(xs, sig, fit.bandwidths)
        assert_simplex_kkt(fit.grid, xs, sig, marg, fit.weights)

    def test_bad_marginals(self):
        grid = PriorGrid(left=0.0, eta=1.0, k=3)
        with pytest.raises(ValueError):
            fit_weights(grid, [0.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            fit_weights(grid, [0.0, 1.0], [1.0, 1.0], [0.5])


class TestClfdrFromFit:
    """``clfdr_by_group`` under one fitted prior."""

    def _fit(self, nodes, weights):
        grid = PriorGrid(left=nodes[0], eta=nodes[1] - nodes[0], k=len(nodes))
        return FittedPrior(grid=grid, weights=np.asarray(weights), objective=0.0, kkt_gap=0.0)

    def test_all_nodes_null(self):
        fit = self._fit([-3.0, -2.0, -1.0], [0.2, 0.5, 0.3])
        assert clfdr_by_group({0: fit}, [0], [0.3], [1.0], 0.0)[0] == 1.0

    def test_no_nodes_null(self):
        fit = self._fit([1.0, 2.0, 3.0], [0.2, 0.5, 0.3])
        assert clfdr_by_group({0: fit}, [0], [0.3], [1.0], 0.0)[0] == 0.0

    def test_symmetric_half(self):
        fit = self._fit([-1.0, 1.0], [0.5, 0.5])
        assert_allclose(clfdr_by_group({0: fit}, [0], [0.0], [1.0], 0.0)[0], 0.5)

    def test_bounded_random(self):
        rng = np.random.default_rng(12)
        fit = self._fit(np.linspace(-4, 4, 9).tolist(), rng.dirichlet(np.ones(9)))
        x, sigma = rng.normal(size=100, scale=5), rng.uniform(0.3, 3, 100)
        vals = clfdr_by_group({0: fit}, np.zeros(100), x, sigma, 0.4)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_matches_linear_space_in_bulk(self):
        model = INSTANCE_FAMILIES["two-interval"]
        x, sigma, _, _ = model.sample(np.random.default_rng(18), 3000)
        fit = fit_prior(x, sigma)
        for mu0 in (-2.5, -1.0, 0.0, 0.7, 1.9):
            assert_allclose(
                clfdr_by_group({0: fit}, np.zeros(x.size), x, sigma, mu0),
                clfdr_linear(fit, x, sigma, mu0),
                rtol=0,
                atol=1e-14,
            )

    def test_far_left_outlier_is_null(self):
        # Both densities underflow at x = -40, sigma = 0.5; the ratio of the
        # two underflowed sums read 0, making the outlier free budget.
        rng = np.random.default_rng(19)
        fit = self._fit(np.linspace(-4.0, 2.6, 50).tolist(), rng.dirichlet(np.ones(50)))
        got = clfdr_by_group({0: fit}, [0], [-40.0], [0.5], 0.0)[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_tails(self, seed):
        # Far left the null nodes dominate, far right the non-null ones. With
        # node spacing >= 0.2 and sigma <= 3, the other side weighs less
        # than exp(-60) at |x| = 1e3 sigma. From |x| = 1e17 sigma on, z^2 no
        # longer resolves the nodes (and overflows past about 1.3e154
        # sigma); the posterior is a point mass there, and so it is at a
        # sigma of 1e-160 near any node: the clfdr is exactly its limit.
        rng = np.random.default_rng(20 + seed)
        eta = rng.uniform(0.2, 1.0)
        nodes = (rng.uniform(-5, 5) + eta * np.arange(rng.integers(2, 60))).tolist()
        fit = self._fit(nodes, rng.dirichlet(np.ones(len(nodes))))
        mu0 = float(rng.uniform(nodes[0], nodes[-1]))
        sigma = rng.uniform(0.1, 3.0, 20)
        zeros = np.zeros(sigma.size)
        assert_allclose(clfdr_by_group({0: fit}, zeros, -1e3 * sigma, sigma, mu0), 1.0,
                        rtol=0, atol=1e-10)
        assert_allclose(clfdr_by_group({0: fit}, zeros, 1e3 * sigma, sigma, mu0), 0.0,
                        rtol=0, atol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for far in (1e17, 1e300):
                assert np.all(clfdr_by_group({0: fit}, zeros, -far * sigma, sigma, mu0) == 1.0)
                assert np.all(clfdr_by_group({0: fit}, zeros, far * sigma, sigma, mu0) == 0.0)
            near = np.asarray(nodes) + rng.uniform(-0.4, 0.4, len(nodes)) * eta
            tiny = np.full(near.size, 1e-160)
            got = clfdr_by_group({0: fit}, np.zeros(near.size), near, tiny, mu0)
            assert got.tolist() == (np.asarray(nodes) <= mu0).astype(float).tolist()
            got = clfdr_by_group({0: fit}, [0, 0], [-1e300, 1e300], [1e-160, 1e-160], mu0)
            assert got.tolist() == [1.0, 0.0]


def _accumulated_table(fit, x, sigma):
    """The k x m prefix table exp(L_j - L_last) built in whole-array passes,
    with one np.logaddexp.accumulate over the nodes."""
    nodes = fit.grid.nodes
    with np.errstate(divide="ignore"):
        log_w = np.log(fit.weights)
    with np.errstate(over="ignore"):
        z = np.square((x[None, :] - nodes[:, None]) / sigma[None, :])
    far = np.flatnonzero((z[0] >= _FAR_Z2) | (z[-1] >= _FAR_Z2))
    z = -0.5 * z + log_w[:, None]
    if far.size:
        z[:, far] = _far_exponents(nodes, log_w, x[far], sigma[far])
    L = np.logaddexp.accumulate(z, axis=0)
    return np.exp(L - L[-1])


class TestStreamedClfdr:
    """``clfdr_by_group`` walks the nodes once per group and keeps one row;
    ``_clfdr_table`` stacks the rows of the same walk. Both must give the
    whole-array prefix table's values bit for bit."""

    def _case(self):
        rng = np.random.default_rng(31)
        fits, xs, sigmas, groups = {}, [], [], []
        for g, (left, eta, k) in enumerate(((-3.0, 0.25, 30), (-1.7, 0.4, 17))):
            weights = rng.dirichlet(np.ones(k))
            weights[[3, k - 4]] = 0.0  # zero-weight nodes have log w = -inf
            grid = PriorGrid(left=left, eta=eta, k=k)
            fits[g] = FittedPrior(grid=grid, weights=weights / weights.sum(),
                                  objective=0.0, kkt_gap=0.0)
            nodes = grid.nodes
            x = np.concatenate([
                rng.normal(0.5, 2.0, 200),
                [1e17, -1e17, 1e300, -1e300],
                (nodes[:-1] + nodes[1:]) / 2,  # midway between nodes...
            ])
            sigma = np.concatenate([
                rng.uniform(0.2, 3.0, 200),
                np.ones(4),
                np.full(k - 1, 5e-324),  # ...at the smallest sigma
            ])
            xs.append(x)
            sigmas.append(sigma)
            groups.append(np.full(x.size, g))
        # Interleave the groups' units.
        order = rng.permutation(sum(x.size for x in xs))
        return (fits, np.concatenate(groups)[order], np.concatenate(xs)[order],
                np.concatenate(sigmas)[order])

    def test_every_mu0_place(self):
        fits, groups, x, sigma = self._case()
        n0, n1 = fits[0].grid.nodes, fits[1].grid.nodes
        mu0s = [
            n0[0] - 1.0,  # below the first node of both groups
            float(n1[0]),  # on group 1's first node, between two of group 0's
            float(n0[0]),  # on group 0's first node, below group 1's
            float(n0[7]),  # on a node
            float(n1[5]),
            (n0[10] + n0[11]) / 2,  # between two nodes
            float(n0[-1]),  # on the last node
            float(n1[-1]),
            n0[-1] + 5.0,  # above the last node of both groups
        ]
        table = _clfdr_table(fits, groups, x, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu0 in mu0s:
                got = clfdr_by_group(fits, groups, x, sigma, mu0)
                assert np.array_equal(got, table(mu0)), mu0
        for g, fit in fits.items():
            idx = np.flatnonzero(groups == g)
            ref = _accumulated_table(fit, x[idx], sigma[idx])
            for mu0 in mu0s:
                j = int(np.searchsorted(fit.grid.nodes, mu0, side="right")) - 1
                want = ref[j] if j >= 0 else np.zeros(idx.size)
                assert np.array_equal(table(mu0)[idx], want), (g, mu0)

    def test_far_units_take_their_limits(self):
        fits, groups, x, sigma = self._case()
        got = clfdr_by_group(fits, groups, x, sigma, 0.0)
        assert np.all(got[x == 1e300] == 0.0) and np.all(got[x == -1e300] == 1.0)
        assert np.all(got[x == 1e17] == 0.0) and np.all(got[x == -1e17] == 1.0)
        assert np.all((got >= 0.0) & (got <= 1.0))


class TestOracleClfdr:
    def test_point_mass_symmetry(self):
        prior = point_masses([-1.0, 1.0], [0.5, 0.5])
        assert_allclose(oracle_clfdr(prior, 0.0, 1.0, 0.0), 0.5)

    def test_point_mass_hand_value(self):
        prior = point_masses([-1.0, 1.0], [0.5, 0.5])
        expected = math.exp(-2) / (1 + math.exp(-2))
        assert_allclose(oracle_clfdr(prior, 1.0, 1.0, 0.0), expected, rtol=1e-12)

    def test_uniform_tail_domination(self):
        prior = TruePrior.uniform_mixture([(0.8, -3, -1), (0.2, 1, 2)])
        for x in (6.0, 8.0, 12.0):
            assert oracle_clfdr(prior, x, 1.0, 0.0) < 1e-4

    def test_uniform_against_quadrature(self):
        pieces = [(0.6, -2.0, -0.5), (0.4, 0.5, 2.5)]
        prior = TruePrior.uniform_mixture(pieces)
        mu0, sigma = 0.3, 0.9

        def piecewise_mass(x, upper=None):
            # Integrate each smooth piece separately so quad is accurate.
            total = 0.0
            for w, lo, hi in pieces:
                top = hi if upper is None else min(hi, upper)
                if top <= lo:
                    continue
                val, _ = quad(
                    lambda mu: norm.pdf(x - mu, scale=sigma) * w / (hi - lo), lo, top
                )
                total += val
            return total

        for x in (-1.0, 0.2, 1.7):
            full = piecewise_mass(x)
            null = piecewise_mass(x, upper=mu0)
            assert_allclose(oracle_clfdr(prior, x, sigma, mu0), null / full, rtol=1e-9)

    def test_normal_against_quadrature(self):
        prior = TruePrior.normal_mixture([(0.7, -0.5, 0.4), (0.3, 1.8, 0.6)])
        mu0, sigma = 0.5, 1.1

        def g(mu):
            return 0.7 * norm.pdf(mu, -0.5, 0.4) + 0.3 * norm.pdf(mu, 1.8, 0.6)

        for x in (-1.2, 0.4, 2.5):
            full, _ = quad(lambda mu: norm.pdf(x - mu, scale=sigma) * g(mu), -8, 8, limit=200)
            null, _ = quad(lambda mu: norm.pdf(x - mu, scale=sigma) * g(mu), -8, mu0, limit=200)
            assert_allclose(oracle_clfdr(prior, x, sigma, mu0), null / full, rtol=1e-9)

    def test_matches_fitted_prior_on_point_masses(self):
        locs = [-1.5, -0.5, 0.5, 1.5]
        weights = [0.1, 0.4, 0.3, 0.2]
        prior = point_masses(locs, weights)
        grid = PriorGrid(left=-1.5, eta=1.0, k=4)
        fit = FittedPrior(grid=grid, weights=np.array(weights), objective=0.0, kkt_gap=0.0)
        rng = np.random.default_rng(13)
        xs = rng.normal(size=50, scale=2)
        sig = rng.uniform(0.4, 2.5, 50)
        assert_allclose(
            oracle_clfdr(prior, xs, sig, 0.2),
            clfdr_by_group({0: fit}, np.zeros(xs.size), xs, sig, 0.2),
            rtol=0,
            atol=1e-12,
        )

    def test_bounded_random(self):
        from hetsel import NormalComponent, PointMass, UniformInterval

        rng = np.random.default_rng(14)
        prior = TruePrior(
            (0.25, 0.35, 0.4),
            (PointMass(-1.0), UniformInterval(-0.5, 1.0), NormalComponent(2.0, 0.7)),
        )
        vals = oracle_clfdr(prior, rng.normal(size=200, scale=4), rng.uniform(0.3, 3, 200), 0.1)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_point_masses_far_left_outlier(self):
        # Both densities underflow at x = -60; the ratio of the sums read 0.
        prior = point_masses([-1.0, 1.0], [0.5, 0.5])
        assert oracle_clfdr(prior, -60.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", sorted(INSTANCE_FAMILIES))
    def test_tails(self, family):
        # Every family has null and non-null mass at mu0 = 0.
        sigma = np.random.default_rng(22).uniform(0.1, 5.0, 20)
        for prior in INSTANCE_FAMILIES[family].priors:
            left = oracle_clfdr(prior, -1e3 * sigma, sigma, 0.0)
            right = oracle_clfdr(prior, 1e3 * sigma, sigma, 0.0)
            assert_allclose(left, 1.0, rtol=0, atol=1e-10)
            assert_allclose(right, 0.0, rtol=0, atol=1e-10)


SIM_FAMILIES = {
    "two-component": TwoComponent(sigma2=4.0),
    "uniform": UniformIndep(sigma_max=3.0),
    "correlated": CorrelatedTwoGroup(sigma=1.0),
}


MONOTONE_PRIORS = [
    (f"{name}[{g}]", prior)
    for name, model in sorted(INSTANCE_FAMILIES.items())
    for g, prior in enumerate(model.priors)
] + [
    (f"{name}-design[{g}]", prior)
    for name, family in sorted(SIM_FAMILIES.items())
    for g, prior in enumerate(joint_model(family).priors)
]


@pytest.mark.parametrize("label, prior", MONOTONE_PRIORS, ids=[k for k, _ in MONOTONE_PRIORS])
def test_oracle_clfdr_non_increasing_in_x(label, prior):
    # Monotone likelihood ratio of the normal location family: at fixed
    # sigma the clfdr never rises with x, which the root-finding of
    # oracle_thresholds relies on. Checked out to 1e3 sigma on a grid with
    # no near-duplicate points, up to a rounding rise of 4 ulps.
    for mu0 in (-1.0, 0.0, 1.0, 6.0):
        for sigma in (0.05, 0.3, 1.0, 2.5, 10.0):
            far = np.geomspace(10.0, 1e3 * sigma, 2000)[1:]
            x = np.concatenate([-far[::-1], np.linspace(-10.0, 10.0, 8001), far])
            clfdr = oracle_clfdr(prior, x, sigma, mu0)
            rise = np.diff(clfdr) - 4 * np.finfo(float).eps * clfdr[:-1]
            assert np.all(rise <= 0.0), (label, mu0, sigma)


class TestOracleAgainstScipy:
    @pytest.mark.parametrize("mu0", [-1.0, 0.0, 1.0, 6.0])
    @pytest.mark.parametrize("name", sorted(SIM_FAMILIES))
    def test_matches_scipy_reference(self, name, mu0):
        family = SIM_FAMILIES[name]
        model = joint_model(family)
        x, sigma, _, _ = model.sample(np.random.default_rng(31), family.m)
        # The far-left outliers whose densities both underflow in linear space.
        x = np.concatenate([x, [-40.0, -60.0]])
        sigma = np.concatenate([sigma, sigma[:2]])
        for prior in model.priors:
            got = oracle_clfdr(prior, x, sigma, mu0)
            ref = oracle_clfdr_scipy(prior, x, sigma, mu0)
            # A clfdr of 1e-58 is exp of a log ratio near -133, which one ulp
            # of either log mass moves by a relative 3e-14; below 1e-16 the
            # logs are compared instead.
            bulk = ref >= 1e-16
            assert_allclose(got[bulk], ref[bulk], rtol=1e-13, atol=0)
            assert_allclose(np.log(got[~bulk]), np.log(ref[~bulk]), rtol=1e-14, atol=0)

    def test_blocked_joint_clfdr_equals_unblocked(self):
        model = joint_model(SIM_FAMILIES["correlated"])
        m = _ORACLE_BLOCK_UNITS + 3
        x, sigma, _, group = model.sample(np.random.default_rng(32), m)
        # The last block holds group 0 only, so group 1 is absent from it.
        group[-3:] = 0
        sigma[-3:] = model.sigma_laws[0].value
        got = model.clfdr(x, sigma, group, 1.0)
        want = np.empty(m)
        for g, prior in enumerate(model.priors):
            mask = group == g
            want[mask] = oracle_clfdr(prior, x[mask], sigma[mask], 1.0)
        assert np.array_equal(got, want)

    def test_log_add_matches_numpy(self):
        rng = np.random.default_rng(33)
        a = np.concatenate([rng.normal(scale=300.0, size=1000), [-np.inf, -np.inf, 5.0, -np.inf]])
        b = np.concatenate([rng.normal(scale=300.0, size=1000), [-np.inf, 2.0, -np.inf, -800.0]])
        want = np.logaddexp(a, b)
        got = a.copy()
        _log_add_into(got, b.copy())
        assert_allclose(got, want, rtol=1e-15, atol=1e-15)


class TestFitPriorPipeline:
    def test_constant_sigma_group_is_fit(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=100)
        fit = fit_prior(xs, np.ones(100))
        assert fit.bandwidths is not None
        assert fit.bandwidths.h_sigma == 1.0

    def test_tied_observations_fit(self):
        xs = np.array([0.5] * 30 + [-1.0, 2.0])
        fit = fit_prior(xs, np.linspace(1.0, 2.0, 32))
        assert abs(fit.weights.sum() - 1.0) <= 1e-9

    def test_unfittable_group_is_named(self):
        xs = np.arange(6.0)
        sig = np.array([1.0, 1.1, 1.2, 1.3, 1.4, 2.5])
        groups = np.array([0, 0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match=r"fit group 1 \(1 units, sigma in \[2\.5, 2\.5\]\)"):
            fit_prior_by_group(xs, sig, groups, k=5)

    def test_grouped_fit(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=200)
        sig = np.where(np.arange(200) < 100, 1.0, 2.0)
        groups = (np.arange(200) >= 100).astype(int)
        fits = fit_prior_by_group(xs, sig, groups, k=10)
        assert set(fits) == {0, 1}

    @staticmethod
    def _benchmark_draw(seed, m):
        # perfbench/gen.py's draw: the benchmark's inputs for ``seed``.
        rng = np.random.default_rng(seed)
        piece = rng.choice(2, size=m, p=[0.8, 0.2])
        lows, highs = np.array([-3.0, 1.0])[piece], np.array([-1.0, 2.0])[piece]
        mu = lows + (highs - lows) * rng.random(m)
        sigma = rng.uniform(0.5, 3.0, size=m)
        return mu + sigma * rng.standard_normal(m), sigma

    @pytest.mark.parametrize("tiny", [1e-160, 1e-300])
    def test_overflowing_fit_is_named(self, tiny, capfd):
        # A unit with a tiny sigma has a marginal density near 1 / sigma,
        # whose square overflows H = C'C. The error names that before LAPACK
        # fails on H with "SVD did not converge" and prints to stderr.
        x, sigma = self._benchmark_draw(3, 2000)
        sigma[0] = tiny
        with pytest.raises(ValueError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_prior_by_group(x, sigma, np.zeros(x.size, dtype=int))
        message = str(info.value)
        assert message.startswith(f"fit group 0 (2000 units, sigma in [{tiny!r}, ")
        assert "the least-squares fit overflows" in message
        assert message.endswith(f"(the smallest sigma is {tiny!r})")
        err = capfd.readouterr().err
        assert "DLASCL" not in err and "illegal value" not in err

    def test_json_round_trip(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=100)
        sig = rng.uniform(0.5, 1.5, 100)
        fit = fit_prior(xs, sig, k=12)
        doc = _prior_fit(fit)
        back = fitted_prior_from_json(json.loads(json.dumps(doc)))
        assert back.grid == fit.grid
        np.testing.assert_array_equal(back.weights, fit.weights)
        assert back.objective == fit.objective
        assert back.kkt_gap == fit.kkt_gap
        assert back.bandwidths == fit.bandwidths
        old = dict(doc, schema="hetsel/prior-fit/v1")
        with pytest.raises(ValueError, match="hetsel/prior-fit/v1"):
            fitted_prior_from_json(old)
