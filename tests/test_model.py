import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfc, log_ndtr, ndtr
from scipy.stats import norm

from hetsel import MetricsRecord, etp_star, fdp, zvalue_pvalue
from hetsel.model import _erfc, _log_ndtr


class TestFdp:
    def test_one_false_among_two(self):
        assert fdp([1, 1, 0], [1, 0, 0]) == 0.5

    def test_empty_selection_denominator_forced(self):
        assert fdp([0, 0, 0], [1, 0, 1]) == 0.0

    def test_direct_count(self):
        assert fdp([1, 1, 1, 1], [1, 1, 0, 1]) == 0.25

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 30))
            d = rng.integers(0, 2, m)
            t = rng.integers(0, 2, m)
            perm = rng.permutation(m)
            assert fdp(d, t) == fdp(d[perm], t[perm])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fdp([1, 0], [1, 0, 0])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            fdp([1, 2], [1, 0])


class TestEtpStar:
    def test_single_selected_term(self):
        assert etp_star([1, 0], [3, 5], 1.0) == 2.0

    def test_two_terms(self):
        assert etp_star([1, 1], [3, 5], 1.0) == 6.0

    def test_below_reference_penalizes(self):
        assert etp_star([1], [0], 1.0) == -1.0

    def test_unselected_overflow_is_ignored(self):
        # x - mu0 overflows only for the unselected unit.
        assert etp_star([1, 0], [1.0, 1e308], -1e308) == 1e308

    def test_overflow_both_ways_is_rejected(self):
        x = np.repeat([1e308, -1e308], 128)
        assert etp_star(np.ones(128, dtype=int), x[:128], 0.0) == math.inf
        with pytest.raises(ValueError, match="gains sum to \\+inf and its losses to -inf"):
            etp_star(np.ones(256, dtype=int), x, 0.0)

    def test_additive_over_disjoint_selections(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = int(rng.integers(2, 40))
            x = rng.normal(size=m)
            picks = rng.integers(0, 3, m)
            d1 = (picks == 1).astype(int)
            d2 = (picks == 2).astype(int)
            assert_allclose(
                etp_star(d1 | d2, x, 0.3),
                etp_star(d1, x, 0.3) + etp_star(d2, x, 0.3),
                rtol=0,
                atol=1e-12,
            )


class TestZvaluePvalue:
    def test_symmetry_at_reference(self):
        assert zvalue_pvalue(0.0, 1.0, 0.0) == (0.0, 0.5)

    def test_inverse_cdf_oracle(self):
        z95 = norm.ppf(0.95)
        _, p = zvalue_pvalue(z95, 1.0, 0.0)
        assert_allclose(p, 0.05, rtol=0, atol=1e-12)
        _, p_spec = zvalue_pvalue(1.6449, 1.0, 0.0)
        assert abs(p_spec - 0.05) < 1e-4

    def test_phi_of_one(self):
        z, p = zvalue_pvalue(2.0, 2.0, 0.0)
        assert z == 1.0
        assert_allclose(p, 0.15865525393145707, rtol=0, atol=1e-12)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(-5, 8, 200)
        _, p = zvalue_pvalue(xs, 1.3, 0.5)
        assert np.all(np.diff(p) < 0)

    def test_vector_form(self):
        z, p = zvalue_pvalue(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.0)
        assert z.shape == p.shape == (2,)
        assert np.all((p > 0) & (p < 1))

    def test_matches_scipy_ndtr_in_both_tails(self):
        z = np.linspace(-37.0, 37.0, 20001)
        _, p = zvalue_pvalue(z, 1.0, 0.0)
        ref = np.clip(ndtr(-z), 1e-300, 1.0 - 1e-16)
        assert_allclose(p, ref, rtol=1e-13, atol=0)

    def test_clamped_at_forty(self):
        assert zvalue_pvalue(40.0, 1.0, 0.0) == (40.0, 1e-300)
        assert zvalue_pvalue(-40.0, 1.0, 0.0) == (-40.0, 1.0 - 1e-16)

    def test_scalar_form(self):
        z, p = zvalue_pvalue(3.0, 2.0, 1.0)
        assert type(z) is float and type(p) is float
        assert z == 1.0
        assert p == zvalue_pvalue(np.array([3.0]), 2.0, 1.0)[1][0]

    def test_strictly_decreasing_in_z(self):
        # Strict where p is not clamped and 1 - p is resolvable near 1.
        _, p = zvalue_pvalue(np.arange(-7.0, 37.0, 1e-3), 1.0, 0.0)
        assert np.all(np.diff(p) < 0)
        _, p = zvalue_pvalue(np.linspace(-40.0, 40.0, 8001), 1.0, 0.0)
        assert np.all(np.diff(p) <= 0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            zvalue_pvalue(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            zvalue_pvalue(np.array([1.0]), np.array([-2.0]), 0.0)


def _kernel_grid():
    """A dense grid over [-40, 40] plus 0, Cody's range boundaries
    +-0.46875 and +-4 on the erfc scale and times sqrt 2 (the same
    boundaries on the z scale of log Phi), each with five nextafter
    neighbours on either side."""
    points = [np.linspace(-40.0, 40.0, 160_001)]
    for edge in (0.0, 0.46875, 4.0, -0.46875, -4.0):
        for c in (edge, edge * math.sqrt(2.0)):
            up = down = c
            points.append([c])
            for _ in range(5):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                points.append([up, down])
    return np.concatenate(points)


_TINY = np.finfo(float).tiny
# scipy's erfc rounds y^2 inside exp(-y^2), so its own relative error
# grows with y^2 (6e-14 near y = 26, against the C library's erfc); beyond
# |w| = 8, where it passes 1e-14, the reference is the stdlib's math.erfc.
_SCIPY_ERFC_EXACT_UP_TO = 8.0


def _erfc_reference(w):
    stdlib = np.array([math.erfc(v) for v in w])
    return np.where(np.abs(w) <= _SCIPY_ERFC_EXACT_UP_TO, erfc(w), stdlib)


class TestNormalTailKernel:
    # Outputs below the smallest normal double are compared absolutely:
    # a subnormal carries too few bits for a relative tolerance.

    def test_erfc_matches_reference(self):
        w = _kernel_grid()
        assert_allclose(_erfc(w), _erfc_reference(w), rtol=1e-14, atol=_TINY)

    def test_log_ndtr_matches_scipy(self):
        z = _kernel_grid()
        got = _log_ndtr(z)
        # Left of 8 sqrt 2 scipy's log_ndtr is the reference; further right
        # it is log1p(-erfc(w) / 2) of the same erfc reference as above, with
        # w = z * sqrt(1/2) rounded as scipy and the kernel round it.
        near = z <= _SCIPY_ERFC_EXACT_UP_TO * math.sqrt(2.0)
        assert_allclose(got[near], log_ndtr(z[near]), rtol=1e-14, atol=0)
        far = np.log1p(-0.5 * _erfc_reference(z[~near] * math.sqrt(0.5)))
        assert_allclose(got[~near], far, rtol=1e-14, atol=_TINY)

    def test_log_ndtr_never_underflows_on_the_left(self):
        z = np.array([-40.0, -1e3, -1e150])
        assert_allclose(_log_ndtr(z), log_ndtr(z), rtol=1e-14, atol=0)
        assert np.all(np.isfinite(_log_ndtr(z)))

    def test_special_values(self):
        inf, nan = math.inf, math.nan
        assert_allclose(_erfc(np.array([inf, -inf, 0.0, nan])), [0.0, 2.0, 1.0, nan])
        assert_allclose(_log_ndtr(np.array([inf, -inf, 0.0, nan])), [0.0, -inf, math.log(0.5), nan])
        assert _erfc(np.float64(0.5)).shape == ()
        assert _log_ndtr(np.zeros((2, 3))).shape == (2, 3)


class TestTypes:
    def test_metrics_record_invariants(self):
        MetricsRecord(fdp=0.1, etp=2, etp_star=1.5, n_selected=3)
        with pytest.raises(ValueError):
            MetricsRecord(fdp=1.2, etp=2, etp_star=1.5, n_selected=3)
        with pytest.raises(ValueError):
            MetricsRecord(fdp=0.1, etp=4, etp_star=1.5, n_selected=3)
