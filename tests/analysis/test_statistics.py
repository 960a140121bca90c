"""Tests for coefficient distribution fitting."""

import numpy as np
import pytest

from repro.analysis.statistics import band_kurtosis, fit_band_distribution
from repro.analysis.frequency import coefficients_by_band


class TestFitBandDistribution:
    def test_gaussian_data_prefers_gaussian(self, rng):
        samples = rng.normal(0, 10, 20000)
        fit = fit_band_distribution(samples)
        assert fit.preferred_model == "gaussian"
        assert fit.std == pytest.approx(10.0, rel=0.05)

    def test_laplace_data_prefers_laplace(self, rng):
        samples = rng.laplace(0, 10, 20000)
        fit = fit_band_distribution(samples)
        assert fit.preferred_model == "laplace"
        assert fit.laplace_scale == pytest.approx(10.0, rel=0.05)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            fit_band_distribution(np.array([1.0]))

    def test_natural_image_ac_band_is_leptokurtic(self, small_freqnet):
        """Reininger & Gibson: AC coefficients of image data are closer to a
        Laplace distribution than a Gaussian one."""
        coefficients = coefficients_by_band(small_freqnet.images)
        ac_band = coefficients[:, 0, 1]
        fit = fit_band_distribution(ac_band)
        assert fit.preferred_model == "laplace"
        assert band_kurtosis(ac_band) > 0.0


class TestKurtosis:
    def test_gaussian_kurtosis_near_zero(self, rng):
        samples = rng.normal(size=50000)
        assert abs(band_kurtosis(samples)) < 0.1

    def test_requires_four_samples(self):
        with pytest.raises(ValueError):
            band_kurtosis(np.array([1.0, 2.0, 3.0]))


class TestScipyOracle:
    """The NumPy closed forms agree with scipy, which is a test-only dependency."""

    # Local generators: drawing from the session-wide ``rng`` fixture
    # would shift the stream every later test module sees.
    @pytest.mark.parametrize("draw", ["normal", "laplace", "uniform"])
    def test_log_likelihoods_match_scipy(self, draw):
        stats = pytest.importorskip("scipy.stats")
        samples = getattr(np.random.default_rng(7), draw)(size=3000) * 7.0
        fit = fit_band_distribution(samples)
        sigma = np.sqrt(np.mean(samples ** 2))
        scale = np.mean(np.abs(samples))
        np.testing.assert_allclose(
            fit.gaussian_log_likelihood,
            stats.norm.logpdf(samples, loc=0.0, scale=sigma).sum(),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            fit.laplace_log_likelihood,
            stats.laplace.logpdf(samples, loc=0.0, scale=scale).sum(),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("size", [4, 5, 37, 20000])
    def test_kurtosis_matches_scipy(self, size):
        stats = pytest.importorskip("scipy.stats")
        samples = np.random.default_rng(size).laplace(3.0, 2.0, size)
        np.testing.assert_allclose(
            band_kurtosis(samples),
            stats.kurtosis(samples, fisher=True, bias=False),
            rtol=1e-12,
        )

    def test_constant_band_kurtosis_is_nan(self):
        assert np.isnan(band_kurtosis(np.full(8, 5.0)))


def test_import_core_does_not_load_scipy():
    """``numpy`` is the only declared runtime dependency."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    probe = "import sys, repro.core; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    )
    assert out.stdout.strip() == "False"
