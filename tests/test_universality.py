"""Power-law fitting and the variance-vs-mean report."""

import math

import numpy as np
import pytest

from mfdl.activations import Activation
from mfdl.errors import ConfigError
from mfdl.meanfield import MeanFieldParams
from mfdl.simulator import EnsembleStats, NetworkConfig
from mfdl.universality import (
    PowerLawFit,
    _fit_metric,
    fit_power_law,
    fit_window,
    universality_report,
)


class TestFitPowerLaw:
    def test_exact_square_law(self):
        m = np.geomspace(1e-8, 1.0, 40)
        fit = fit_power_law(m, m**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 40

    def test_constructed_power_and_intercept(self):
        m = np.geomspace(0.01, 100.0, 25)
        fit = fit_power_law(m, 7.0 * m**1.5)
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.log_intercept == pytest.approx(math.log(7.0), abs=1e-10)

    def test_scale_equivariance(self):
        """Rescaling the means shifts only the intercept, not the exponent."""
        rng = np.random.default_rng(0)
        m = np.geomspace(1e-6, 1e2, 30)
        v = m**2.1 * np.exp(rng.normal(0, 0.1, 30))
        e1 = fit_power_law(m, v).exponent
        e2 = fit_power_law(1e7 * m, v).exponent
        assert abs(e1 - e2) < 1e-10

    def test_deterministic(self):
        m = np.geomspace(0.1, 10, 10)
        v = m**2
        assert fit_power_law(m, v) == fit_power_law(m, v)

    def test_rejections(self):
        with pytest.raises(ConfigError):
            fit_power_law([1.0, 2.0], [1.0, 4.0])  # too short
        with pytest.raises(ConfigError):
            fit_power_law([1.0, 0.0, 2.0], [1.0, 1.0, 4.0])  # nonpositive mean
        with pytest.raises(ConfigError):
            fit_power_law([1.0, 1.5, 2.0], [1.0, -1.0, 4.0])  # negative variance
        with pytest.raises(ConfigError):
            fit_power_law([1.0, 1.5], [1.0, 1.0, 4.0])  # length mismatch


class TestFitWindow:
    def test_excludes_boundary_transients(self):
        lo, hi = fit_window(200)
        assert lo == 20 and hi == 190

    def test_underflowed_layers_excluded_and_counted(self):
        lo, hi = fit_window(100)
        n = hi - lo + 1
        means = np.geomspace(1e-10, 1.0, 100)
        var = 0.5 * means**2
        means[30:33] = 1e-310  # below the double-precision working floor
        var[40] = 0.0
        stats = EnsembleStats(means, var, np.sqrt(var / 4), 4)
        fit, n_excluded, layers, m, v = _fit_metric(stats, 100)
        assert n_excluded == 4
        assert fit.n_points == n - 4
        assert 31 not in layers and 41 not in layers


class TestReport:
    def test_single_config_plumbing(self):
        cfg = NetworkConfig(12, 24, MeanFieldParams(0.5, 0.1, 1.0), Activation.TANH, seed=4)
        rows = universality_report([cfg], 2)
        assert len(rows) == 3  # one per metric
        for row in rows:
            assert row.error is None
            assert isinstance(row.fit, PowerLawFit)
            assert row.width == 24 and row.rho == 1.0

    def test_failing_row_does_not_abort_others(self, caplog):
        """A config whose length map diverges reports an error, logged as a
        warning; the healthy config in the same batch still gets fitted."""
        rows = universality_report(
            [NetworkConfig(10, 16, MeanFieldParams(0.5, 0.1, rho), Activation.LINEAR, seed=4)
             for rho in (1.0, 0.4)],
            2,
        )
        good = [r for r in rows if r.rho == 1.0]
        bad = [r for r in rows if r.rho == 0.4]
        assert all(r.fit is not None for r in good)
        assert all(r.fit is None and "NonConvergence" in r.error for r in bad)
        warned = [r for r in caplog.records if r.name == "mfdl.universality"]
        assert [r.levelname for r in warned] == ["WARNING"] * 3
        assert all("rho=0.4" in r.getMessage() for r in warned)

    def test_empty_configs_rejected(self):
        base = NetworkConfig(10, 16, MeanFieldParams(0.5, 0.1, 1.0), Activation.TANH)
        with pytest.raises(ConfigError):
            universality_report([], base, 2)

    def test_single_instance_rejected_before_simulating(self, monkeypatch):
        """Every fit needs a per-layer variance, so one instance is refused
        before any network is simulated, not after every row has failed."""
        import mfdl.universality as universality

        def no_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble ran before the instance count was checked")

        monkeypatch.setattr(universality, "ensemble_run_many", no_ensemble)
        cfg = NetworkConfig(12, 8, MeanFieldParams(0.5, 0.1, 1.0), Activation.TANH)
        with pytest.raises(ConfigError, match="instances >= 2"):
            universality_report([cfg], 1)
