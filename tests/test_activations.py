"""Activation values, derivatives, and their conventions."""

import math

import numpy as np
import pytest

from mfdl.activations import Activation
from mfdl.errors import ConfigError

SMOOTH = (Activation.LINEAR, Activation.TANH, Activation.ERF)
ODD = (Activation.LINEAR, Activation.TANH, Activation.HARDTANH, Activation.ERF)


class TestValues:
    def test_zero_maps_to_zero(self):
        for act in Activation:
            assert act.value_at(0.0) == 0.0

    def test_examples(self):
        assert Activation.RELU.value_at(-2.0) == 0.0
        assert Activation.HARDTANH.value_at(0.5) == 0.5
        assert abs(Activation.TANH.value_at(1.0) - math.tanh(1.0)) == 0.0
        assert Activation.LINEAR.value_at(3.25) == 3.25
        # erf normalized so phi'(0) = 1
        assert abs(Activation.ERF.value_at(0.3) - math.erf(math.sqrt(math.pi) * 0.15)) < 1e-15

    def test_oddness(self):
        zs = np.linspace(-5, 5, 41)
        for act in ODD:
            np.testing.assert_array_equal(act.value_at(-zs), -act.value_at(zs))


class TestDerivatives:
    def test_examples(self):
        assert Activation.LINEAR.derivative_at(123.0) == 1.0
        assert Activation.RELU.derivative_at(3.0) == 1.0
        assert Activation.RELU.derivative_at(-3.0) == 0.0
        assert abs(Activation.TANH.derivative_at(0.5) - (1 - math.tanh(0.5) ** 2)) < 1e-15

    def test_subgradient_conventions(self):
        assert Activation.RELU.derivative_at(0.0) == 0.0
        assert Activation.HARDTANH.derivative_at(1.0) == 0.0
        assert Activation.HARDTANH.derivative_at(-1.0) == 0.0
        assert Activation.HARDTANH.derivative_at(0.999999) == 1.0

    def test_bounded_slope(self):
        zs = np.linspace(-6, 6, 201)
        for act in Activation:
            assert np.all(np.abs(act.derivative_at(zs)) <= 1.0)

    def test_finite_difference_smooth(self):
        """Central differences match the analytic derivative for smooth kinds."""
        zs = np.linspace(-5, 5, 101)
        h = 1e-5
        for act in SMOOTH:
            fd = (act.value_at(zs + h) - act.value_at(zs - h)) / (2 * h)
            assert np.max(np.abs(act.derivative_at(zs) - fd)) < 1e-6

    def test_relu_identity(self):
        zs = np.concatenate([np.linspace(-4, -0.01, 20), np.linspace(0.01, 4, 20)])
        np.testing.assert_array_equal(
            Activation.RELU.value_at(zs), zs * Activation.RELU.derivative_at(zs)
        )

    def test_erf_slope_one_at_origin(self):
        assert Activation.ERF.derivative_at(0.0) == 1.0


class TestParsing:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("linear", Activation.LINEAR),
            ("ReLU", Activation.RELU),
            ("TANH", Activation.TANH),
            ("HardTanh", Activation.HARDTANH),
            (" erf ", Activation.ERF),
        ],
    )
    def test_case_insensitive(self, name, expected):
        assert Activation.parse(name) is expected

    @pytest.mark.parametrize("name", ["selu", "", None, "tanh2"])
    def test_unknown_rejected(self, name):
        with pytest.raises(ConfigError):
            Activation.parse(name)


def test_homogeneity_flags():
    assert Activation.LINEAR.positively_homogeneous
    assert Activation.RELU.positively_homogeneous
    assert not Activation.TANH.positively_homogeneous
