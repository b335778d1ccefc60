import math

import numpy as np
import pytest

from conftest import random_device
from fastreadout.config import parse_quantity
from fastreadout.errors import ConfigError
from fastreadout.params import (DeviceParams, critical_photon_number,
                                dispersive_shift, effective_linewidth,
                                lambda_param)

G = 208e6
DELTA = 1562e6
ALPHA = -340e6


def reference_device(**kw):
    base = dict(g=208e6, omega_q=6.316e9, omega_r=4.754e9, omega_p=4.756e9,
                alpha=-340e6, J=25e6, Q_p=74, T1=7.6e-6, eta=0.66,
                n_drive=2.5, dispersive_guard=5.0)
    base.update(kw)
    return DeviceParams(**base)


class TestDispersiveShift:
    def test_reference_value(self):
        # oracle: direct evaluation g^2/Delta * alpha/(Delta+alpha)
        chi = dispersive_shift(G, DELTA, ALPHA)
        assert chi == pytest.approx(-7.7064320e6, rel=1e-6)

    def test_zero_anharmonicity(self):
        assert dispersive_shift(G, DELTA, 0.0) == 0.0

    def test_algebraic_identity(self):
        n_crit = critical_photon_number(G, DELTA)
        lhs = dispersive_shift(G, DELTA, ALPHA)
        rhs = ALPHA / (4.0 * n_crit) / (1.0 + ALPHA / DELTA)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_on_resonance_raises(self):
        with pytest.raises(ConfigError, match=r"^omega_q and omega_r give"):
            dispersive_shift(G, 0.0, ALPHA)
        with pytest.raises(ConfigError, match=r"^omega_q, omega_r and alpha"):
            dispersive_shift(G, -ALPHA, ALPHA)

    def test_sign_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.uniform(50e6, 400e6)
            delta = rng.choice([-1, 1]) * rng.uniform(0.5e9, 3e9)
            alpha = -rng.uniform(100e6, 500e6)
            if delta + alpha == 0:
                continue
            chi = dispersive_shift(g, delta, alpha)
            expected = math.copysign(1, alpha) * math.copysign(1, delta) \
                * math.copysign(1, delta + alpha)
            assert math.copysign(1, chi) == expected

    def test_positive_detuning_asymmetry(self):
        # |chi| at +Delta exceeds |chi| at -Delta for negative alpha
        for delta in np.linspace(1.1 * abs(ALPHA), 10 * abs(ALPHA), 20):
            assert abs(dispersive_shift(G, delta, ALPHA)) > \
                abs(dispersive_shift(G, -delta, ALPHA))


class TestCriticalPhotonNumber:
    def test_reference_value(self):
        assert critical_photon_number(G, DELTA) == pytest.approx(14.0986, rel=1e-4)

    def test_delta_two_g(self):
        assert critical_photon_number(1e8, 2e8) == pytest.approx(1.0)

    def test_half_g_quadruples(self):
        assert critical_photon_number(104e6, DELTA) == pytest.approx(
            4 * critical_photon_number(G, DELTA), rel=1e-12)

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            critical_photon_number(0.0, DELTA)


class TestEffectiveLinewidth:
    def test_reference_value(self):
        k = effective_linewidth(25e6, 74, 4756e6, 2e6)
        assert k == pytest.approx(38.748e6, rel=1e-4)

    def test_zero_detuning_limit(self):
        k = effective_linewidth(25e6, 74, 4756e6, 0.0)
        assert k == pytest.approx(4 * 74 * 25e6 ** 2 / 4756e6, rel=1e-12)

    def test_zero_coupling(self):
        assert effective_linewidth(0.0, 74, 4756e6, 2e6) == 0.0

    def test_monotonic_in_j_and_detuning(self):
        base = effective_linewidth(25e6, 74, 4756e6, 2e6)
        assert effective_linewidth(30e6, 74, 4756e6, 2e6) > base
        assert effective_linewidth(25e6, 74, 4756e6, 5e6) < base


class TestLambdaParam:
    def test_reference_corner(self):
        assert lambda_param(2.5, 13.0) == pytest.approx(0.0561873, rel=1e-4)

    def test_infinite_n_crit(self):
        assert lambda_param(2.5, 1e12) == pytest.approx(0.0, abs=1e-11)

    def test_unit_corner(self):
        expected = math.sin(0.5 * math.atan(1.0)) ** 2
        assert lambda_param(0.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.146447, rel=1e-5)

    def test_monotonicity(self):
        ns = np.linspace(0, 10, 30)
        vals = [lambda_param(n, 13.0) for n in ns]
        assert np.all(np.diff(vals) > 0)
        crits = np.linspace(5, 50, 30)
        vals = [lambda_param(2.5, c) for c in crits]
        assert np.all(np.diff(vals) < 0)


class TestDeviceParams:
    def test_property_reference(self):
        d = reference_device()
        assert d.chi == pytest.approx(-7.7064e6, rel=1e-4)
        assert d.n_crit == pytest.approx(14.0986, rel=1e-4)
        assert d.kappa_eff == pytest.approx(38.748e6, rel=1e-4)
        assert d.kappa_p == pytest.approx(4756e6 / 74, rel=1e-12)
        assert d.delta == pytest.approx(1.562e9, rel=1e-12)
        assert d.lambda_mix == pytest.approx(lambda_param(2.5, 14.0986), rel=1e-4)

    def test_properties_are_the_module_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            dev = random_device(rng)
            assert dev.chi == dispersive_shift(dev.g, dev.delta, dev.alpha)
            assert dev.n_crit == critical_photon_number(dev.g, dev.delta)
            assert dev.kappa_eff == effective_linewidth(dev.J, dev.Q_p,
                                                        dev.omega_p, dev.delta_p)
            assert dev.lambda_mix == lambda_param(dev.n_drive, dev.n_crit)

    def test_delta_p_defaults_to_difference(self):
        dev = reference_device()
        assert dev.delta_p == pytest.approx(-2e6)

    def test_delta_p_conflict_rejected(self):
        with pytest.raises(ConfigError):
            reference_device(delta_p=5e6)

    def test_guard_rejects_small_detuning(self):
        with pytest.raises(ConfigError, match=r"\|omega_q - omega_r\| = .* "
                           r"dispersive_guard x g = 10 x"):
            reference_device(dispersive_guard=10.0)
        # a guard below 0 would turn the check off
        with pytest.raises(ConfigError, match="dispersive_guard must be non-negative"):
            reference_device(dispersive_guard=-1.0)

    def test_eta_bounds(self):
        with pytest.raises(ConfigError):
            reference_device(eta=0.0)
        with pytest.raises(ConfigError):
            reference_device(eta=1.5)

    def test_invalid_times_and_counts(self):
        with pytest.raises(ConfigError):
            reference_device(T1=-1.0)
        with pytest.raises(ConfigError):
            reference_device(n_drive=-0.1)

    @pytest.mark.parametrize("key,value", [("g", 0.0), ("g", -208e6),
                                           ("omega_p", 0.0), ("omega_p", -1e9)])
    def test_non_positive_coupling_and_filter(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            reference_device(**{key: value})

    @pytest.mark.parametrize("key", ["g", "J", "T1", "n_drive", "gamma_int",
                                     "omega_d", "dispersive_guard"])
    def test_non_finite_rejected(self, key):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                reference_device(**{key: value})


def test_parse_quantity_rejects_overflow():
    with pytest.raises(ConfigError):
        parse_quantity("1e400")
    with pytest.raises(ConfigError):
        parse_quantity("1e300 GHz")
    assert parse_quantity("1e300") == 1e300
