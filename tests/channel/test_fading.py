"""Tests of the Rayleigh/Rician fade helper: statistics, shape and seeding."""

import numpy as np
import pytest

from repro.channel.fading import FADING_KINDS, FADING_MODES, check_fading, fading_gains
from repro.exceptions import ChannelError
from repro.utils.db import db_to_power_ratio


def _block(kind, rng, k_db=6.0, los_phase=0.0, count=40000):
    return np.array(
        [complex(fading_gains(kind, k_db, los_phase, "block", 0.0, 1, rng)) for _ in range(count)]
    )


def _drift(kind, doppler, n, rng):
    return fading_gains(kind, 6.0, 0.0, "drift", doppler, n, rng)


class TestRules:
    def test_registered_names(self):
        assert FADING_KINDS == ("none", "rayleigh", "rician")
        assert FADING_MODES == ("block", "drift")

    @pytest.mark.parametrize(
        "kind, mode, doppler",
        [("weibull", "block", 0.0), ("rayleigh", "warp", 0.0), ("rayleigh", "drift", 1.0),
         ("rayleigh", "block", 0.1)],
    )
    def test_rejects_invalid_declarations(self, kind, mode, doppler):
        with pytest.raises(ChannelError):
            check_fading(kind, mode, doppler, ChannelError)

    def test_accepts_every_registered_kind(self):
        for kind in FADING_KINDS:
            check_fading(kind, "block", 0.0, ChannelError)
            check_fading(kind, "drift", 0.5, ChannelError)


class TestShape:
    def test_block_mode_is_one_gain(self, rng):
        gains = fading_gains("rayleigh", 6.0, 0.0, "block", 0.0, 100, rng)
        assert gains.shape == ()

    def test_drift_mode_is_one_gain_per_sample(self, rng):
        assert _drift("rician", 0.01, 100, rng).shape == (100,)

    def test_block_draws_two_normals(self):
        rng = np.random.default_rng(3)
        gain = complex(fading_gains("rayleigh", 6.0, 0.0, "block", 0.0, 50, rng))
        reference = np.random.default_rng(3)
        std = np.sqrt(0.5)
        assert gain == complex(reference.normal(0.0, std), reference.normal(0.0, std))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestStatisticalMoments:
    def test_rayleigh_block_mean_power_is_one(self):
        gains = _block("rayleigh", np.random.default_rng(11))
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.05)
        # Circular symmetry: the mean complex gain vanishes.
        assert abs(np.mean(gains)) < 0.02

    def test_rician_los_fraction_matches_k_factor(self):
        k_db = 7.0
        gains = _block("rician", np.random.default_rng(12), k_db=k_db, los_phase=0.4)
        k_linear = db_to_power_ratio(k_db)
        los = np.sqrt(k_linear / (k_linear + 1.0)) * np.exp(1j * 0.4)
        # The scattered part averages out, leaving the LOS ray.
        assert np.mean(gains) == pytest.approx(los, abs=0.02)
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.05)
        scattered = np.mean(np.abs(gains - los) ** 2)
        assert scattered == pytest.approx(1.0 / (k_linear + 1.0), rel=0.05)

    def test_large_k_approaches_static_channel(self):
        gains = _block("rician", np.random.default_rng(13), k_db=40.0, count=200)
        assert np.std(np.abs(gains)) < 0.02

    def test_drift_track_is_stationary_in_power(self):
        rng = np.random.default_rng(14)
        track = np.concatenate([_drift("rayleigh", 0.01, 2000, rng) for _ in range(20)])
        assert np.mean(np.abs(track) ** 2) == pytest.approx(1.0, rel=0.08)

    def test_drift_autocorrelation_decays_as_rho_to_the_lag(self):
        rng = np.random.default_rng(15)
        doppler = 0.05
        tracks = [_drift("rayleigh", doppler, 2000, rng) for _ in range(20)]
        power = np.mean([np.mean(np.abs(t) ** 2) for t in tracks])
        for lag in (1, 5, 20):
            corr = np.mean([np.mean(t[lag:] * np.conj(t[:-lag])) for t in tracks]) / power
            assert corr.real == pytest.approx((1.0 - doppler) ** lag, abs=0.06)
            assert abs(corr.imag) < 0.06

    def test_slow_drift_moves_little_per_sample(self):
        track = _drift("rayleigh", 0.002, 512, np.random.default_rng(15))
        assert np.max(np.abs(track[1:] - track[:-1])) < 0.5
