"""Tests of the arrival-process traffic models."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim.traffic import (
    TRAFFIC_MODELS,
    BurstyOnOffArrivals,
    CBRArrivals,
    PoissonArrivals,
    make_arrival_process,
)


class TestRegistry:
    def test_model_names(self):
        assert TRAFFIC_MODELS == ("poisson", "cbr", "bursty")

    def test_factory_dispatch(self):
        for name, cls in (
            ("poisson", PoissonArrivals),
            ("cbr", CBRArrivals),
            ("bursty", BurstyOnOffArrivals),
        ):
            process = make_arrival_process(name, 100.0)
            assert isinstance(process, cls)
            assert process.mean_interarrival == 100.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            make_arrival_process("fractal", 100.0)

    def test_mean_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)


class TestPoisson:
    def test_long_run_mean_matches(self):
        rng = np.random.default_rng(0)
        process = PoissonArrivals(50.0)
        draws = [process.next_interarrival(rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(50.0, rel=0.1)

    def test_draws_are_memoryless_spread(self):
        rng = np.random.default_rng(1)
        process = PoissonArrivals(50.0)
        draws = [process.next_interarrival(rng) for _ in range(2000)]
        # Exponential: std equals the mean (within sampling error).
        assert np.std(draws) == pytest.approx(50.0, rel=0.15)


class TestCBR:
    def test_perfectly_periodic(self):
        rng = np.random.default_rng(2)
        process = CBRArrivals(64.0)
        assert [process.next_interarrival(rng) for _ in range(5)] == [64.0] * 5


class TestBursty:
    def test_long_run_mean_matches(self):
        rng = np.random.default_rng(3)
        process = BurstyOnOffArrivals(50.0)
        draws = [process.next_interarrival(rng) for _ in range(8000)]
        assert np.mean(draws) == pytest.approx(50.0, rel=0.1)

    def test_in_burst_spacing_is_denser(self):
        rng = np.random.default_rng(4)
        process = BurstyOnOffArrivals(100.0)
        draws = [process.next_interarrival(rng) for _ in range(2000)]
        in_burst = [d for d in draws if d == pytest.approx(25.0)]
        assert in_burst, "bursts should produce mean/peak_factor spacings"
        assert max(draws) > 100.0, "off periods should exceed the long-run mean"

    def test_higher_variance_than_poisson(self):
        rng = np.random.default_rng(5)
        bursty = BurstyOnOffArrivals(50.0)
        draws = [bursty.next_interarrival(rng) for _ in range(4000)]
        # Same long-run rate, much burstier: coefficient of variation > 1.
        assert np.std(draws) / np.mean(draws) > 1.1
