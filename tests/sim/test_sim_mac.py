"""Tests of the pluggable MAC policies (CSMA/BEB and the TDMA grid)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim.mac import MAC_POLICIES, CsmaBackoffMac, ScheduledMac


class TestRegistry:
    def test_policy_names(self):
        assert MAC_POLICIES == ("csma", "scheduled")


class TestCsmaBackoffMac:
    def test_access_delay_within_window(self):
        mac = CsmaBackoffMac()
        state = mac.fresh_state()
        rng = np.random.default_rng(0)
        delays = {mac.access_delay(state, rng) for _ in range(200)}
        assert min(delays) >= 64.0
        assert max(delays) <= 64.0 + 4 * 32.0
        # Whole slots only: every delay is DIFS plus a multiple of the slot.
        assert all((d - 64.0) % 32.0 == 0.0 for d in delays)

    def test_binary_exponential_backoff_bounded(self):
        mac = CsmaBackoffMac()
        state = mac.fresh_state()
        widths = []
        for _ in range(6):
            mac.on_failure(state)
            widths.append(state.cw)
        assert widths == [8, 16, 32, 64, 64, 64]
        assert state.retries == 6

    def test_success_resets_window(self):
        mac = CsmaBackoffMac()
        state = mac.fresh_state()
        mac.on_failure(state)
        mac.on_failure(state)
        mac.on_success(state)
        assert state.cw == 4
        assert state.retries == 0

    def test_exhaustion_after_max_retries(self):
        mac = CsmaBackoffMac()
        state = mac.fresh_state()
        for _ in range(3):
            assert not mac.exhausted(state)
            mac.on_failure(state)
        assert not mac.exhausted(state)
        mac.on_failure(state)
        assert mac.exhausted(state)


class TestScheduledMac:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ScheduledMac(slot_samples=0, n_ranks=3)
        with pytest.raises(ConfigurationError):
            ScheduledMac(slot_samples=100, n_ranks=0)

    def test_round_robin_ownership(self):
        mac = ScheduledMac(slot_samples=100, n_ranks=3)
        assert [mac.slot_owner(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_each_rank_owns_one_slot_per_round(self):
        mac = ScheduledMac(slot_samples=50, n_ranks=4)
        for round_start in (0, 4, 40):
            owners = [mac.slot_owner(round_start + i) for i in range(4)]
            assert sorted(owners) == [0, 1, 2, 3]
