"""Experiment configuration.

One :class:`ExperimentConfig` drives every figure-reproduction runner.  The
defaults are sized for a laptop: 40 runs (like the paper) but far fewer
packets per run than the paper's 1000, because each packet is a full
sample-level simulation.  ``ExperimentConfig.quick()`` shrinks everything
for unit tests and CI; ``ExperimentConfig.paper_scale()`` restores the
published workload for users with time to spare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.channel.impairments import ImpairmentConfig
from repro.constants import DEFAULT_ANC_REDUNDANCY_OVERHEAD, PAPER_NUM_RUNS
from repro.exceptions import ConfigurationError
from repro.sim.mac import MAC_POLICIES

#: Default MAC policy — the value at which ``mac_policy`` stays out of
#: :meth:`ExperimentConfig.snapshot`.
DEFAULT_MAC_POLICY = "csma"

#: Fields that size a run rather than model it.  Every preset sets them
#: (:meth:`ExperimentConfig.quick`, the CLI's 10/10/768 base, benchmark
#: sizes), so every experiment accepts them whether it reads them or not.
SIZE_FIELDS = ("runs", "packets_per_run", "payload_bits", "seed")

#: Scalar fields that must be finite real numbers.
_FLOAT_FIELDS = (
    "overlap_jitter",
    "ber_acceptance",
    "anc_redundancy_overhead",
    "chain_redundancy_overhead",
    "arrival_rate",
    "sim_duration",
)


def _check_finite(name: str, value: Any) -> None:
    """Reject a non-number, NaN or infinity for one field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the figure-reproduction experiments.

    Attributes
    ----------
    runs:
        Number of independent testbed runs (the paper repeats each
        experiment 40 times and plots per-run CDFs).
    packets_per_run:
        Packets per direction per run (the paper uses 1000; the default
        here is smaller because every packet is simulated at sample level).
    payload_bits:
        Payload size of every packet.
    snr_db_range:
        Per-run SNR is drawn uniformly from this range, modelling the
        day-to-day variation of a real deployment in the 20-40 dB regime.
    overlap_range:
        Per-run mean packet overlap is drawn uniformly from this range
        (§11.4 reports an 80 % average with substantial run-to-run spread).
    overlap_jitter:
        Within-run jitter of individual collision offsets.
    ber_acceptance:
        Residual BER that the error-correcting redundancy is assumed able
        to repair; packets above it count as lost.  Lies in [0, 0.5).
    anc_redundancy_overhead:
        Extra redundancy charged against ANC throughput (8 % in §11.4).
    chain_redundancy_overhead:
        The chain's residual BER is markedly lower (§11.6), so it needs
        less redundancy.
    seed:
        Master seed; every run derives its own substream from it.
    impairments:
        Optional channel impairments (per-sender CFO, stochastic fading)
        applied on top of the baseline flat channel — see
        :class:`~repro.channel.impairments.ImpairmentConfig` and
        ``docs/CHANNELS.md``.  The default disables everything, and a
        disabled config is excluded from :meth:`snapshot`, so
        pre-impairment digests, caches and golden fixtures stay stable.
    arrival_rate:
        Offered load for the time-domain traffic scenarios
        (:mod:`repro.sim`), in packets per frame-time over both
        directions.  ``0`` (the default) lets each scenario use its own
        default and keeps the knob out of :meth:`snapshot`, so existing
        digests and golden fixtures are untouched.
    sim_duration:
        Simulated horizon of the traffic scenarios, in frame-times.
        ``0`` (the default) defers to the scenario default and stays out
        of :meth:`snapshot`.
    mac_policy:
        Medium-access policy of the traffic scenarios — one of
        :data:`repro.sim.mac.MAC_POLICIES` (``"csma"`` contention with
        binary exponential backoff, or the collision-free ``"scheduled"``
        TDMA grid).  The default is omitted from :meth:`snapshot`.

    Each experiment declares the model fields it reads
    (:attr:`~repro.experiments.runner.ExperimentEntry.reads`);
    :func:`~repro.experiments.runner.check_reads` rejects a config that
    sets any other field away from its default, so a knob never
    silently does nothing.  The :data:`SIZE_FIELDS` are exempt.
    """

    runs: int = PAPER_NUM_RUNS
    packets_per_run: int = 30
    payload_bits: int = 768
    snr_db_range: Tuple[float, float] = (21.0, 29.0)
    overlap_range: Tuple[float, float] = (0.74, 0.95)
    overlap_jitter: float = 0.05
    ber_acceptance: float = 0.05
    anc_redundancy_overhead: float = DEFAULT_ANC_REDUNDANCY_OVERHEAD
    chain_redundancy_overhead: float = 0.04
    seed: int = 20070823
    impairments: ImpairmentConfig = ImpairmentConfig()
    arrival_rate: float = 0.0
    sim_duration: float = 0.0
    mac_policy: str = DEFAULT_MAC_POLICY

    def __post_init__(self) -> None:
        """Validate every field; CLI flags and spec files feed them."""
        for name in SIZE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            _check_finite(name, getattr(self, name))
        for name in self._TUPLE_FIELDS:
            for end in getattr(self, name):
                _check_finite(name, end)
        if self.runs <= 0:
            raise ConfigurationError("runs must be positive")
        if self.packets_per_run <= 0:
            raise ConfigurationError("packets_per_run must be positive")
        if self.payload_bits <= 0 or self.payload_bits % 8 != 0:
            raise ConfigurationError("payload_bits must be a positive multiple of 8")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        low, high = self.snr_db_range
        if low > high:
            raise ConfigurationError("snr_db_range must be (low, high) with low <= high")
        olow, ohigh = self.overlap_range
        if not (0.0 < olow <= ohigh <= 1.0):
            raise ConfigurationError("overlap_range must satisfy 0 < low <= high <= 1")
        if not 0.0 <= self.overlap_jitter <= 0.5:
            raise ConfigurationError("overlap_jitter must lie in [0, 0.5]")
        if not 0.0 <= self.ber_acceptance < 0.5:
            raise ConfigurationError("ber_acceptance must lie in [0, 0.5)")
        for name in ("anc_redundancy_overhead", "chain_redundancy_overhead"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not isinstance(self.impairments, ImpairmentConfig):
            raise ConfigurationError(
                "impairments must be an ImpairmentConfig instance"
            )
        if self.arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be non-negative")
        if self.sim_duration < 0:
            raise ConfigurationError("sim_duration must be non-negative")
        if self.mac_policy not in MAC_POLICIES:
            raise ConfigurationError(
                f"unknown mac policy {self.mac_policy!r}; choose from "
                f"{', '.join(MAC_POLICIES)}"
            )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def quick(cls, seed: int = 7) -> "ExperimentConfig":
        """A configuration small enough for unit tests and CI smoke runs.

        Trade-off: 3 runs x 4 packets finishes in seconds, which is what
        CI needs, but the per-run CDFs it produces are far too coarse to
        compare against the paper's figures — individual gain samples
        jump by tens of percent between seeds.  Use it to exercise code
        paths, never to read off numbers.
        """
        return cls(runs=3, packets_per_run=4, payload_bits=512, seed=seed)

    @classmethod
    def paper_scale(cls, seed: int = 20070823) -> "ExperimentConfig":
        """The paper's full workload (slow: 40 runs x 1000 packets/direction).

        Trade-off: this is the published experiment — 40 runs of 1000
        packets per direction — and the only size at which mean gains and
        BER CDFs are directly comparable to the figures, but every packet
        is a full sample-level simulation, so a single figure takes hours
        of CPU serially.  Run it through an
        :class:`~repro.experiments.engine.ExperimentEngine` with
        ``workers`` set to your core count and a ``cache_dir`` so an
        interrupted sweep resumes instead of restarting; results are
        bit-identical to a serial run.
        """
        return cls(runs=PAPER_NUM_RUNS, packets_per_run=1000, seed=seed)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    #: Fields whose canonical in-config type is a tuple; JSON (and hence
    #: campaign spec files / snapshots read back from disk) carries them
    #: as lists, so :meth:`coerce_field` converts on the way in.
    _TUPLE_FIELDS = ("snr_db_range", "overlap_range")

    @classmethod
    def coerce_field(cls, name: str, value: Any) -> Any:
        """Coerce one JSON-carried field value to its canonical type.

        ``snapshot()`` output is JSON-shaped: tuples become lists and the
        nested :class:`ImpairmentConfig` becomes a plain dict.  Dataclass
        equality is type-sensitive, so reading those values back without
        coercion would build a config that compares *unequal* to the one
        snapshotted — and, worse, digests differently.  This is the single
        place the inverse conversions live.
        """
        if name in cls._TUPLE_FIELDS and isinstance(value, (list, tuple)):
            return tuple(value)
        if name == "impairments" and isinstance(value, Mapping):
            return ImpairmentConfig(**dict(value))
        return value

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "ExperimentConfig":
        """Inverse of :meth:`snapshot`: rebuild an equal config.

        Fields the snapshot omitted (disabled impairments, default
        traffic knobs) come back at their defaults — exactly the values
        whose omission :meth:`snapshot` guarantees — so
        ``from_snapshot(cfg.snapshot()) == cfg`` holds for every config.  The campaign layer's content-addressed digests rely on
        that round-trip being exact
        (:func:`repro.campaign.spec.audit_snapshot_roundtrip`), and
        unknown keys are rejected rather than dropped so a typo in a
        campaign spec never silently runs the default.
        """
        payload = dict(snapshot)
        unknown = sorted(set(payload).difference(_FIELD_NAMES))
        if unknown:
            raise ConfigurationError(
                f"unknown config field(s) in snapshot: {', '.join(unknown)}; "
                f"valid fields are {', '.join(sorted(_FIELD_NAMES))}"
            )
        return cls(**{name: cls.coerce_field(name, value) for name, value in payload.items()})

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict of the config fields.

        A default (all-off) impairment declaration is omitted: the key
        only appears once any impairment field differs from the default,
        which keeps the engine's cache digests, the structured-result
        config snapshots and the golden fixtures byte-identical to the
        pre-impairment library for every existing configuration.  The
        test is *equality with the default*, not ``enabled``: a bare
        ``fading_mode="drift"`` request is inactive on most experiments
        but changes what ``fading_sweep`` computes, so it must fork the
        digest.

        The dict is what ``dataclasses.asdict`` gives (the same keys, key
        order and values) with the omissions applied, built directly from
        the field names: every field is an immutable scalar or tuple, so
        ``asdict``'s recursive deep copy only cost time.
        """
        payload = {name: getattr(self, name) for name in _FIELD_NAMES}
        if self.impairments == _NO_IMPAIRMENTS:
            del payload["impairments"]
        else:
            payload["impairments"] = {
                name: getattr(self.impairments, name) for name in _IMPAIRMENT_FIELD_NAMES
            }
        for knob, default in _OMITTED_AT_DEFAULT:
            if payload[knob] == default:
                del payload[knob]
        return payload

    # ------------------------------------------------------------------
    # Per-run draws
    # ------------------------------------------------------------------
    def run_rng(self, run_index: int, stream: int = 0) -> np.random.Generator:
        """Deterministic random generator for one run (and sub-stream)."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, int(run_index), int(stream)])
        )

    def draw_run_snr(self, rng: np.random.Generator) -> float:
        """Draw one run's operating SNR."""
        low, high = self.snr_db_range
        if low == high:
            return float(low)
        return float(rng.uniform(low, high))

    def draw_run_overlap(self, rng: np.random.Generator) -> float:
        """Draw one run's mean collision overlap."""
        low, high = self.overlap_range
        if low == high:
            return float(low)
        return float(rng.uniform(low, high))


#: Every config field, in declaration order (the order of :meth:`ExperimentConfig.snapshot`).
_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))
#: The impairment fields, flattened into a non-default snapshot in this order.
_IMPAIRMENT_FIELD_NAMES = tuple(f.name for f in fields(ImpairmentConfig))
#: The all-off impairment declaration, which :meth:`ExperimentConfig.snapshot` omits.
_NO_IMPAIRMENTS = ImpairmentConfig()
#: The traffic knobs :meth:`ExperimentConfig.snapshot` omits at these defaults.
_OMITTED_AT_DEFAULT = (
    ("arrival_rate", 0.0),
    ("sim_duration", 0.0),
    ("mac_policy", DEFAULT_MAC_POLICY),
)

#: The fields that model the experiment (everything but :data:`SIZE_FIELDS`);
#: an experiment's ``reads`` declaration is a subset of these.
MODEL_FIELDS = tuple(name for name in _FIELD_NAMES if name not in SIZE_FIELDS)
