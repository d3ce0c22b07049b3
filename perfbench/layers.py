"""The layer table: which library calls the traced run times, and its counters.

Each layer is timed by wrapping methods of its public classes (or, for
the facade, module functions) for the duration of a traced iteration.
Wrapping the class attribute means every caller reaches the wrapper,
including modules that imported the class before the wrap.  The
wrappers change no argument, result or exception; :func:`install`
returns a handle whose ``uninstall`` puts every original back.

``PNSequence.next_bit`` is deliberately not wrapped: it runs about
1.5 million times per ``alice_bob`` iteration, so a span around it would
measure the tracer, not the LFSR.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.spans import Tracer

#: Observes one finished call: (tracer, args, kwargs, result, error, seconds).
Observer = Callable[[Tracer, tuple, dict, Any, Optional[BaseException], float], None]

#: Layers in report order (outermost last).
LAYERS = (
    "utils.pn",
    "scrambler",
    "coding",
    "framing",
    "modulation",
    "channel",
    "network",
    "anc",
    "anc.decoder",
    "protocols",
    "sim",
    "sim.reception",
    "experiments.engine",
    "results",
    "campaign.spec",
    "campaign.store",
    "campaign.runner",
    "api",
)

#: Why ``ReceivePipeline.receive`` delivered nothing, as counter slugs: its
#: ``failure_reason``, or ``payload_crc`` for a decoded packet whose
#: payload CRC failed (the pipeline gives no reason for that case).
ANC_FAILURES = (
    "payload_crc",
    "empty_waveform",
    "no_energy",
    "pilot_sequence_not_found",
    "header_did_not_validate",
    "received_region_shorter_than_one_frame",
    "leading_pilot",
    "trailing_pilot",
    "neither_colliding_packet_is_known",
    "could_not_validate_either_colliding_header",
    "interference_decoding_failed",
    "decoded_frame_failed_header_validation",
)


def failure_slug(reason: str) -> str:
    """Counter slug of a ``ReceiveResult.failure_reason`` (detail after ':' dropped)."""
    head = reason.split(":", 1)[0].strip().lower()
    return re.sub(r"[^a-z0-9]+", "_", head).strip("_") or "unknown"


# ----------------------------------------------------------------------
# Observers: counters recorded where the work happens
# ----------------------------------------------------------------------
def _pn_bits(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("utils.pn.bits", len(result))


def _crc_verify(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("coding.crc_verify")
        if not result:
            tracer.count("coding.crc_fail")


def _deframe(tracer, args, kwargs, result, error, seconds):
    tracer.count("framing.parse")
    if error is None and result.delivered:
        tracer.count("framing.parse_ok")


def _modulated(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("modulation.samples", len(result))


def _demodulated(tracer, args, kwargs, result, error, seconds):
    signal = args[1] if len(args) > 1 else kwargs["signal"]
    tracer.count("modulation.samples", len(signal))


def _received(tracer, args, kwargs, result, error, seconds):
    if error is not None:
        return
    tracer.count("anc.receive")
    if result.delivered:
        tracer.count("anc.delivered")
    elif result.failure_reason:
        tracer.count(f"anc.fail.{failure_slug(result.failure_reason)}")
    elif result.packet is not None:
        tracer.count("anc.fail.payload_crc")


def _decoded(tracer, args, kwargs, result, error, seconds):
    if error is not None:
        tracer.count("anc.decoder.errors")


def _sim_run(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("sim.events", result.events)
        tracer.count("sim.run_s", seconds)


def _windows(tracer, args, kwargs, result, error, seconds):
    windows = args[1] if len(args) > 1 else kwargs["windows"]
    tracer.count("sim.reception.windows", len(windows))


def _engine_map(tracer, args, kwargs, result, error, seconds):
    stats = args[0].last_stats
    if error is None and stats is not None:
        tracer.count("experiments.engine.trials", stats.total_trials)
        tracer.count("experiments.engine.cache_hits", stats.cached_trials)


def _spec_jobs(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("campaign.spec.jobs", len(result))


def _store_get(tracer, args, kwargs, result, error, seconds):
    tracer.count("campaign.store.gets")
    if error is None and result is not None:
        tracer.count("campaign.store.hits")


def _store_put(tracer, args, kwargs, result, error, seconds):
    if error is None:
        tracer.count("campaign.store.puts" if result else "campaign.store.races")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a class name, or ``None`` for a module function."""

    layer: str
    module: str
    owner: Optional[str]
    name: str
    observe: Optional[Observer] = None


TARGETS = (
    Target("utils.pn", "repro.utils.pn", "PNSequence", "bits", _pn_bits),
    Target("scrambler", "repro.scrambler.whitening", "Scrambler", "scramble"),
    Target("coding", "repro.coding.crc", "_BitwiseCRC", "compute"),
    Target("coding", "repro.coding.crc", "_BitwiseCRC", "verify", _crc_verify),
    Target("coding", "repro.coding.fec", "FECPipeline", "encode"),
    Target("coding", "repro.coding.fec", "FECPipeline", "decode"),
    Target("framing", "repro.framing.frame", "Framer", "build"),
    Target("framing", "repro.framing.frame", "Deframer", "parse", _deframe),
    Target("framing", "repro.framing.frame", "Deframer", "parse_backward"),
    Target("modulation", "repro.modulation.msk", "MSKModulator", "modulate", _modulated),
    Target("modulation", "repro.modulation.msk", "MSKDemodulator", "demodulate", _demodulated),
    Target("channel", "repro.channel.link", "Link", "distort"),
    Target("network", "repro.network.medium", "WirelessMedium", "deliver"),
    Target("anc", "repro.anc.pipeline", "ReceivePipeline", "receive", _received),
    Target("anc.decoder", "repro.anc.decoder", "InterferenceDecoder", "decode", _decoded),
    Target("protocols", "repro.protocols.traditional", "TraditionalRouting", "run"),
    Target("protocols", "repro.protocols.cope", "CopeRelayProtocol", "run"),
    Target("protocols", "repro.protocols.anc", "ANCRelayProtocol", "run"),
    Target("sim", "repro.sim.simulation", "TrafficSimulation", "__init__"),
    Target("sim", "repro.sim.simulation", "TrafficSimulation", "run", _sim_run),
    Target("sim.reception", "repro.sim.reception", "DecodeService", "decode_windows", _windows),
    Target("experiments.engine", "repro.experiments.engine", "ExperimentEngine", "map",
           _engine_map),
    Target("results", "repro.results", None, "render_text"),
    Target("results", "repro.results.render", None, "render_text"),
    Target("results", "repro.results.model", "ExperimentResult", "to_json"),
    Target("results", "repro.results.model", "ExperimentResult", "from_json"),
    Target("campaign.spec", "repro.campaign.spec", "CampaignSpec", "jobs", _spec_jobs),
    Target("campaign.store", "repro.campaign.store", "ResultStore", "get", _store_get),
    Target("campaign.store", "repro.campaign.store", "ResultStore", "put", _store_put),
    Target("campaign.runner", "repro.campaign.runner", "CampaignRunner", "run_jobs"),
    Target("api", "repro.api", None, "run"),
    Target("api", "repro.api", None, "run_campaign"),
)


def _wrap(fn: Callable, layer: str, observe: Optional[Observer], tracer: Tracer) -> Callable:
    """A transparent span around ``fn`` (coroutine functions stay coroutines)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            handle = tracer.open(layer)
            try:
                result = await fn(*args, **kwargs)
            except BaseException as error:
                seconds = tracer.close(handle)
                if observe is not None:
                    observe(tracer, args, kwargs, None, error, seconds)
                raise
            seconds = tracer.close(handle)
            if observe is not None:
                observe(tracer, args, kwargs, result, None, seconds)
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            seconds = tracer.close(handle)
            if observe is not None:
                observe(tracer, args, kwargs, None, error, seconds)
            raise
        seconds = tracer.close(handle)
        if observe is not None:
            observe(tracer, args, kwargs, result, None, seconds)
        return result

    return wrapper


class Installed:
    """Handle over the wrappers one :func:`install` put in place."""

    def __init__(self, originals: List[Tuple[Any, str, Any]]) -> None:
        self._originals = originals

    def uninstall(self) -> None:
        """Restore every original attribute, innermost first."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target so its calls record spans into ``tracer``."""
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            original = owner.__dict__[target.name] if target.owner else getattr(owner, target.name)
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    _wrap(original.__func__, target.layer, target.observe, tracer)
                )
            else:
                wrapped = _wrap(original, target.layer, target.observe, tracer)
            originals.append((owner, target.name, original))
            setattr(owner, target.name, wrapped)
    except BaseException:
        Installed(originals).uninstall()
        raise
    return Installed(originals)


def campaign_progress(tracer: Tracer) -> Callable[[Dict[str, Any]], None]:
    """A ``run_campaign`` progress callback feeding the runner counters.

    ``started`` events arrive inside the job's task, whose current span
    is the ``CampaignRunner.run_jobs`` span that enqueued every job; the
    time since that span opened is the job's queue wait.
    """

    def progress(event: Dict[str, Any]) -> None:
        if event["event"] == "started":
            enqueued = tracer.current_start()
            if enqueued is not None:
                tracer.count("campaign.runner.wait_s", time.perf_counter() - enqueued)
        elif event["event"] == "retry":
            tracer.count("campaign.runner.retries")

    return progress


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Counters the report prints but the JSON result leaves out: a time that
#: is exactly zero on every workload that never reaches its layer.
PRINT_ONLY = ("campaign.runner.wait_s",)


def metric_names() -> List[str]:
    """Names of the per-layer metrics a traced run's JSON result carries."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "share")]
    names += [name for name in derived_counters({}, 1) if name not in PRINT_ONLY]
    return names + ["trace.overhead", "trace.run_s"]


def derived_counters(counters: Dict[str, float], iterations: int) -> Dict[str, float]:
    """Per-iteration counters and ratios named as the report prints them."""
    c = counters
    per = 1.0 / max(iterations, 1)
    out = {
        "utils.pn.bits": c.get("utils.pn.bits", 0.0) * per,
        "coding.crc_fail_ratio": _ratio(c.get("coding.crc_fail", 0.0),
                                        c.get("coding.crc_verify", 0.0)),
        "framing.parse_ok_ratio": _ratio(c.get("framing.parse_ok", 0.0),
                                         c.get("framing.parse", 0.0)),
        "modulation.samples": c.get("modulation.samples", 0.0) * per,
        "anc.delivered_ratio": _ratio(c.get("anc.delivered", 0.0), c.get("anc.receive", 0.0)),
        "anc.decoder.errors": c.get("anc.decoder.errors", 0.0) * per,
        "sim.events": c.get("sim.events", 0.0) * per,
        "sim.events_per_s": _ratio(c.get("sim.events", 0.0), c.get("sim.run_s", 0.0)),
        "sim.reception.windows": c.get("sim.reception.windows", 0.0) * per,
        "experiments.engine.trials": c.get("experiments.engine.trials", 0.0) * per,
        "experiments.engine.cache_hits": c.get("experiments.engine.cache_hits", 0.0) * per,
        "campaign.spec.jobs": c.get("campaign.spec.jobs", 0.0) * per,
        "campaign.store.hit_ratio": _ratio(c.get("campaign.store.hits", 0.0),
                                           c.get("campaign.store.gets", 0.0)),
        "campaign.store.puts": c.get("campaign.store.puts", 0.0) * per,
        "campaign.store.races": c.get("campaign.store.races", 0.0) * per,
        "campaign.runner.wait_s": c.get("campaign.runner.wait_s", 0.0) * per,
        "campaign.runner.retries": c.get("campaign.runner.retries", 0.0) * per,
    }
    reasons = set(ANC_FAILURES) | {
        name[len("anc.fail."):] for name in c if name.startswith("anc.fail.")
    }
    for slug in sorted(reasons):
        out[f"anc.fail.{slug}"] = c.get(f"anc.fail.{slug}", 0.0) * per
    return out
