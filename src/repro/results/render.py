"""Plain-text rendering of :class:`ExperimentResult` tables.

:func:`render_text` formats a result straight from its ``series``,
``scalars`` and ``meta``; ``meta["renderer"]`` names the layout.  Every
text report of the reproduction — the figure reports, the capacity, SIR
and SNR tables, the §11.3 summary and the scenario sweeps — is formatted
here and nowhere else, and the ``tests/golden/render_*_quick.txt``
fixtures pin each layout byte for byte.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.results.model import ExperimentResult
from repro.utils.cdf import EmpiricalCDF

#: The paper's §11.3 headline numbers, shown next to the measured column.
PAPER_REFERENCE = {
    "alice_bob_gain_over_traditional": 1.70,
    "alice_bob_gain_over_cope": 1.30,
    "alice_bob_mean_ber": 0.04,
    "x_gain_over_traditional": 1.65,
    "x_gain_over_cope": 1.28,
    "chain_gain_over_traditional": 1.36,
    "chain_mean_ber": 0.015,
    "ber_at_minus3db_sir": 0.05,
}

#: Points the gain and BER CDF tables of a figure report are evaluated at.
GAIN_CDF_POINTS = np.round(np.arange(0.6, 2.05, 0.1), 2)
BER_CDF_POINTS = (0.0, 0.01, 0.02, 0.04, 0.06, 0.1, 0.2, 0.3, 0.5)


def format_cdf_table(cdf: EmpiricalCDF, points: Sequence[float], label: str = "value") -> str:
    """Render a CDF as a small text table evaluated at the given points."""
    lines = [f"{label:>12} | CDF"]
    lines.append("-" * len(lines[0]))
    for x, y in cdf.table(points):
        lines.append(f"{x:12.4f} | {y:5.3f}")
    return "\n".join(lines)


def gain_samples(result: ExperimentResult, baseline: str) -> List[float]:
    """Per-run throughput gains over ``baseline``, in run order.

    Reads the ``gains`` table of a figure report (Figs. 9, 10 and 12).
    """
    return [
        float(record["gain"])
        for record in result.get_series("gains").records()
        if record["baseline"] == baseline
    ]


def _render_report(result: ExperimentResult) -> str:
    """A figure report: one gain CDF per baseline, the BER CDF, the scalars."""
    lines = [f"=== {result.meta.get('title', result.name)} ==="]
    for baseline in result.meta.get("baselines", []):
        gains = gain_samples(result, baseline)
        cdf = EmpiricalCDF.from_samples(gains)
        mean = float(sum(gains) / len(gains))
        lines.append(
            f"ANC gain over {baseline}: mean {mean:.2f}x "
            f"({(mean - 1.0) * 100.0:+.0f}%), median {cdf.median:.2f}x, "
            f"runs={len(gains)}"
        )
        lines.append(format_cdf_table(cdf, GAIN_CDF_POINTS, label="gain"))
        lines.append("")
    if "ber" in result.series:
        ber = EmpiricalCDF.from_samples(result.get_series("ber").column("ber"))
        lines.append(
            f"ANC packet BER: mean {ber.mean:.4f}, "
            f"median {ber.median:.4f}, p90 {ber.quantile(0.9):.4f}"
        )
        lines.append(format_cdf_table(ber, BER_CDF_POINTS, label="BER"))
        lines.append("")
    for key, value in sorted(result.scalars.items()):
        lines.append(f"{key}: {value:.4f}")
    return "\n".join(lines)


def _render_capacity(result: ExperimentResult, step: int = 5) -> str:
    """The Fig. 7 capacity table (every ``step``-th SNR point).

    A crossover outside the swept grid is absent from the scalars (the
    model stores finite numbers only) and renders as ``nan``.
    """
    rows = result.get_series("curve").rows
    lines = ["SNR (dB) | traditional (b/s/Hz) | ANC (b/s/Hz) | gain"]
    lines.append("-" * len(lines[0]))
    for snr, trad, anc, gain in rows[::step]:
        lines.append(f"{snr:8.1f} | {trad:20.3f} | {anc:12.3f} | {gain:5.2f}")
    crossover = result.scalars.get("crossover_db", float("nan"))
    lines.append(f"crossover SNR: {crossover:.1f} dB")
    lines.append(f"gain at {rows[-1][0]:.0f} dB: {rows[-1][3]:.2f}x")
    return "\n".join(lines)


def _render_sir(result: ExperimentResult) -> str:
    """The Fig. 13 BER-vs-SIR table."""
    lines = ["SIR (dB) | mean BER | failures"]
    lines.append("-" * len(lines[0]))
    for point in result.get_series("points").records():
        lines.append(
            f"{point['sir_db']:8.1f} | {point['mean_ber']:8.4f} | "
            f"{point['decode_failures']:8d}"
        )
    return "\n".join(lines)


def _render_snr(result: ExperimentResult) -> str:
    """The extension SNR-sweep table."""
    lines = ["SNR (dB) | measured gain | theory gain | mean BER | delivery"]
    lines.append("-" * len(lines[0]))
    for point in result.get_series("points").records():
        lines.append(
            f"{point['snr_db']:8.1f} | {point['gain_over_traditional']:13.3f} | "
            f"{point['theoretical_gain']:11.3f} | {point['mean_ber']:8.4f} | "
            f"{point['delivery_ratio']:8.3f}"
        )
    return "\n".join(lines)


def _render_summary(result: ExperimentResult) -> str:
    """The §11.3 measured-vs-paper table."""
    lines = ["=== Summary of results (paper §11.3) ==="]
    lines.append(f"{'metric':38} | {'measured':>9} | {'paper':>7}")
    lines.append("-" * 62)
    for record in result.get_series("rows").records():
        key = str(record["metric"])
        reference = PAPER_REFERENCE.get(key, float("nan"))
        lines.append(f"{key:38} | {record['measured']:9.3f} | {reference:7.3f}")
    return "\n".join(lines)


def _scenario_gain(
    rows: Mapping[Any, Mapping[str, Mapping[str, float]]], lead: str, value: Any, baseline: str
) -> float:
    """Mean throughput of the lead scheme over ``baseline`` at one value."""
    base = rows[value][baseline]["throughput"]
    if base == 0.0:
        return float("inf")
    return rows[value][lead]["throughput"] / base


def _render_scenario(result: ExperimentResult) -> str:
    """A scenario sweep's summary table, from its long-format ``cells``."""
    rows: Dict[Any, Dict[str, Dict[str, float]]] = {}
    for record in result.get_series("cells").records():
        rows.setdefault(record["value"], {}).setdefault(str(record["scheme"]), {})[
            str(record["metric"])
        ] = float(record["mean"])
    schemes = [str(s) for s in result.meta["schemes"]]
    lead = schemes[0]
    baselines = [s for s in schemes if s != lead]
    labels = [str(result.meta["sweep_axis"])]
    labels += [f"{s} thpt" for s in schemes]
    labels += [f"{lead}/{b}" for b in baselines]
    labels += [f"{lead} dlvr", f"{lead} BER"]
    widths = [max(8, len(label)) for label in labels]
    lines = [f"=== scenario {result.name} ==="]
    lines.append(" | ".join(f"{label:>{w}}" for label, w in zip(labels, widths)))
    lines.append("-" * len(lines[1]))
    for value in result.meta["sweep_values"]:
        row = rows[value]
        cells = [f"{value!s}"]
        cells += [f"{row[s]['throughput']:.4f}" for s in schemes]
        cells += [f"{_scenario_gain(rows, lead, value, b):.2f}" for b in baselines]
        offered = row[lead]["offered"]
        delivery = row[lead]["delivered"] / offered if offered else 0.0
        cells += [f"{delivery:.3f}", f"{row[lead]['mean_ber']:.4f}"]
        lines.append(" | ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths)))
    lines.append(f"runs per point: {int(result.meta['runs'])}")
    return "\n".join(lines)


#: Renderer dispatch: ``result.meta["renderer"]`` -> text layout.
RENDERERS: Dict[str, Callable[[ExperimentResult], str]] = {
    "report": _render_report,
    "capacity": _render_capacity,
    "sir": _render_sir,
    "snr": _render_snr,
    "summary": _render_summary,
    "scenario": _render_scenario,
}


def render_text(result: ExperimentResult) -> str:
    """Render a structured result as its plain-text report."""
    renderer = result.meta.get("renderer")
    handler = RENDERERS.get(renderer)
    if handler is None:
        raise ConfigurationError(
            f"result {result.name!r} names no known renderer "
            f"({renderer!r}); known: {', '.join(RENDERERS)}"
        )
    return handler(result)
