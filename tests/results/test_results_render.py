"""Byte-identity of the text view over structured results.

For every registered experiment, ``render_text`` of its quick result —
pushed through a JSON round-trip first, so the view is proven to survive
serialization — must reproduce the pinned ``tests/golden/render_<name>_quick.txt``
fixture written by ``tools/make_golden.py`` *exactly*.
"""

from pathlib import Path

import pytest

from repro import api
from repro.experiments import ExperimentConfig
from repro.experiments.runner import REGISTRY
from repro.results import ExperimentResult, render_text

GOLDEN_DIR = Path(__file__).parent.parent / "golden"

#: The configuration ``tools/make_golden.py`` pins every fixture to.
GOLDEN_CONFIG = ExperimentConfig(runs=3, packets_per_run=4, payload_bits=512, seed=7)


def roundtripped(result):
    """Push a result through JSON and back before rendering it."""
    return ExperimentResult.from_json(result.to_json())


@pytest.mark.parametrize("name", list(REGISTRY))
def test_render_matches_golden(name):
    path = GOLDEN_DIR / f"render_{name}_quick.txt"
    assert path.is_file(), (
        f"missing text fixture {path}; regenerate with "
        "`PYTHONPATH=src python tools/make_golden.py`"
    )
    result = api.run(name, config=GOLDEN_CONFIG, quick=True)
    assert render_text(roundtripped(result)) + "\n" == path.read_text(), (
        f"{name} drifted from its pinned text; if the change is intentional, "
        "regenerate with tools/make_golden.py"
    )


def test_figure_runs_table_covers_every_scheme():
    result = api.run("alice-bob", config=GOLDEN_CONFIG)
    runs = result.get_series("runs")
    assert set(runs.column("scheme")) == {"anc", "traditional", "cope"}
    assert len(runs) == 3 * GOLDEN_CONFIG.runs


def test_renderer_dispatch_rejects_unknown():
    from repro.exceptions import ConfigurationError

    stray = ExperimentResult(name="toy", kind="figure", config={}, meta={})
    with pytest.raises(ConfigurationError):
        render_text(stray)


def test_capacity_absent_crossover_renders_nan():
    from repro.results import Series

    # A crossover outside the swept grid is undefined; the model stores
    # only finite numbers, so the scalar is omitted and renders as nan.
    result = ExperimentResult(
        name="capacity",
        kind="figure",
        config={},
        series={
            "curve": Series(
                "curve", ("snr_db", "traditional", "anc", "gain"),
                ((10.0, 1.0, 1.5, 1.5), (20.0, 2.0, 3.0, 1.5)),
            )
        },
        meta={"renderer": "capacity"},
    )
    text = render_text(ExperimentResult.from_json(result.to_json()))
    assert "crossover SNR: nan dB" in text
    assert text.endswith("gain at 20 dB: 1.50x")
