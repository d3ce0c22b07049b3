"""Unit and property tests for the typed result model and its serialization.

The JSON round-trip property tests are the contract behind the
machine-readable exports: ``from_dict(to_dict(r)) == r`` and
``from_json(to_json(r)) == r`` must hold for *any* representable result,
not just the ones today's experiments produce.
"""

import math
from collections import namedtuple
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.results.model import (
    SCHEMA_VERSION,
    ExperimentResult,
    Record,
    Series,
    _is_cell,
    _jsonify,
    config_digest,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)


@st.composite
def series_tables(draw):
    """A structurally valid Series with random cells."""
    columns = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    rows = draw(
        st.lists(
            st.tuples(*([cells] * len(columns))),
            min_size=0,
            max_size=6,
        )
    )
    return Series(name=draw(names), columns=tuple(columns), rows=tuple(rows))


@st.composite
def experiment_results(draw):
    """A structurally valid ExperimentResult with random content."""
    tables = draw(st.lists(series_tables(), min_size=0, max_size=3))
    series = {}
    for table in tables:
        if table.name not in series:
            series[table.name] = table
    return ExperimentResult(
        name=draw(names),
        kind=draw(st.sampled_from(["figure", "scenario"])),
        config=draw(
            st.dictionaries(names, cells, max_size=5)
        ),
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        series=series,
        scalars=draw(
            st.dictionaries(
                names,
                st.floats(allow_nan=False, allow_infinity=False),
                max_size=4,
            )
        ),
        meta=draw(st.dictionaries(names, cells, max_size=4)),
    )


# ----------------------------------------------------------------------
# Property tests: lossless serialization
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    @given(series_tables())
    @settings(max_examples=100, deadline=None)
    def test_series_dict_round_trip(self, table):
        assert Series.from_dict(table.to_dict()) == table

    @given(experiment_results())
    @settings(max_examples=100, deadline=None)
    def test_result_dict_round_trip(self, result):
        assert ExperimentResult.from_dict(result.to_dict()) == result

    @given(experiment_results())
    @settings(max_examples=100, deadline=None)
    def test_result_json_round_trip(self, result):
        assert ExperimentResult.from_json(result.to_json()) == result

    @given(experiment_results())
    @settings(max_examples=50, deadline=None)
    def test_csv_is_schema_versioned(self, result):
        text = result.to_csv()
        assert text.startswith(f"schema_version,{SCHEMA_VERSION}")
        for table in result.series.values():
            assert f"[series {table.name}]" in text

    @given(experiment_results())
    @settings(max_examples=50, deadline=None)
    def test_digest_is_stable_and_config_keyed(self, result):
        assert result.config_digest == config_digest(result.config)


# ----------------------------------------------------------------------
# Unit tests: validation and accessors
# ----------------------------------------------------------------------
class TestSeries:
    def test_records_and_column(self):
        table = Series(name="points", columns=("x", "y"), rows=((1, 2.0), (3, 4.0)))
        assert table.column("x") == [1, 3]
        assert len(table) == 2
        records = table.records()
        assert isinstance(records[0], Record)
        assert records[0]["y"] == 2.0
        assert dict(records[1]) == {"x": 3, "y": 4.0}
        assert len(records[0]) == 2
        assert repr(records[0]) == "Record({'x': 1, 'y': 2.0})"

    def test_row_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Series(name="bad", columns=("a", "b"), rows=((1,),))

    @pytest.mark.parametrize(
        "name, columns, match",
        [("", ("a",), "non-empty name"), ("bare", (), "needs at least one column")],
    )
    def test_degenerate_shape_rejected(self, name, columns, match):
        with pytest.raises(ConfigurationError, match=match):
            Series(name=name, columns=columns, rows=())

    def test_from_dict_names_the_missing_key(self):
        with pytest.raises(ConfigurationError, match="series payload is missing key 'rows'"):
            Series.from_dict({"name": "points", "columns": ["x"]})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Series(name="bad", columns=("a", "a"), rows=())

    def test_non_scalar_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            Series(name="bad", columns=("a",), rows=(([1, 2],),))

    def test_unknown_column_lookup(self):
        table = Series(name="points", columns=("x",), rows=())
        with pytest.raises(ConfigurationError):
            table.column("nope")


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            name="toy",
            kind="figure",
            config={"seed": 7, "runs": 3},
            seed=7,
            series={"t": Series(name="t", columns=("v",), rows=((1,),))},
            scalars={"answer": 42.0},
            meta={"renderer": "report"},
        )

    def test_unknown_schema_version_rejected(self):
        payload = self._result().to_dict()
        payload["schema_version"] = "anc-repro.result/999"
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_dict(payload)

    def test_missing_schema_version_rejected(self):
        payload = self._result().to_dict()
        del payload["schema_version"]
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_dict(payload)

    def test_from_dict_names_the_missing_key(self):
        payload = self._result().to_dict()
        del payload["scalars"]
        with pytest.raises(ConfigurationError, match="result payload is missing key 'scalars'"):
            ExperimentResult.from_dict(payload)

    def test_series_values_must_be_series(self):
        with pytest.raises(ConfigurationError, match="series 't' must be a Series instance"):
            ExperimentResult(name="toy", kind="figure", config={}, series={"t": {"v": [1]}})

    def test_series_key_must_match_table_name(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(
                name="toy",
                kind="figure",
                config={},
                series={"a": Series(name="b", columns=("v",), rows=())},
            )

    def test_scalars_must_be_numbers(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult(name="toy", kind="figure", config={}, scalars={"k": "v"})

    def test_non_finite_values_rejected_everywhere(self):
        # NaN/inf cannot survive strict JSON nor the equality round-trip,
        # so the model refuses them at construction.
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                ExperimentResult(name="toy", kind="figure", config={}, scalars={"k": bad})
            with pytest.raises(ConfigurationError):
                Series(name="s", columns=("v",), rows=((bad,),))
            with pytest.raises(ConfigurationError):
                ExperimentResult(name="toy", kind="figure", config={}, meta={"k": bad})

    def test_json_export_is_strict(self):
        # allow_nan=False end to end: a well-formed result always emits
        # RFC-compliant JSON that json.loads(strict parsers) accept.
        result = self._result()
        import json

        payload = json.loads(result.to_json())
        assert payload["scalars"]["answer"] == 42.0

    def test_get_series_error_names_available(self):
        with pytest.raises(ConfigurationError):
            self._result().get_series("missing")

    def test_with_meta_merges(self):
        enriched = self._result().with_meta(engine={"workers": 2})
        assert enriched.meta["renderer"] == "report"
        assert enriched.meta["engine"]["workers"] == 2

    def test_tuples_normalised_for_json_equality(self):
        result = ExperimentResult(
            name="toy", kind="figure", config={"range": (1.0, 2.0)},
            meta={"values": (1, 2, 3)},
        )
        assert result.config["range"] == [1.0, 2.0]
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_json("not json")
        with pytest.raises(ConfigurationError):
            ExperimentResult.from_json("[1, 2]")


# ----------------------------------------------------------------------
# The exact-type fast paths accept and reject what the isinstance chain did
# ----------------------------------------------------------------------
def _reference_is_cell(value):
    """``_is_cell`` as it was before its exact-type checks."""
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or isinstance(value, (bool, int, str))


def _reference_jsonify(value):
    """``_jsonify`` as it was before its exact-type checks."""
    if isinstance(value, Mapping):
        return {str(key): _reference_jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_jsonify(item) for item in value]
    if _reference_is_cell(value):
        return value
    raise ConfigurationError(f"not a JSON value: {value!r}")


_Pair = namedtuple("_Pair", "low high")

#: Each value and whether it is a finite JSON scalar cell.
CELL_CASES = [
    pytest.param(1.5, True, id="float"),
    pytest.param(np.float64(0.25), True, id="np.float64"),
    pytest.param(np.float64("nan"), False, id="np.float64-nan"),
    pytest.param(np.int64(3), False, id="np.int64"),
    pytest.param(np.bool_(True), False, id="np.bool_"),
    pytest.param(True, True, id="bool"),
    pytest.param(7, True, id="int"),
    pytest.param("text", True, id="str"),
    pytest.param(None, True, id="None"),
    pytest.param(float("nan"), False, id="nan"),
    pytest.param(float("inf"), False, id="inf"),
    pytest.param(-float("inf"), False, id="-inf"),
    pytest.param((1, 2), False, id="tuple"),
    pytest.param([1, 2], False, id="list"),
    pytest.param({"a": 1}, False, id="dict"),
    pytest.param(Record(("a",), (1,)), False, id="Record"),
    pytest.param(object(), False, id="object"),
]


class TestExactTypeFastPaths:
    @pytest.mark.parametrize("value, is_cell", CELL_CASES)
    def test_is_cell_answers_as_before(self, value, is_cell):
        assert _is_cell(value) is is_cell
        assert _reference_is_cell(value) is is_cell

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(
                {"range": (1.0, 2.0), "n": 3, "ok": True, "none": None}, id="dict-of-tuple"
            ),
            pytest.param([(1, 2), [3.5, "x"], ()], id="nested-sequences"),
            pytest.param(_Pair(0.1, 0.9), id="namedtuple"),
            pytest.param(Record(("a", "b"), (1, 2.5)), id="Record"),
            pytest.param({"rows": [Record(("a",), (np.float64(0.5),))]}, id="Record-in-dict"),
            pytest.param({1: "int key", 2.5: "float key"}, id="non-str-keys"),
            pytest.param(np.float64(0.25), id="np.float64"),
            pytest.param(True, id="bool"),
        ],
    )
    def test_jsonify_accepts_as_before(self, value):
        converted = _jsonify(value)
        reference = _reference_jsonify(value)
        assert converted == reference
        assert repr(converted) == repr(reference)

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(float("nan"), id="nan"),
            pytest.param({"x": float("inf")}, id="inf-in-dict"),
            pytest.param([1, (2, float("nan"))], id="nan-in-tuple"),
            pytest.param(np.int64(3), id="np.int64"),
            pytest.param({"x": np.float64("nan")}, id="np.float64-nan"),
            pytest.param(Record(("a",), (float("nan"),)), id="nan-in-Record"),
            pytest.param({"x": {1, 2}}, id="set"),
            pytest.param(object(), id="object"),
        ],
    )
    def test_jsonify_rejects_as_before(self, value):
        with pytest.raises(ConfigurationError):
            _reference_jsonify(value)
        with pytest.raises(ConfigurationError):
            _jsonify(value)

    @pytest.mark.parametrize("value, is_cell", CELL_CASES)
    def test_series_cells_follow_is_cell(self, value, is_cell):
        if is_cell:
            assert Series(name="t", columns=("a",), rows=((value,),)).rows == ((value,),)
        else:
            with pytest.raises(ConfigurationError):
                Series(name="t", columns=("a",), rows=((value,),))
