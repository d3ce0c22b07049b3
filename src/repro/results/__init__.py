"""Typed, serializable experiment results (the structured-results pipeline).

This package is the stable programmatic contract for every experiment in
the reproduction:

* :mod:`repro.results.model` — :class:`ExperimentResult`, its
  :class:`Series`/:class:`Record` tables, and the lossless
  ``to_dict``/``from_dict``/JSON/CSV serialization with a versioned
  schema (:data:`SCHEMA_VERSION`), and
  :func:`~repro.results.model.make_result`, which every experiment uses
  to build its result directly from its trial outputs;
* :mod:`repro.results.render` — :func:`render_text`, which formats the
  plain-text report of any result from its tables, scalars and metadata
  (all of the library's text formatting lives there).

There is one result path: experiment → result tables → ``render_text``.

Obtain results through the facade::

    from repro import api

    result = api.run("alice-bob", config=ExperimentConfig.quick())
    print(render_text(result))          # the familiar text report
    path.write_text(result.to_json())   # machine-readable export

See ``docs/API.md`` for the schema reference.
"""

from repro.results.model import (
    SCHEMA_VERSION,
    Cell,
    ExperimentResult,
    Record,
    Series,
    config_digest,
)
from repro.results.render import render_text

__all__ = [
    "Cell",
    "ExperimentResult",
    "Record",
    "SCHEMA_VERSION",
    "Series",
    "config_digest",
    "render_text",
]
