"""The unified export surface for collected performance data.

Historically this repo had two modules -- ``repro.symbiosys.export``
(profile CSV, trace JSON) and ``repro.symbiosys.exporters``
(Prometheus text, series CSV).  They are now one package behind a
common :class:`~repro.symbiosys.export.registry.Exporter` protocol:

* :mod:`~repro.symbiosys.export.text` -- Prometheus exposition and
  time-series CSV,
* :mod:`~repro.symbiosys.export.profile` -- callpath-profile CSV and
  lossless trace-event JSON,
* :mod:`~repro.symbiosys.export.registry` -- the :class:`ExportBundle`
  / :class:`Exporter` protocol and the name registry
  (``prometheus``, ``csv``, ``profile``, ``json``, ``perfetto``,
  ``store``),
* :mod:`~repro.symbiosys.export.store` -- the exporter that archives a
  run into a :mod:`repro.store` database.

Every historical name still imports from here unchanged
(``from repro.symbiosys.export import events_to_json`` etc.).
"""

from .profile import (
    events_to_json,
    load_events_json,
    profile_to_rows,
    write_profile_csv,
)
from .registry import (
    ExportBundle,
    Exporter,
    exporter_names,
    get_exporter,
    register_exporter,
)
from .store import StoreExporter
from .text import series_to_csv, to_prometheus, write_text

__all__ = [
    "ExportBundle",
    "Exporter",
    "StoreExporter",
    "events_to_json",
    "exporter_names",
    "get_exporter",
    "load_events_json",
    "profile_to_rows",
    "register_exporter",
    "series_to_csv",
    "to_prometheus",
    "write_profile_csv",
    "write_text",
]
