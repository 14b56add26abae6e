"""Query-serving layer: lookups served when idle, over sharded indexes.

:class:`LookupEngine` sits above the lookup services: a single-query
``submit()`` is served at once when the engine is idle and joins the
next batch when it is not, every batch runs the cache -> embed -> search
-> rank stages, and per-stage timings are reported.  Built for the
paper's serving scenario (Section V) where many concurrent clients issue
single lookups against a (possibly sharded) vector index: under load
the clients' queries coalesce, and an idle engine makes nobody wait.

The ingestion side (:mod:`repro.serving.ingest`) streams change-feed
mutations into a live engine: :class:`ChangeFeedConsumer` applies
:class:`IndexMutation` records with bounded retry, dead-letters poison
records, and tracks the applied watermark while ``submit()`` traffic
keeps flowing.
"""

from repro.serving.engine import LookupEngine, PendingLookup
from repro.serving.ingest import (
    ChangeFeedConsumer,
    DeadLetter,
    IndexMutation,
    WatermarkTracker,
)

__all__ = [
    "ChangeFeedConsumer",
    "DeadLetter",
    "IndexMutation",
    "LookupEngine",
    "PendingLookup",
    "WatermarkTracker",
]
