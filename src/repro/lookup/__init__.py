"""Lookup services.

Every service answers ``lookup(q, k)`` as *rows plus a scorer*.  The rows
come from the KG's one row walk (``KnowledgeGraph.mention_rows``); the
string baselines of the paper's Table V (FuzzyWuzzy, ElasticSearch-style
BM25, LSH, q-gram, Levenshtein scan) hold them in a :class:`LabelRows`
table through :class:`RowTableLookup` and add only a scoring loop, the
embedding services (:class:`EmbLookupService` over the core pipeline,
:class:`EmbedderLookupService` over any embedder) hold them beside a
vector index, and exact match is a :class:`LabelHashTable`.  One ranker
(:mod:`repro.utils.ranking`) selects the best ``k`` rows and resolves them
to distinct entities under one order, ``(score desc, row asc)``: at a tie
the lowest row wins, whatever order a set or dict was filled in.
:class:`QueryCache` adds an LRU over normalized queries for the serving
path (embedding memoization and a ``read_through`` for whole results).
:class:`LookupRouter` tiers the services: exact label-hash hits
short-circuit in O(1), short/symbolic strings route to the cheap string
services, and only the remainder pays for the embedding + ANN path; all
tiers key on the one :func:`normalize` helper.  The simulated Wikidata /
SearX endpoints wrap a local matcher with a latency model.
"""

from repro.lookup.base import Candidate, LookupService
from repro.lookup.cache import CacheStats, QueryCache
from repro.lookup.normalize import normalize
from repro.lookup.rows import LabelRows, RowTableLookup
from repro.lookup.router import LabelHashTable, LookupRouter, TypeFilterMap
from repro.lookup.embedder_service import EmbedderLookupService
from repro.lookup.emblookup_service import EmbLookupService
from repro.lookup.exact import ExactMatchLookup
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.fuzzy import FuzzyWuzzyLookup
from repro.lookup.qgram import QGramLookup
from repro.lookup.elastic import ElasticLookup
from repro.lookup.lsh_lookup import LSHStringLookup
from repro.lookup.remote import RemoteServiceModel, SimulatedRemoteLookup

__all__ = [
    "CacheStats",
    "Candidate",
    "ElasticLookup",
    "EmbLookupService",
    "EmbedderLookupService",
    "ExactMatchLookup",
    "FuzzyWuzzyLookup",
    "LSHStringLookup",
    "LabelHashTable",
    "LabelRows",
    "LevenshteinLookup",
    "LookupRouter",
    "LookupService",
    "QGramLookup",
    "QueryCache",
    "RemoteServiceModel",
    "RowTableLookup",
    "SimulatedRemoteLookup",
    "TypeFilterMap",
    "normalize",
]
