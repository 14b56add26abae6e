"""The EmbLookup pipeline: train the embedding model, index the entities,
serve ``lookup(q, k)``.

Stages (paper Figure 1):

1. **fit** — build the alphabet from the KG's surface forms, pre-train the
   fastText tower on synonym groups, mine triplets, train the dual-tower
   model with triplet loss (offline triplets first, online hard mining in
   the second half of the epochs).
2. **index** — embed every entity's label (optionally its aliases too) and
   load the vectors into a Flat (EL-NC) or PQ (EL) index.
3. **lookup** — embed the query string and return the entities whose
   embeddings are nearest.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.core.config import EmbLookupConfig
from repro.embedding.emblookup_model import EmbLookupModel, MentionInputs
from repro.embedding.fasttext import FastTextConfig, FastTextModel
from repro.index.base import VectorIndex
from repro.index.flat import FlatIndex
from repro.index.pq import PQIndex
from repro.kg.graph import KnowledgeGraph
from repro.nn.loss import contrastive_losses, triplet_margin_losses
from repro.nn.optim import Adam
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor
from repro.text.alphabet import Alphabet
from repro.text.encoding import OneHotEncoder
from repro.text.tokenize import normalize
from repro.triplets.mining import Triplet, TripletMiner
from repro.utils.ranking import fetch_size, resolve_hits
from repro.utils.rng import as_rng

__all__ = ["EmbLookup", "LookupResult"]


@dataclass(frozen=True)
class LookupResult:
    """One candidate entity returned by ``lookup``."""

    entity_id: str
    distance: float


class EmbLookup:
    """End-to-end entity lookup system.

    >>> from repro.kg import generate_kg, SyntheticKGConfig
    >>> kg = generate_kg(SyntheticKGConfig(num_entities=200))
    >>> service = EmbLookup(EmbLookupConfig(epochs=2, triplets_per_entity=4))
    >>> service.fit(kg)                                   # doctest: +ELLIPSIS
    <repro.core.pipeline.EmbLookup object at ...>
    >>> candidates = service.lookup("germony", k=5)
    >>> len(candidates)
    5
    """

    def __init__(self, config: EmbLookupConfig | None = None):
        self.config = config or EmbLookupConfig()
        self.rng = as_rng(self.config.seed)
        self.model: EmbLookupModel | None = None
        self.index: VectorIndex | None = None
        self.encoder: OneHotEncoder | None = None
        self._row_to_entity: list[str] = []
        self._kg: KnowledgeGraph | None = None
        self.training_history: list[float] = []

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        kg: KnowledgeGraph,
        triplets: Sequence[Triplet] | None = None,
    ) -> "EmbLookup":
        """Train the model on ``kg`` and build the entity index.

        ``triplets`` overrides offline mining when supplied (used by the
        triplet-budget sweeps of Figure 3).
        """
        self._kg = kg
        corpus = [mention for mention, _ in kg.mention_rows()]
        alphabet = Alphabet.fit(corpus)
        self.encoder = OneHotEncoder(alphabet, max_length=self.config.max_length)

        fasttext = FastTextModel(
            FastTextConfig(
                dim=self.config.embedding_dim,
                buckets=self.config.fasttext_buckets,
                epochs=self.config.fasttext_epochs,
                seed=int(self.rng.integers(0, 2**31)),
            )
        )
        synonym_groups = [list(e.mentions) for e in kg.entities()]
        if self.config.fasttext_objective == "anchored":
            fasttext.fit_anchored(synonym_groups)
        else:
            fasttext.fit(synonym_groups)

        self.model = EmbLookupModel(
            self.encoder,
            fasttext,
            out_dim=self.config.embedding_dim,
            finetune_fasttext=self.config.finetune_fasttext,
            normalize_output=self.config.normalize_output,
            rng=self.rng,
        )

        if triplets is None:
            miner = TripletMiner(kg, self.config.mining)
            triplets = miner.mine()
        self._train(list(triplets))
        self.build_index(kg)
        return self

    def _train(self, triplets: list[Triplet]) -> None:
        assert self.model is not None
        if not triplets or self.config.epochs == 0:
            return
        cfg = self.config
        optimizer = Adam(list(self.model.parameters()), lr=cfg.learning_rate)
        # Per-fit constants: every distinct mention is encoded (codes, and
        # the frozen fastText vectors) once, and each batch gathers its
        # rows; a row depends on its own string only, so this is bit-equal
        # to encoding the batch afresh.
        names: dict[str, int] = {}
        rows = np.array(
            [
                [names.setdefault(m, len(names)) for m in triplet]
                for triplet in triplets
            ],
            dtype=np.intp,
        ).reshape(len(triplets), 3)
        inputs = self.model.mention_inputs(list(names))
        order = np.arange(len(triplets))
        hard_from = int(cfg.hard_mining_start * cfg.epochs)
        self.model.train()
        for epoch in range(cfg.epochs):
            online = epoch >= hard_from
            self.rng.shuffle(order)
            epoch_loss = 0.0
            steps = 0
            for start in range(0, len(order), cfg.batch_size):
                chunk = order[start : start + cfg.batch_size]
                loss = self._batch_loss(inputs, rows[chunk], online=online)
                if loss is None:
                    continue
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                steps += 1
            self.training_history.append(epoch_loss / max(steps, 1))
        self.model.eval()

    def _batch_loss(
        self, inputs: MentionInputs, batch: np.ndarray, online: bool
    ) -> Tensor | None:
        """Triplet loss for one batch — ``(B, 3)`` rows of ``inputs``, one
        (anchor, positive, negative) per line; in online mode easy triplets
        are masked out so only hard / semi-hard examples contribute."""
        assert self.model is not None
        size = len(batch)
        # One forward over the anchors, then the positives, then the negatives.
        out = self.model.forward_rows(inputs, batch.T.ravel())
        anchors, positives, negatives = (
            out[i * size : (i + 1) * size] for i in range(3)
        )
        loss_fn = (
            contrastive_losses
            if self.config.loss == "contrastive"
            else triplet_margin_losses
        )
        losses = loss_fn(
            anchors, positives, negatives, margin=self.config.margin
        )
        if not online:
            return losses.mean()
        mask = (losses.data > 0).astype(losses.data.dtype)
        active = mask.sum()
        if active == 0:
            return None
        return (losses * Tensor(mask)).sum() * (1.0 / active)

    # -- indexing --------------------------------------------------------------------

    def index_rows(
        self, kg: KnowledgeGraph | None = None
    ) -> tuple[list[str], list[str]]:
        """The (normalized mention, entity id) rows the index stores.

        Row ``i`` of the built index embeds ``mentions[i]`` and resolves to
        ``entity_ids[i]``; alias rows are included when the config enables
        them.  Public so alternative serving stacks (e.g. the sharded
        :class:`repro.serving.LookupEngine`) can rebuild an index with the
        same row <-> entity correspondence.
        """
        rows = list(
            self._require_kg(kg).mention_rows(self.config.index_entity_aliases)
        )
        return [m for m, _ in rows], [entity_id for _, entity_id in rows]

    def _require_kg(self, kg: KnowledgeGraph | None) -> KnowledgeGraph:
        kg = kg or self._kg
        if kg is None:
            raise RuntimeError("no knowledge graph available for indexing")
        return kg

    @property
    def kg(self) -> KnowledgeGraph | None:
        """The knowledge graph the pipeline was fitted / indexed over."""
        return self._kg

    @property
    def row_entity_ids(self) -> list[str]:
        """Entity id of each index row (copy; aligned with the built index)."""
        return list(self._row_to_entity)

    def build_index(self, kg: KnowledgeGraph | None = None) -> None:
        """(Re)build the vector index from the trained model."""
        if self.model is None:
            raise RuntimeError("EmbLookup.build_index called before fit()")
        self._kg = kg = self._require_kg(kg)

        mentions, self._row_to_entity = self.index_rows(kg)
        vectors = self._embed_in_batches(mentions)
        self.index = self._make_index()
        self.index.train(vectors)
        self.index.add(vectors)

    def _make_index(self) -> VectorIndex:
        cfg = self.config
        seed = int(self.rng.integers(0, 2**31))
        if cfg.compression == "none":
            return FlatIndex(cfg.embedding_dim)
        return PQIndex(cfg.embedding_dim, m=cfg.pq_m, nbits=cfg.pq_nbits, seed=seed)

    def _embed_in_batches(self, mentions: list[str], batch: int = 512) -> np.ndarray:
        """Embed already-normalised mentions, at most ``batch`` per forward."""
        assert self.model is not None
        chunks = [
            self.model.embed_normalized(mentions[i : i + batch])
            for i in range(0, len(mentions), batch)
        ]
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return np.empty((0, self.config.embedding_dim), dtype=np.float32)
        return np.concatenate(chunks, axis=0)

    # -- lookup ----------------------------------------------------------------------

    def embed_queries(self, queries: Sequence[str]) -> np.ndarray:
        """Embed query strings (normalized first) with the trained model."""
        if self.model is None:
            raise RuntimeError("EmbLookup.embed_queries called before fit()")
        return self._embed_in_batches([normalize(q) for q in queries])

    def embed_normalized(self, normalized: Sequence[str]) -> np.ndarray:
        """:meth:`embed_queries` for strings that are already ``normalize``d.

        Same result; the strings are embedded as given instead of being
        folded a second time (the serving engine normalizes every query
        once, on entry).
        """
        if self.model is None:
            raise RuntimeError("EmbLookup.embed_normalized called before fit()")
        return self._embed_in_batches(list(normalized))

    def lookup(self, query: str, k: int = 10) -> list[LookupResult]:
        """Top-``k`` candidate entities for one query string."""
        return self.lookup_batch([query], k)[0]

    def lookup_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> list[list[LookupResult]]:
        """Bulk lookup: one candidate list per query.

        Rows mapping to the same entity (when aliases are indexed) are
        deduplicated, keeping the closest row.
        """
        if self.model is None or self.index is None:
            raise RuntimeError("EmbLookup.lookup called before fit()")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not queries:
            return []
        embeddings = self.embed_queries(queries)
        fetch = fetch_size(
            k, self.config.index_entity_aliases, self.index.ntotal
        )
        result = self.index.search(embeddings, fetch)
        return resolve_hits(
            result.ids, result.distances, self._row_to_entity, k, LookupResult
        )

    def clone_with_compression(self, compression: str) -> "EmbLookup":
        """A new service sharing this trained model with a different index.

        Used to compare EL (PQ) against EL-NC (flat) without retraining —
        both variants embed with the identical model, exactly as the paper's
        EL / EL-NC columns do.
        """
        if self.model is None or self.encoder is None or self._kg is None:
            raise RuntimeError("clone_with_compression requires a fitted service")
        from dataclasses import replace

        clone = EmbLookup(replace(self.config, compression=compression))
        clone.model = self.model
        clone.encoder = self.encoder
        clone.build_index(self._kg)
        return clone

    # -- persistence ------------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist config, alphabet, model weights, and the row mapping."""
        if self.model is None or self.encoder is None:
            raise RuntimeError("EmbLookup.save called before fit()")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            # Every field but ``mining``, which ``__post_init__`` re-derives
            # from ``triplets_per_entity`` and ``seed``.
            "config": {
                f.name: getattr(self.config, f.name)
                for f in dataclasses.fields(self.config)
                if f.name != "mining"
            },
            "alphabet": "".join(self.encoder.alphabet.chars),
            "row_to_entity": self._row_to_entity,
        }
        (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        save_state_dict(self.model.state_dict(), directory / "model.npz")

    @classmethod
    def load(cls, directory: str | Path, kg: KnowledgeGraph) -> "EmbLookup":
        """Restore a saved service and rebuild its index over ``kg``."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise FileNotFoundError(f"no saved EmbLookup at {directory}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        # A key an older save did not write falls back to its default.
        known = {f.name for f in dataclasses.fields(EmbLookupConfig)} - {"mining"}
        config = EmbLookupConfig(
            **{k: v for k, v in meta["config"].items() if k in known}
        )
        service = cls(config)
        alphabet = Alphabet(meta["alphabet"])
        service.encoder = OneHotEncoder(alphabet, max_length=config.max_length)
        fasttext = FastTextModel(
            FastTextConfig(
                dim=config.embedding_dim,
                buckets=config.fasttext_buckets,
                seed=config.seed,
            )
        )
        service.model = EmbLookupModel(
            service.encoder,
            fasttext,
            out_dim=config.embedding_dim,
            normalize_output=config.normalize_output,
            rng=config.seed,
        )
        state = load_state_dict(directory / "model.npz")
        service.model.load_state_dict(state)
        service.model.eval()
        service.build_index(kg)
        return service
