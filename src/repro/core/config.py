"""EmbLookup configuration.

Paper defaults: 64-d embeddings, triplet margin loss, Adam, batch 128,
100 epochs (offline mining for the first half, online hard mining for the
second), 100 triplets per entity, and product quantization to 8 bytes.
The constructor defaults here are scaled for a single-CPU box; the paper
values are documented per field and used by the benchmark harness where
runtime allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.triplets.mining import TripletMiningConfig

__all__ = ["EmbLookupConfig"]


@dataclass(frozen=True)
class EmbLookupConfig:
    """All knobs of the EmbLookup pipeline.

    Attributes
    ----------
    embedding_dim:
        Final embedding size (paper: 64).
    max_length:
        One-hot width ``L``; longer mentions are truncated.
    epochs:
        Training epochs (paper: 100).  The first ``hard_mining_start``
        fraction uses all triplets; afterwards easy (zero-loss) triplets
        are skipped.
    batch_size:
        Triplets per step (paper: 128).
    margin:
        Triplet-loss margin (scaled for L2-normalised embeddings, where
        squared distances live in [0, 4]).
    loss:
        ``"triplet"`` (the paper's objective) or ``"contrastive"`` (the
        pairwise alternative flagged in its future work).
    learning_rate:
        Adam learning rate.
    hard_mining_start:
        Fraction of epochs after which online hard/semi-hard mining kicks
        in (paper: 0.5).
    triplets_per_entity:
        Offline mining budget (paper default: 100).
    compression:
        ``"pq"`` (the paper's EL variant) or ``"none"`` (EL-NC).
    pq_m / pq_nbits:
        Product-quantization sub-vector count and bits per code
        (paper: 8 x 8 bits = 8 bytes/entity).
    fasttext_epochs / fasttext_buckets:
        Semantic-tower pre-training knobs.
    fasttext_objective:
        ``"anchored"`` (default; regress each entity's mentions onto a
        shared target — strongest alias co-location) or ``"sgns"`` (the
        published fastText skip-gram objective).
    finetune_fasttext:
        Whether triplet training updates the fastText table too.
    normalize_output:
        L2-normalise embeddings (cosine-equivalent ranking; on by default —
        it stabilises the fixed-margin triplet loss).
    index_entity_aliases:
        When true, aliases are indexed as additional rows per entity
        (higher recall, larger index — the optional variant of
        Section III-C).
    query_cache_size:
        When positive, services built over this pipeline keep an LRU
        query cache of that capacity (normalized query -> result) —
        the serving-path optimisation for skewed real-world traffic;
        0 (the default) disables caching so benchmark tables measure
        the raw scan.
    seed:
        Master seed; all internal randomness derives from it.
    """

    embedding_dim: int = 64
    max_length: int = 32
    epochs: int = 20
    batch_size: int = 128
    margin: float = 0.4
    loss: str = "triplet"
    learning_rate: float = 1e-3
    hard_mining_start: float = 0.5
    triplets_per_entity: int = 20
    compression: str = "pq"
    pq_m: int = 8
    pq_nbits: int = 8
    fasttext_epochs: int = 3
    fasttext_buckets: int = 2**15
    fasttext_objective: str = "anchored"
    finetune_fasttext: bool = False
    normalize_output: bool = True
    index_entity_aliases: bool = False
    query_cache_size: int = 0
    seed: int = 41
    mining: TripletMiningConfig = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if self.embedding_dim % self.pq_m != 0:
            raise ValueError(
                f"embedding_dim {self.embedding_dim} must be divisible by "
                f"pq_m {self.pq_m}"
            )
        if self.max_length < 1:
            raise ValueError("max_length must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.loss not in ("triplet", "contrastive"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.fasttext_objective not in ("anchored", "sgns"):
            raise ValueError(
                f"unknown fasttext_objective {self.fasttext_objective!r}"
            )
        if not 0.0 <= self.hard_mining_start <= 1.0:
            raise ValueError("hard_mining_start must be in [0, 1]")
        if self.compression not in ("pq", "none"):
            raise ValueError(f"unknown compression {self.compression!r}")
        if self.query_cache_size < 0:
            raise ValueError("query_cache_size must be >= 0")
        if self.mining is None:
            object.__setattr__(
                self,
                "mining",
                TripletMiningConfig(
                    triplets_per_entity=self.triplets_per_entity,
                    seed=self.seed,
                ),
            )

    @classmethod
    def paper_defaults(cls) -> "EmbLookupConfig":
        """The full-scale configuration reported in the paper."""
        return cls(
            embedding_dim=64,
            max_length=48,
            epochs=100,
            batch_size=128,
            triplets_per_entity=100,
            compression="pq",
        )
