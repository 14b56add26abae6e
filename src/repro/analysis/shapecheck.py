"""Shape/dtype abstract interpretation of the EmbLookup dual tower.

Training runs are long (the paper's setting is 100 epochs); a dimension or
dtype mismatch between the CNN tower, the fastText tower, and the fusion
MLP should be caught *before* any data is touched.  This module propagates
symbolic ``(shape, dtype)`` values — batch size stays symbolic — through
the exact layer stack :class:`repro.embedding.cnn.CharCNNEncoder` and
:class:`repro.embedding.emblookup_model.EmbLookupModel` build:

``one-hot (N, |A|, L) → [conv1d k=3 p=1 → relu → pool/2]* → flatten →
linear head`` for the syntactic tower, ``embedding-bag (buckets, d)`` for
the semantic tower, then ``concat → fuse1 → relu → fuse2`` for the MLP.

Every abstract op validates its operands and raises :class:`ShapeError`
with the failing stage name, so ``repro shapecheck`` can reject a
mis-sized configuration statically while accepting the paper's 64-d
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EmbLookupConfig

__all__ = [
    "AbstractTensor",
    "DualTowerSpec",
    "ShapeError",
    "ShapeReport",
    "check_dual_tower",
]

_FLOAT_DTYPES = ("float32", "float64")


class ShapeError(ValueError):
    """A static shape or dtype inconsistency in a layer stack."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class AbstractTensor:
    """A symbolic tensor: concrete dims, symbolic batch, and a dtype.

    ``None`` in ``shape`` denotes the symbolic batch dimension ``N``.
    """

    shape: tuple[int | None, ...]
    dtype: str

    def __post_init__(self) -> None:
        for dim in self.shape:
            if dim is not None and dim < 1:
                raise ShapeError(
                    "abstract-tensor", f"non-positive dimension in {self.shape}"
                )
        if self.dtype not in _FLOAT_DTYPES:
            raise ShapeError(
                "abstract-tensor",
                f"dtype must be one of {_FLOAT_DTYPES}, got {self.dtype!r}",
            )

    def __str__(self) -> str:
        dims = ", ".join("N" if d is None else str(d) for d in self.shape)
        return f"({dims}) {self.dtype}"


# -- abstract ops -----------------------------------------------------------------


def _conv1d(
    stage: str,
    x: AbstractTensor,
    out_channels: int,
    in_channels: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> AbstractTensor:
    if len(x.shape) != 3:
        raise ShapeError(stage, f"conv1d expects (N, C, L), got {x}")
    _, channels, length = x.shape
    if channels != in_channels:
        raise ShapeError(
            stage,
            f"channel mismatch: input has {channels}, weight expects "
            f"{in_channels}",
        )
    assert length is not None
    if length + 2 * padding < kernel:
        raise ShapeError(
            stage,
            f"input length {length} (+{2 * padding} pad) shorter than "
            f"kernel {kernel}",
        )
    out_len = (length + 2 * padding - kernel) // stride + 1
    return AbstractTensor((None, out_channels, out_len), x.dtype)


def _max_pool1d(
    stage: str, x: AbstractTensor, kernel: int, stride: int
) -> AbstractTensor:
    if len(x.shape) != 3:
        raise ShapeError(stage, f"max_pool1d expects (N, C, L), got {x}")
    _, channels, length = x.shape
    assert length is not None
    out_len = (length - kernel) // stride + 1
    if out_len <= 0:
        raise ShapeError(
            stage, f"pool kernel {kernel} larger than input length {length}"
        )
    return AbstractTensor((None, channels, out_len), x.dtype)


def _flatten(stage: str, x: AbstractTensor) -> AbstractTensor:
    if len(x.shape) != 3:
        raise ShapeError(stage, f"flatten expects (N, C, L), got {x}")
    _, channels, length = x.shape
    assert channels is not None and length is not None
    return AbstractTensor((None, channels * length), x.dtype)


def _linear(
    stage: str, x: AbstractTensor, in_features: int, out_features: int
) -> AbstractTensor:
    if len(x.shape) != 2:
        raise ShapeError(stage, f"linear expects (N, F), got {x}")
    features = x.shape[1]
    if features != in_features:
        raise ShapeError(
            stage,
            f"linear expects in_features={in_features}, got input with "
            f"{features} features",
        )
    return AbstractTensor((None, out_features), x.dtype)


def _concat(stage: str, a: AbstractTensor, b: AbstractTensor) -> AbstractTensor:
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError(stage, f"concat expects two (N, F) tensors, got {a} / {b}")
    if a.dtype != b.dtype:
        raise ShapeError(
            stage,
            f"dtype mismatch between towers: {a.dtype} vs {b.dtype} "
            "(mixed-precision concat silently promotes to float64)",
        )
    assert a.shape[1] is not None and b.shape[1] is not None
    return AbstractTensor((None, a.shape[1] + b.shape[1]), a.dtype)


def _embedding_bag(
    stage: str, num_embeddings: int, dim: int, dtype: str
) -> AbstractTensor:
    if num_embeddings < 1 or dim < 1:
        raise ShapeError(
            stage,
            f"embedding-bag needs positive table dims, got "
            f"({num_embeddings}, {dim})",
        )
    return AbstractTensor((None, dim), dtype)


# -- the dual-tower specification --------------------------------------------------


@dataclass(frozen=True)
class DualTowerSpec:
    """Static description of one EmbLookup dual-tower instantiation.

    Mirrors the constructor arguments of ``CharCNNEncoder`` and
    ``EmbLookupModel``; ``mlp_in`` defaults to the fused width
    (``out_dim + fasttext_dim``) exactly as the model computes it, but can
    be pinned explicitly — a refactor that changes one tower without
    updating the fusion layer is then rejected statically.

    ``fasttext_dtype`` defaults to ``dtype``; setting it differently
    models a pre-trained semantic tower loaded at the wrong precision.
    """

    alphabet_size: int
    max_length: int
    out_dim: int = 64
    cnn_channels: int = 8
    cnn_layers: int = 5
    cnn_kernel: int = 3
    cnn_padding: int = 1
    pool_every: int = 2
    fasttext_dim: int = 64
    fasttext_buckets: int = 2**15
    mlp_in: int | None = None
    mlp_hidden: int | None = None
    pq_m: int | None = 8
    dtype: str = "float32"
    fasttext_dtype: str | None = None

    @classmethod
    def from_config(
        cls,
        config: EmbLookupConfig,
        alphabet_size: int = 40,
        **overrides: object,
    ) -> "DualTowerSpec":
        """Build a spec from an :class:`EmbLookupConfig`.

        ``alphabet_size`` defaults to a typical fitted alphabet (lowercase
        letters + digits + punctuation); pass the real ``Alphabet.size``
        when one is available.  ``overrides`` pin individual fields.
        """
        base = {
            "alphabet_size": alphabet_size,
            "max_length": config.max_length,
            "out_dim": config.embedding_dim,
            "fasttext_dim": config.embedding_dim,
            "fasttext_buckets": config.fasttext_buckets,
            "pq_m": config.pq_m if config.compression == "pq" else None,
        }
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ShapeReport:
    """Successful propagation trace: ``(stage name, abstract tensor)`` pairs."""

    stages: tuple[tuple[str, AbstractTensor], ...]
    output: AbstractTensor
    notes: tuple[str, ...] = field(default=())

    def format(self) -> str:
        """Fixed-width table of the propagation trace."""
        width = max(len(name) for name, _ in self.stages)
        lines = [f"{'stage'.ljust(width)}  output"]
        for name, tensor in self.stages:
            lines.append(f"{name.ljust(width)}  {tensor}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"OK: dual tower is shape/dtype consistent -> {self.output}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation of the trace."""
        return {
            "stages": [
                {"stage": name, "shape": list(t.shape), "dtype": t.dtype}
                for name, t in self.stages
            ],
            "output": {"shape": list(self.output.shape), "dtype": self.output.dtype},
            "notes": list(self.notes),
        }


def check_dual_tower(spec: DualTowerSpec) -> ShapeReport:
    """Propagate ``(shape, dtype)`` through the dual-tower stack.

    Returns a :class:`ShapeReport` on success; raises :class:`ShapeError`
    naming the offending stage on any dimension or dtype inconsistency.
    """
    if spec.alphabet_size < 1:
        raise ShapeError("one-hot", "alphabet_size must be positive")
    if spec.max_length < 1:
        raise ShapeError("one-hot", "max_length must be positive")
    if spec.cnn_layers < 1:
        raise ShapeError("cnn", "cnn_layers must be >= 1")

    stages: list[tuple[str, AbstractTensor]] = []
    x = AbstractTensor((None, spec.alphabet_size, spec.max_length), spec.dtype)
    stages.append(("one-hot", x))

    # Syntactic tower: mirrors CharCNNEncoder.__init__/forward exactly,
    # including the "only pool while length >= 2" construction guard.
    in_channels = spec.alphabet_size
    length = spec.max_length
    for layer in range(spec.cnn_layers):
        stage = f"conv{layer} (k={spec.cnn_kernel}, p={spec.cnn_padding})"
        x = _conv1d(
            stage,
            x,
            out_channels=spec.cnn_channels,
            in_channels=in_channels,
            kernel=spec.cnn_kernel,
            padding=spec.cnn_padding,
        )
        stages.append((stage, x))
        in_channels = spec.cnn_channels
        pool_here = (
            spec.pool_every > 0
            and (layer + 1) % spec.pool_every == 0
            and length >= 2
        )
        if pool_here:
            stage = f"maxpool{layer} (k=2, s=2)"
            x = _max_pool1d(stage, x, kernel=2, stride=2)
            stages.append((stage, x))
            length //= 2

    x = _flatten("flatten", x)
    stages.append(("flatten", x))
    head_in = spec.cnn_channels * length
    x = _linear("cnn-head", x, in_features=head_in, out_features=spec.out_dim)
    stages.append(("cnn-head", x))

    # Semantic tower: subword embedding-bag mean pooling.
    fasttext_dtype = spec.fasttext_dtype or spec.dtype
    semantic = _embedding_bag(
        "embedding-bag", spec.fasttext_buckets, spec.fasttext_dim, fasttext_dtype
    )
    stages.append(("embedding-bag", semantic))

    # Fusion MLP.
    fused = _concat("concat", x, semantic)
    stages.append(("concat", fused))
    mlp_in = spec.mlp_in if spec.mlp_in is not None else spec.out_dim + spec.fasttext_dim
    hidden = spec.mlp_hidden if spec.mlp_hidden is not None else mlp_in
    fused = _linear("fuse1", fused, in_features=mlp_in, out_features=hidden)
    stages.append(("fuse1", fused))
    out = _linear("fuse2", fused, in_features=hidden, out_features=spec.out_dim)
    stages.append(("fuse2", out))

    notes: list[str] = []
    if spec.pq_m is not None:
        if spec.out_dim % spec.pq_m != 0:
            raise ShapeError(
                "pq",
                f"embedding_dim {spec.out_dim} not divisible by pq_m "
                f"{spec.pq_m}; product quantization cannot split the vector",
            )
        notes.append(
            f"pq: {spec.out_dim}-d {out.dtype} vector "
            f"({spec.out_dim * (4 if out.dtype == 'float32' else 8)} B) "
            f"compresses to {spec.pq_m} B codes"
        )
    return ShapeReport(stages=tuple(stages), output=out, notes=tuple(notes))
