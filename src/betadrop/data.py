"""Dataset ingestion (MNIST IDX), synthetic fixtures, splitting, batching."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .distributions import make_rng
from .errors import ContractError, IdxCountMismatchError, IdxMagicError, IdxTruncatedError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray  # (N, ...) float64
    labels: np.ndarray  # (N,) int64 class indices
    name: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ContractError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.images[idx], self.labels[idx], self.name, dict(self.meta))

    def split(self, fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded shuffle-split: (1-fraction, fraction) of the examples."""
        n = len(self)
        perm = make_rng(seed).permutation(n)
        cut = n - int(round(fraction * n))
        return self.subset(perm[:cut]), self.subset(perm[cut:])


def load_idx(images_path, labels_path, normalize: bool = True) -> Dataset:
    """Parse the big-endian IDX pair (images magic 0x803, labels magic 0x801).

    Pixel bytes are scaled to [0, 1] unless ``normalize`` is False.
    """
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise IdxTruncatedError(f"{images_path}: header truncated")
        magic, n, rows, cols = struct.unpack(">iiii", header)
        if magic != IDX_IMAGES_MAGIC:
            raise IdxMagicError(
                f"{images_path}: magic {magic:#010x}, expected {IDX_IMAGES_MAGIC:#010x}"
            )
        buf = fh.read(n * rows * cols)
        if len(buf) < n * rows * cols:
            raise IdxTruncatedError(
                f"{images_path}: expected {n * rows * cols} pixel bytes, got {len(buf)}"
            )
    images = np.frombuffer(buf, dtype=np.uint8).astype(np.float64).reshape(n, rows, cols)
    if normalize:
        images /= 255.0

    with open(labels_path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise IdxTruncatedError(f"{labels_path}: header truncated")
        magic, n_labels = struct.unpack(">ii", header)
        if magic != IDX_LABELS_MAGIC:
            raise IdxMagicError(
                f"{labels_path}: magic {magic:#010x}, expected {IDX_LABELS_MAGIC:#010x}"
            )
        buf = fh.read(n_labels)
        if len(buf) < n_labels:
            raise IdxTruncatedError(
                f"{labels_path}: expected {n_labels} label bytes, got {len(buf)}"
            )
    if n_labels != n:
        raise IdxCountMismatchError(f"{n} images but {n_labels} labels")
    labels = np.frombuffer(buf, dtype=np.uint8).astype(np.int64)
    return Dataset(images, labels, name="idx")


def synthetic_planted_sparsity(n: int, d: int, k_signal: int, seed: int = 0,
                               noise: float = 0.5) -> Dataset:
    """Binary-label data where exactly ``k_signal`` features carry signal.

    The signal features (seeded random positions, recorded in
    ``meta["signal_idx"]``) take value ``sign_j * (2y - 1) + N(0, noise^2)``
    with signs alternating, so a linear classifier on the signal features
    alone separates the classes with a wide margin; the remaining features
    are pure N(0, 1) noise.
    """
    if k_signal > d:
        raise ContractError(f"k_signal={k_signal} exceeds d={d}")
    rng = make_rng(seed)
    signal_idx = np.sort(rng.choice(d, size=k_signal, replace=False))
    signs = np.where(np.arange(k_signal) % 2 == 0, 1.0, -1.0)
    labels = rng.integers(0, 2, size=n)
    x = rng.normal(0.0, 1.0, size=(n, d))
    y_pm = 2.0 * labels - 1.0
    x[:, signal_idx] = signs[None, :] * y_pm[:, None] + rng.normal(
        0.0, noise, size=(n, k_signal)
    )
    return Dataset(
        x,
        labels.astype(np.int64),
        name="planted",
        meta={"signal_idx": [int(i) for i in signal_idx], "d": d, "k_signal": k_signal},
    )


def synthetic_two_cluster(n: int, d: int, seed: int = 0, active: float = 1.5,
                          noise: float = 0.3) -> Dataset:
    """Two classes that live on disjoint feature halves.

    Class 0 activates features [0, d/2) around ``active`` (per-feature signed
    pattern), class 1 activates [d/2, d); a class's inactive half stays near
    zero.  Every feature is informative for exactly one class, so an
    input-independent gate must keep all of them while an input-dependent
    gate can drop half per example.
    """
    if d % 2:
        raise ContractError(f"two-cluster fixture needs even d, got {d}")
    rng = make_rng(seed)
    half = d // 2
    labels = rng.integers(0, 2, size=n)
    pattern = np.where(rng.random(d) < 0.5, 1.0, -1.0) * active
    x = rng.normal(0.0, noise, size=(n, d))
    for cls, sl in ((0, slice(0, half)), (1, slice(half, d))):
        rows = labels == cls
        x[np.ix_(rows, np.arange(d)[sl])] += pattern[sl]
    return Dataset(
        x,
        labels.astype(np.int64),
        name="two_cluster",
        meta={"d": d, "halves": [[0, half], [half, d]]},
    )


def batches_per_epoch(n: int, batch_size: int) -> int:
    """Number of minibatches :func:`batch_iterator` yields per epoch of n examples."""
    count = -(-n // batch_size)
    return count - 1 if n % batch_size == 1 else count


def batch_iterator(dataset: Dataset, batch_size: int, seed: int, epochs: int = 1):
    """Yield (images, labels) minibatches; each epoch is a fresh seeded permutation.

    The final partial batch of an epoch is kept.  When it would hold a single
    example, that example is folded into the batch before it, which then
    holds ``batch_size + 1``: batch statistics (DBB gates) need at least two
    examples.  Two iterators constructed with the same seed produce identical
    batch sequences.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    n = len(dataset)
    if batch_size > n:
        raise ContractError(f"batch_size {batch_size} exceeds dataset size {n}")
    rng = make_rng(seed)
    count = batches_per_epoch(n, batch_size)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for i in range(count):
            idx = perm[i * batch_size : n if i == count - 1 else (i + 1) * batch_size]
            yield dataset.images[idx], dataset.labels[idx]
