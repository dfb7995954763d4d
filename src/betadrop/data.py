"""Dataset ingestion (MNIST IDX), synthetic fixtures, splitting, batching."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .distributions import make_rng
from .errors import (
    ContractError,
    DomainError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray  # (N, ...) float64
    labels: np.ndarray  # (N,) int64 class indices
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
        return Dataset(self.images[idx], self.labels[idx], dict(self.meta))

    def split(self, val_fraction: float, seed: int) -> tuple["Dataset", "Dataset"]:
        """Seeded shuffle-split: (1-val_fraction, val_fraction) of the examples."""
        if not 0.0 <= val_fraction < 1.0:
            raise DomainError(f"val_fraction must lie in [0, 1), got {val_fraction}")
        n = len(self)
        perm = make_rng(seed).permutation(n)
        cut = n - int(round(val_fraction * n))
        return self.subset(perm[:cut]), self.subset(perm[cut:])


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 array of one IDX file: a big-endian header of ``magic`` and
    ``ndim`` unsigned 32-bit counts, then the bytes they declare."""
    with open(path, "rb") as fh:
        header = fh.read(4 * (ndim + 1))
        if len(header) < 4 * (ndim + 1):
            raise IdxTruncatedError(f"{path}: header truncated")
        found, *shape = struct.unpack(f">{ndim + 1}I", header)
        if found != magic:
            raise IdxMagicError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
        # checked before the read, so a huge count cannot allocate a huge buffer
        size, held = math.prod(shape), os.fstat(fh.fileno()).st_size - len(header)
        if size > held:
            raise IdxTruncatedError(f"{path}: header declares {size} bytes, file holds {held}")
        return np.frombuffer(fh.read(size), dtype=np.uint8).reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX pair (images magic 0x803, labels magic 0x801),
    with pixel bytes scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3).astype(np.float64)
    images /= 255.0
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1).astype(np.int64)
    if len(labels) != len(images):
        raise IdxCountMismatchError(f"{len(images)} images but {len(labels)} labels")
    return Dataset(images, labels)


def _check_synthetic(n: int, d: int, noise: float) -> None:
    """The generators' shared checks: ``noise >= 0`` and an addressable (n, d)."""
    if not noise >= 0.0:  # NaN too
        raise DomainError(f"noise must be non-negative, got {noise}")
    if int(n) * max(int(d), 1) > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{n} x {d} float64 values cannot be addressed")


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
    _check_synthetic(n, d, noise)
    rng = make_rng(seed)
    signal_idx = np.sort(rng.choice(d, size=k_signal, replace=False))
    signs = np.where(np.arange(k_signal) % 2 == 0, 1.0, -1.0)
    labels = rng.integers(0, 2, size=n)
    x = rng.normal(0.0, 1.0, size=(n, d))
    y_pm = 2.0 * labels - 1.0
    x[:, signal_idx] = signs[None, :] * y_pm[:, None] + rng.normal(
        0.0, noise, size=(n, k_signal)
    )
    meta = {"signal_idx": [int(i) for i in signal_idx], "d": d, "k_signal": k_signal}
    return Dataset(x, labels.astype(np.int64), meta)


def synthetic_two_cluster(n: int, d: int, seed: int = 0, noise: float = 0.3) -> Dataset:
    """Two classes that live on disjoint feature halves.

    Class 0 activates features [0, d/2) around +-1.5 (per-feature signed
    pattern), class 1 activates [d/2, d); a class's inactive half stays near
    zero.  Every feature is informative for exactly one class, so an
    input-independent gate must keep all of them while an input-dependent
    gate can drop half per example.
    """
    if d % 2:
        raise ContractError(f"two-cluster fixture needs even d, got {d}")
    _check_synthetic(n, d, noise)
    rng = make_rng(seed)
    half = d // 2
    labels = rng.integers(0, 2, size=n)
    pattern = np.where(rng.random(d) < 0.5, 1.5, -1.5)
    x = rng.normal(0.0, noise, size=(n, d))
    for cls, sl in ((0, slice(0, half)), (1, slice(half, d))):
        rows = labels == cls
        x[np.ix_(rows, np.arange(d)[sl])] += pattern[sl]
    return Dataset(x, labels.astype(np.int64), {"d": d, "halves": [[0, half], [half, d]]})


def batches_per_epoch(n: int, batch_size: int) -> int:
    """Number of minibatches :func:`batch_iterator` yields per epoch of n examples."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    count = -(-n // batch_size)
    return count - 1 if n % batch_size == 1 else count


def batch_iterator(dataset: Dataset, batch_size: int, seed: int, epochs: int = 1):
    """An iterator of (images, labels) minibatches, a fresh seeded permutation per epoch.

    The final partial batch of an epoch is kept.  When it would hold a single
    example, that example is folded into the batch before it, which then
    holds ``batch_size + 1``: batch statistics (DBB gates) need at least two
    examples, so a dataset of fewer than two has no batch.  The arguments are
    checked at the call, not at the first batch.  Two iterators constructed
    with the same seed produce identical batch sequences.
    """
    n = len(dataset)
    count = batches_per_epoch(n, batch_size)
    if batch_size > n:
        raise ContractError(f"batch_size {batch_size} exceeds dataset size {n}")
    if n < 2:
        raise ContractError(f"batching needs at least 2 examples, got {n}")
    return _batches(dataset, batch_size, count, make_rng(seed), epochs)


def _batches(dataset: Dataset, batch_size: int, count: int, rng, epochs: int):
    """The generator behind :func:`batch_iterator`, once its checks have passed."""
    n = len(dataset)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for i in range(count):
            idx = perm[i * batch_size : n if i == count - 1 else (i + 1) * batch_size]
            yield dataset.images[idx], dataset.labels[idx]
