"""IDX parsing, synthetic fixtures, and minibatch iteration."""

import struct

import numpy as np
import pytest

from betadrop.data import (
    Dataset,
    batch_iterator,
    batches_per_epoch,
    load_idx,
    synthetic_planted_sparsity,
    synthetic_two_cluster,
)
from betadrop.errors import (
    ContractError,
    DomainError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
)

from helpers import write_idx


@pytest.fixture
def idx_pair(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    labels = np.array([3, 1, 4, 1], dtype=np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(images, labels, ip, lp)
    return ip, lp, images, labels


class TestIdx:
    def test_fixture_shapes(self, idx_pair):
        ip, lp, _, _ = idx_pair
        ds = load_idx(ip, lp)
        assert ds.images.shape == (4, 28, 28)
        assert ds.labels.shape == (4,)
        assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0

    def test_round_trip_identical(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = load_idx(ip, lp)
        assert np.array_equal(ds.images, images / 255.0)
        assert np.array_equal(ds.labels, labels.astype(np.int64))

    def test_wrong_magic(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        bad = tmp_path / "bad.idx"
        blob = bytearray(ip.read_bytes())
        blob[:4] = struct.pack(">i", 0x00000802)
        bad.write_bytes(bytes(blob))
        with pytest.raises(IdxMagicError, match="0x00000802"):
            load_idx(bad, lp)

    def test_count_mismatch(self, idx_pair, tmp_path):
        ip, lp, _, labels = idx_pair
        lp9 = tmp_path / "lab9.idx"
        with open(lp9, "wb") as fh:
            fh.write(struct.pack(">ii", 0x00000801, 3))
            fh.write(labels[:3].tobytes())
        with pytest.raises(IdxCountMismatchError):
            load_idx(ip, lp9)

    def test_truncated(self, idx_pair, tmp_path):
        ip, lp, _, _ = idx_pair
        cut = tmp_path / "cut.idx"
        cut.write_bytes(ip.read_bytes()[:-100])
        with pytest.raises(IdxTruncatedError):
            load_idx(cut, lp)

    @pytest.mark.parametrize(
        "which,field,count",
        [("images", 1, -5), ("images", 2, -28), ("images", 1, 2**31 - 1), ("labels", 1, -1)],
        ids=["negative-images", "negative-rows", "huge-images", "negative-labels"],
    )
    def test_header_count_beyond_the_file_is_truncated(self, idx_pair, which, field, count):
        # checked against the file size before any read, so the huge count
        # never becomes a buffer
        ip, lp, _, _ = idx_pair
        path = ip if which == "images" else lp
        blob = bytearray(path.read_bytes())
        blob[4 * field : 4 * field + 4] = struct.pack(">i", count)
        path.write_bytes(bytes(blob))
        with pytest.raises(IdxTruncatedError, match="header declares"):
            load_idx(ip, lp)


class TestPlantedSparsity:
    def test_all_features_informative_allowed(self):
        ds = synthetic_planted_sparsity(100, 5, 5, seed=0)
        assert ds.meta["signal_idx"] == sorted(ds.meta["signal_idx"])
        assert len(ds.meta["signal_idx"]) == 5

    def test_linear_classifier_on_signal_features(self):
        ds = synthetic_planted_sparsity(2000, 20, 4, seed=0)
        sig = ds.meta["signal_idx"]
        signs = np.where(np.arange(4) % 2 == 0, 1.0, -1.0)
        score = ds.images[:, sig] @ signs
        acc = ((score > 0) == (ds.labels == 1)).mean()
        assert acc >= 0.95

    def test_fixed_seed_identical_bytes(self):
        a = synthetic_planted_sparsity(500, 10, 3, seed=7)
        b = synthetic_planted_sparsity(500, 10, 3, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_k_larger_than_d_rejected(self):
        with pytest.raises(ContractError):
            synthetic_planted_sparsity(10, 4, 5)


@pytest.mark.parametrize("noise", [-0.5, float("nan")])
@pytest.mark.parametrize(
    "generate",
    [lambda noise: synthetic_planted_sparsity(10, 4, 2, noise=noise),
     lambda noise: synthetic_two_cluster(10, 4, noise=noise)],
    ids=["planted", "two_cluster"],
)
def test_noise_below_zero_rejected(generate, noise):
    with pytest.raises(DomainError, match="noise must be non-negative"):
        generate(noise)


@pytest.mark.parametrize(
    "generate",
    [lambda n, d: synthetic_planted_sparsity(n, d, 1), synthetic_two_cluster],
    ids=["planted", "two_cluster"],
)
@pytest.mark.parametrize("n,d", [(10, 2**62), (2**62, 2)], ids=["wide", "long"])
def test_unaddressable_size_rejected(generate, n, d):
    with pytest.raises(DomainError, match="cannot be addressed"):
        generate(n, d)


class TestTwoCluster:
    def test_halves_recorded(self):
        ds = synthetic_two_cluster(200, 12, seed=0)
        assert ds.meta["halves"] == [[0, 6], [6, 12]]

    def test_classes_live_on_their_half(self):
        ds = synthetic_two_cluster(2000, 10, seed=1)
        cls0 = np.abs(ds.images[ds.labels == 0]).mean(axis=0)
        cls1 = np.abs(ds.images[ds.labels == 1]).mean(axis=0)
        assert cls0[:5].min() > cls0[5:].max()
        assert cls1[5:].min() > cls1[:5].max()


class TestBatchIterator:
    def test_single_full_batch(self):
        ds = synthetic_planted_sparsity(64, 6, 2, seed=0)
        batches = list(batch_iterator(ds, 64, seed=0))
        assert len(batches) == 1
        assert batches[0][0].shape == (64, 6)

    def test_same_seed_identical_sequences(self):
        ds = synthetic_planted_sparsity(101, 6, 2, seed=0)
        seq1 = [x for x, _ in batch_iterator(ds, 32, seed=5, epochs=2)]
        seq2 = [x for x, _ in batch_iterator(ds, 32, seed=5, epochs=2)]
        assert all(np.array_equal(a, b) for a, b in zip(seq1, seq2))

    def test_epoch_covers_every_index_once(self):
        ds = Dataset(np.arange(50, dtype=float).reshape(50, 1), np.zeros(50, dtype=np.int64))
        seen = np.concatenate(
            [x[:, 0] for x, _ in batch_iterator(ds, 7, seed=3)]
        )
        assert sorted(seen.tolist()) == list(range(50))
        assert len(seen) == 50  # last partial batch kept

    def test_singleton_final_batch_folded_into_previous(self):
        ds = Dataset(np.arange(201, dtype=float).reshape(201, 1), np.zeros(201, dtype=np.int64))
        batches = [x[:, 0] for x, _ in batch_iterator(ds, 100, seed=0, epochs=2)]
        assert [len(b) for b in batches] == [100, 101, 100, 101]
        for epoch in (batches[:2], batches[2:]):
            assert sorted(np.concatenate(epoch).tolist()) == list(range(201))
        assert batches_per_epoch(201, 100) == 2

    def test_zero_batch_size_rejected(self):
        ds = synthetic_planted_sparsity(10, 4, 2, seed=0)
        with pytest.raises(ContractError):
            next(batch_iterator(ds, 0, seed=0))

    def test_oversized_batch_rejected(self):
        ds = synthetic_planted_sparsity(10, 4, 2, seed=0)
        with pytest.raises(ContractError):
            next(batch_iterator(ds, 11, seed=0))

    @pytest.mark.parametrize("n,batch_size", [(10, 0), (10, -1), (10, 11), (0, 1), (1, 1)],
                             ids=["zero", "negative", "oversized", "empty", "one-example"])
    def test_unbatchable_arguments_refused_at_the_call(self, n, batch_size):
        ds = Dataset(np.zeros((n, 2)), np.zeros(n, dtype=np.int64))
        with pytest.raises(ContractError):
            batch_iterator(ds, batch_size, seed=0)  # no next(): the call itself refuses

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batches_per_epoch_refuses_a_batch_size_below_one(self, batch_size):
        with pytest.raises(ContractError, match="batch_size must be positive"):
            batches_per_epoch(10, batch_size)


class TestSplit:
    def test_split_sizes_and_disjoint(self):
        ds = synthetic_planted_sparsity(100, 6, 2, seed=0)
        train, val = ds.split(0.1, seed=0)
        assert len(train) == 90 and len(val) == 10
        joined = np.concatenate([train.images, val.images])
        assert np.unique(joined, axis=0).shape[0] == 100

    @pytest.mark.parametrize("fraction", [1.5, 1.0, -0.1, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        ds = synthetic_planted_sparsity(100, 6, 2, seed=0)
        with pytest.raises(DomainError, match=r"val_fraction must lie in \[0, 1\)"):
            ds.split(fraction, seed=0)
