"""Pruning, accounting arithmetic, runtime statistics, correlation analysis,
and report emission."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import distributions as d
from betadrop.analysis import (
    UNDEFINED_CORR,
    _pearson,
    class_average_gate_correlation,
    count_flops,
    count_memory,
    evaluate_error,
    gate_masks,
    prune_by_threshold,
    runtime_prune_stats,
    within_cross_gate_correlation,
)
from betadrop.data import Dataset
from betadrop.errors import ContractError, DimensionError, DomainError, PruneCollapseError
from betadrop.gates import MODE_DBB
from betadrop.layers import (
    Network,
    build_lenet5_caffe,
    build_lenet_500_300,
    build_mlp,
    forward_eval,
    forward_train,
    shrink,
)
from betadrop.reporting import (
    SparsityReport,
    emit_report_csv,
    emit_tradeoff_svg,
    parse_report_csv,
)

from helpers import glyph_images, pearson_oracle


class TestPruneByThreshold:
    def test_fresh_gates_nothing_pruned(self):
        net = build_mlp((6, 4, 2))  # E_q[pi] = 0.9 everywhere
        keeps = prune_by_threshold(net)
        assert [len(k) for k in keeps] == [6, 4]

    def test_boundary_semantics(self):
        net = build_mlp((4, 2), seed=0)
        gate = net.gates()[0]
        # b = 1: mean is a/(a+1); solve a for the target means
        for i, mean in enumerate([9.99e-4, 1.01e-3, 0.5, 0.9]):
            a = mean / (1.0 - mean)
            gate.a_raw.value[i] = float(d.softplus_inv(a))
            gate.b_raw.value[i] = float(d.softplus_inv(1.0))
        keep = prune_by_threshold(net, 1e-3)[0]
        assert 0 not in keep and {1, 2, 3} == set(keep.tolist())

    def test_collapse_error_names_layer(self):
        net = build_mlp((4, 2), seed=0)
        gate = net.gates()[0]
        gate.a_raw.value = np.full(4, float(d.softplus_inv(1e-5)))
        with pytest.raises(PruneCollapseError, match="layer 0"):
            prune_by_threshold(net, 1e-3)

    def test_pruned_channels_leave_the_flattened_dense_gate(self):
        # conv2 keeps 25 of 50 channels, the dense gate keeps all 800 positions:
        # the counts must describe the shrunk net (400 dense inputs), not 800
        net = build_lenet5_caffe(seed=0)
        net.gates()[1].a_raw.value[::2] = float(d.softplus_inv(1e-5))
        keeps = prune_by_threshold(net)
        counts = [k.size for k in keeps]
        assert counts == [20, 25, 400, 500]
        assert np.array_equal(keeps[2] // 16, np.repeat(np.arange(1, 50, 2), 16))
        small = shrink(net, keeps)
        assert small.layers[2].in_dim == 400 and small.layers[2].input_select is None
        assert count_flops(net, counts)[1] == count_flops(small)[0] == 1_293_000

    def test_pruned_channels_compose_with_an_input_select(self):
        net = build_lenet5_caffe(seed=0)
        net = shrink(net, [np.arange(20), np.arange(50), np.arange(0, 800, 3), np.arange(500)])
        net.gates()[1].a_raw.value[:10] = float(d.softplus_inv(1e-5))  # prune channels 0-9
        keeps = prune_by_threshold(net)
        assert keeps[2].min() * 3 >= 160 and keeps[2].size == np.sum(np.arange(0, 800, 3) >= 160)
        assert count_flops(net, [k.size for k in keeps])[1] == count_flops(shrink(net, keeps))[0]

    def test_channel_pruning_that_empties_a_dense_gate_collapses(self):
        net = build_lenet5_caffe(seed=0)
        net.gates()[1].a_raw.value[1:] = float(d.softplus_inv(1e-5))  # keep channel 0
        net.gates()[2].a_raw.value[:16] = float(d.softplus_inv(1e-5))  # and none of its positions
        with pytest.raises(PruneCollapseError, match="layer 2"):
            prune_by_threshold(net)


class TestFlopsAndMemory:
    def test_unpruned_speedup_one(self):
        net = build_lenet_500_300()
        orig, pruned, speedup = count_flops(net)
        assert orig == pruned == 545_000
        assert speedup == 1.0
        assert count_memory(net) == 100.0

    def test_lenet5_original_flops(self):
        net = build_lenet5_caffe()
        orig, _, _ = count_flops(net)
        # conv1 20*1*25*576 + conv2 50*20*25*64 + fc 800*500 + 500*10
        assert orig == 288_000 + 1_600_000 + 400_000 + 5_000

    def test_reference_bb_row(self):
        net = build_lenet_500_300()
        _, pruned, speedup = count_flops(net, (137, 90, 37))
        assert pruned == 137 * 90 + 90 * 37 + 37 * 10
        assert speedup == pytest.approx(33.81, rel=0.02)
        assert count_memory(net, (137, 90, 37)) == pytest.approx(2.97, rel=0.02)

    def test_reference_second_bb_row(self):
        net = build_lenet_500_300()
        _, _, speedup = count_flops(net, (288, 114, 65))
        assert speedup == pytest.approx(13.38, rel=0.02)
        assert count_memory(net, (288, 114, 65)) == pytest.approx(7.48, rel=0.02)

    def test_halving_dense_layers_quadruples_speedup(self):
        net = build_mlp((8, 8, 8))
        _, _, speedup = count_flops(net, (4, 4))
        # both gated dims halve; the ungated output column stays
        orig = 8 * 8 + 8 * 8
        pruned = 4 * 4 + 4 * 8
        assert speedup == pytest.approx(orig / pruned)

    def test_toy_memory_hand_arithmetic(self):
        # same Sum(in*out) formula as the published-row checks: surviving
        # weights connect surviving units on both sides of each layer
        net = build_mlp((4, 4, 4))
        assert count_memory(net, (1, 1)) == pytest.approx(
            100.0 * (1 * 1 + 1 * 4) / (16 + 16)
        )

    def test_keep_count_arity_checked(self):
        net = build_lenet_500_300()
        with pytest.raises(ContractError):
            count_flops(net, (10, 10))

    @pytest.mark.parametrize("counts", [[0, 0], [9, 9], [6, 0], [7, 5]])
    def test_keep_counts_outside_one_to_k_rejected(self, counts):
        # [0, 0] once divided by zero, and [9, 9] gave speedup 0.404 and memory 247.5 %
        net = build_mlp((6, 5, 2))
        for count in (count_flops, count_memory):
            with pytest.raises(ContractError, match=re.escape("in [1, K] per gate")):
                count(net, counts)

    @pytest.mark.parametrize("side", [2**27 + 12, 2**33])
    def test_full_counts_on_a_huge_input_are_exact(self, side):
        # a count times the first conv's MACs per pair passes 2**63: int64
        # counts once gave -5.4e18 pruned MACs on the smaller side and an
        # OverflowError on the larger
        small = shrink(build_lenet5_caffe(seed=0), [np.arange(0, 20, 2), np.arange(0, 50, 2),
                                                    np.arange(0, 800, 3), np.arange(500)])
        net = Network(small.layers, meta={**small.meta, "input_shape": [1, side, side]})
        widths = [g.k for g in net.gates()]
        with np.errstate(all="raise"):
            orig, pruned, speedup = count_flops(net, widths)
            memory = count_memory(net, widths)
        assert type(pruned) is int and pruned == orig > 2**63 and speedup == 1.0
        assert memory == 100.0


def make_dbb_net(seed=0, k=6, hidden=4):
    net = build_mlp((k, hidden, 2), seed=seed)
    rng = d.make_rng(seed)
    net.set_gate_mode(MODE_DBB)
    for g in net.gates():
        g.gamma.value = rng.normal(1.0, 0.2, g.k)
        g.eta.value = rng.normal(0.3, 0.1, g.k)
        g.update_running_stats(rng.normal(size=(32, g.k)))
    return net


class TestRuntimeStats:
    def test_threshold_that_keeps_no_work_is_collapse(self):
        # every expected mask is below E[pi] = 0.9 at init, so no input keeps a unit
        net = make_dbb_net()
        ds = Dataset(d.make_rng(1).normal(size=(10, 6)), np.zeros(10, dtype=np.int64))
        with pytest.raises(PruneCollapseError, match="no multiply-accumulate for any input"):
            runtime_prune_stats(net, ds, threshold=0.95)

    def test_error_is_evaluate_errors_over_two_batches(self):
        # 501 inputs run as a batch of 500 and a batch of 1
        net = make_dbb_net(seed=2)
        ds = Dataset(d.make_rng(3).normal(size=(501, 6)), d.make_rng(4).integers(0, 2, 501))
        stats = runtime_prune_stats(net, ds)
        assert 0.0 < stats.error_pct < 100.0
        assert stats.error_pct == evaluate_error(net, ds)

    @pytest.mark.parametrize("row,label", [(0, 2), (500, 2), (500, -1)],
                             ids=["first-batch", "second-batch", "negative"])
    def test_labels_beyond_the_outputs_are_dimension_error(self, row, label):
        labels = np.zeros(501, dtype=np.int64)
        labels[row] = label
        ds = Dataset(d.make_rng(3).normal(size=(501, 6)), labels)
        with pytest.raises(DimensionError, match="2 outputs"):
            runtime_prune_stats(make_dbb_net(seed=2), ds)

    def test_saturated_gates_match_static_counts(self):
        net = make_dbb_net()
        for g in net.gates():
            g.eta.value = np.full(g.k, 50.0)  # clamp ceiling for every input
        ds = Dataset(d.make_rng(1).normal(size=(40, 6)), np.zeros(40, dtype=np.int64))
        stats = runtime_prune_stats(net, ds)
        assert (stats.kept_per_input == [6, 4]).all()
        assert stats.mean_flops == stats.static_flops

    def test_dominance_per_input(self):
        net = make_dbb_net(seed=3)
        ds = Dataset(d.make_rng(2).normal(size=(60, 6)), np.zeros(60, dtype=np.int64))
        stats = runtime_prune_stats(net, ds)
        assert (stats.kept_per_input <= np.array([6, 4])[None, :]).all()
        assert stats.mean_flops <= stats.static_flops

    def test_two_cluster_counts_differ(self):
        # inputs with disjoint active halves must keep different unit counts
        net = make_dbb_net(seed=4, k=8)
        g = net.gates()[0]
        g.gamma.value = np.full(8, 2.0)
        g.eta.value = np.full(8, 0.3)
        g.run_mean = np.ones(8)  # midpoint: active half at 2, inactive at 0
        g.run_std = np.ones(8)
        x = np.zeros((40, 8))
        x[:20, :4] = 2.0
        x[20:, 4:] = 2.0
        ds = Dataset(x, np.repeat([0, 1], 20).astype(np.int64))
        stats = runtime_prune_stats(net, ds)
        a = stats.kept_per_input[:20, 0].mean()
        b = stats.kept_per_input[20:, 0].mean()
        assert a == b  # symmetric construction keeps counts equal...
        mask = forward_eval(net, x, return_masks=True)[1][0]
        # ...but the kept *sets* are disjoint halves
        kept_a = mask[0] >= 1e-3
        kept_b = mask[-1] >= 1e-3
        assert kept_a[:4].all() and not kept_a[4:].any()
        assert kept_b[4:].all() and not kept_b[:4].any()

    def test_asymmetric_clusters_mean_counts_differ(self):
        # clusters that activate unequal feature subsets must differ in mean
        # kept counts by at least a quarter of the surviving width
        net = make_dbb_net(seed=11, k=16)
        g = net.gates()[0]
        g.gamma.value = np.full(16, 2.0)
        g.eta.value = np.full(16, 0.3)
        g.run_mean = np.full(16, 1.0)
        g.run_std = np.ones(16)
        x = np.zeros((40, 16))
        x[:20, :4] = 2.0    # cluster A activates 4 features
        x[20:, 4:] = 2.0    # cluster B activates 12
        ds = Dataset(x, np.repeat([0, 1], 20).astype(np.int64))
        stats = runtime_prune_stats(net, ds)
        a = stats.kept_per_input[:20, 0].mean()
        b = stats.kept_per_input[20:, 0].mean()
        assert abs(a - b) >= 0.25 * 16

    def test_positions_of_a_channel_the_input_dropped_are_not_counted(self):
        # every unit is kept for every input, except conv2 channel 7, which
        # only the inputs above its running mean keep: the others must not
        # count its 16 flattened positions in the dense gate either
        net = build_lenet5_caffe(seed=0)
        net.set_gate_mode(MODE_DBB)
        x = d.make_rng(5).random((12, 1, 28, 28))
        forward_train(net, x, d.make_rng(6))  # sets the running statistics
        for g in net.gates():
            g.gamma.value = np.zeros(g.k)
            g.eta.value = np.ones(g.k)
        conv2 = net.gates()[1]
        conv2.gamma.value[7], conv2.eta.value[7] = 1.0, 0.0
        conv2.run_std[7] = 1.0
        # conv2's channel means, the DBB gate's input, from graph ops alone
        first, second = net.layers[:2]
        h = ad.conv2d(ad.constant(x.transpose(1, 2, 3, 0)), first.w, first.b)
        first_mask = first.gate.expected_mask(ad.global_avg_pool(h).value)
        h = ad.scale_channels(ad.relu(ad.maxpool2x2(h)), ad.constant(first_mask))
        means = ad.global_avg_pool(ad.conv2d(h, second.w, second.b)).value
        conv2.run_mean[7] = np.median(means[:, 7])
        stats = runtime_prune_stats(net, Dataset(x, np.zeros(12, dtype=np.int64)))
        channels = stats.kept_per_input[:, 1]
        assert sorted(channels) == [49] * 6 + [50] * 6
        assert np.array_equal(stats.kept_per_input[:, 0], np.full(12, 20))
        assert np.array_equal(stats.kept_per_input[:, 2], 16 * channels)
        assert np.array_equal(stats.kept_per_input[:, 3], np.full(12, 500))
        expected = 288_000 + 20 * channels * 25 * 64 + 16 * channels * 500 + 500 * 10
        assert np.array_equal(stats.flops_per_input, expected)

    def test_per_input_counts_match_the_net_shrunk_to_that_input(self):
        # runtime statistics against shrink, which narrows the dense layer
        # by flat positions rather than by channel masks
        rng = np.random.default_rng((3, 2))
        net = build_lenet5_caffe(seed=3)
        keeps = [np.sort(rng.choice(k, round(0.75 * k), replace=False))
                 for k in (20, 50, 800, 500)]
        net = shrink(net, keeps)
        net.set_gate_mode(MODE_DBB)
        for g in net.gates():
            g.gamma.value = rng.normal(1.0, 0.25, g.k)
            g.eta.value = rng.normal(0.0, 0.3, g.k)
        forward_train(net, glyph_images(100, 31)[0], rng)  # sets the running statistics
        x = glyph_images(20, 32)[0]
        stats = runtime_prune_stats(net, Dataset(x, np.zeros(20, dtype=np.int64)))
        _, masks = forward_eval(net, x, return_masks=True)
        dropped = 0
        for n in range(20):
            own = [np.flatnonzero(mask[n] >= 1e-3) for mask in masks]
            assert all(k.size for k in own)
            small = shrink(net, own)
            assert [g.k for g in small.gates()] == stats.kept_per_input[n].tolist()
            assert count_flops(small)[0] == stats.flops_per_input[n]
            dropped += small.gates()[2].k < own[2].size
        assert dropped >= 10  # the dense gate kept positions of channels the input dropped

    def test_requires_dbb_mode(self):
        net = build_mlp((4, 2))
        ds = Dataset(np.zeros((4, 4)), np.zeros(4, dtype=np.int64))
        with pytest.raises(ContractError):
            runtime_prune_stats(net, ds)


class TestCorrelation:
    def test_identical_gate_vectors_give_all_ones(self):
        net = make_dbb_net(seed=5)
        for g in net.gates():
            g.gamma.value = np.zeros(g.k)  # masks independent of the input
            g.eta.value = d.make_rng(9).uniform(0.2, 0.8, g.k)
        x = d.make_rng(6).normal(size=(30, 6))
        for mat in class_average_gate_correlation(gate_masks(net, x), np.tile([0, 1, 2], 10)):
            assert np.allclose(mat, 1.0)

    def test_two_point_anticorrelation(self):
        net = make_dbb_net(seed=7)
        g = net.gates()[0]
        g.gamma.value = np.full(6, 1.5)
        g.eta.value = np.full(6, 0.5)
        g.run_mean = np.zeros(6)
        g.run_std = np.ones(6)
        x = np.zeros((20, 6))
        x[:10, :3] = 1.5   # class 0 activates the first half
        x[10:, 3:] = 1.5   # class 1 the second half
        matrices = class_average_gate_correlation(gate_masks(net, x), np.repeat([0, 1], 10))
        assert matrices[0][0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_symmetric_unit_diagonal_on_random_data(self):
        net = make_dbb_net(seed=8)
        rng = d.make_rng(10)
        x = rng.normal(size=(60, 6))
        for mat in class_average_gate_correlation(gate_masks(net, x), rng.integers(0, 3, 60)):
            assert np.array_equal(mat, mat.T)
            assert np.allclose(np.diag(mat), 1.0)
            inside = mat[mat > UNDEFINED_CORR]
            assert (inside >= -1.0).all() and (inside <= 1.0).all()

    def test_zero_variance_class_gets_sentinel(self):
        net = make_dbb_net(seed=9)
        g = net.gates()[0]
        g.gamma.value = np.zeros(6)
        g.eta.value = np.full(6, 0.5)  # constant masks: zero variance rows
        masks = gate_masks(net, d.make_rng(3).normal(size=(12, 6)))
        mat = class_average_gate_correlation(masks, np.repeat([0, 1], 6))[0]
        assert np.allclose(np.diag(mat), 1.0)
        assert mat[0, 1] == UNDEFINED_CORR

    def test_gate_vectors_of_equal_entries_have_no_correlation(self):
        # an untrained BB net masks every unit by E[pi] = 0.9: centering those
        # vectors leaves only rounding residue, which must not read as r = 1
        net = build_mlp((20, 8, 2), seed=0)
        rng = d.make_rng(12)
        masks, labels = gate_masks(net, rng.normal(size=(40, 20))), np.repeat([0, 1], 20)
        for mat in class_average_gate_correlation(masks, labels):
            assert np.array_equal(mat, [[1.0, UNDEFINED_CORR], [UNDEFINED_CORR, 1.0]])
        with pytest.raises(ContractError, match="not enough valid pairs"):
            within_cross_gate_correlation(masks[0], labels)

    def test_needs_two_per_class(self):
        masks = gate_masks(make_dbb_net(seed=10), np.zeros((3, 6)))
        with pytest.raises(ContractError, match=">= 2 examples per class"):
            class_average_gate_correlation(masks, np.array([0, 0, 1]))


class TestPearson:
    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_matches_the_per_pair_oracle(self, n_rows):
        rng = d.make_rng(n_rows)
        rows = rng.random((n_rows, 12))
        rows[1::3] = rows[1::3, :1]  # constant rows, each of its own value
        i, j = rng.integers(0, n_rows, size=(2, 400))
        i[:n_rows] = j[:n_rows] = np.arange(n_rows)  # every i == j pair
        r = _pearson(rows, i, j)
        assert r.shape == (400,)
        for n in range(400):
            want = pearson_oracle(rows, i[n], j[n])
            if want is None:
                assert np.isnan(r[n])
            else:
                assert abs(r[n] - want) <= 1e-15

    @pytest.mark.parametrize("n_classes", [1, 4])
    def test_class_matrix_is_the_clipped_oracle(self, n_classes):
        net = make_dbb_net(seed=13)
        rng = d.make_rng(13)
        labels = np.arange(60) % n_classes
        x = rng.normal(size=(60, 6)) + labels[:, None]
        matrices = class_average_gate_correlation(gate_masks(net, x), labels)
        for mat, masks in zip(matrices, forward_eval(net, x, return_masks=True)[1]):
            means = np.stack([masks[labels == c].mean(axis=0) for c in range(n_classes)])
            for a in range(n_classes):
                for b in range(n_classes):
                    want = 1.0 if a == b else pearson_oracle(means, a, b)
                    want = UNDEFINED_CORR if want is None else min(1.0, max(-1.0, want))
                    assert abs(mat[a, b] - want) <= 1e-15

    def test_within_cross_is_a_loop_over_the_oracle(self, two_stage):
        _, test, _, net = two_stage
        masks = forward_eval(net, test.images, return_masks=True)[1][-1]
        rng = d.make_rng(0)
        within, cross = [], []
        for _ in range(2000):
            i, j = rng.integers(0, len(masks), size=2)
            r = None if i == j else pearson_oracle(masks, i, j)
            if r is not None:
                (within if test.labels[i] == test.labels[j] else cross).append(r)
        got = within_cross_gate_correlation(gate_masks(net, test.images)[-1], test.labels)
        assert np.abs(np.subtract(got, (np.mean(within), np.mean(cross)))).max() <= 1e-15

    @pytest.mark.parametrize("n", [7, 300, 10_000])
    def test_one_draw_of_all_pairs_gives_the_pairs_drawn_one_by_one(self, n):
        rng = d.make_rng(0)
        one_by_one = [rng.integers(0, n, size=2) for _ in range(2000)]
        assert np.array_equal(d.make_rng(0).integers(0, n, size=(2000, 2)), one_by_one)


EMPTY = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("analysis", [
    pytest.param(lambda: runtime_prune_stats(make_dbb_net(), EMPTY), id="runtime_prune_stats"),
    pytest.param(lambda: gate_masks(make_dbb_net(), EMPTY.images), id="gate_masks"),
    # the statistics refuse the empty mask matrices of an empty dataset
    pytest.param(lambda: class_average_gate_correlation([np.zeros((0, 6))], EMPTY.labels),
                 id="class_average_gate_correlation"),
    pytest.param(lambda: within_cross_gate_correlation(np.zeros((0, 6)), EMPTY.labels),
                 id="within_cross_gate_correlation"),
])
def test_empty_dataset_is_contract_error(analysis):
    with pytest.raises(ContractError, match="non-empty dataset"):
        analysis()


@pytest.mark.parametrize("analysis", [
    pytest.param(runtime_prune_stats, id="runtime_prune_stats"),
    pytest.param(lambda net, ds: gate_masks(net, ds.images), id="gate_masks"),
    # the correlation statistics read their mask matrices from the mask pass
    pytest.param(lambda net, ds: class_average_gate_correlation(gate_masks(net, ds.images), ds.labels),
                 id="class_average_gate_correlation"),
    pytest.param(lambda net, ds: within_cross_gate_correlation(gate_masks(net, ds.images)[-1], ds.labels),
                 id="within_cross_gate_correlation"),
])
@pytest.mark.parametrize("disable", ["ungated", "folded"])
def test_gate_statistics_without_enabled_gates_is_contract_error(analysis, disable):
    # a network loses its gates when a stage drops them or a prune folds them
    if disable == "ungated":
        net = make_dbb_net()
        net.set_gate_mode(None)
    else:
        net = build_mlp((6, 4, 2))
        net = shrink(net, [np.arange(g.k) for g in net.gates()], fold_masks=True)
    ds = Dataset(d.make_rng(4).normal(size=(12, 6)), np.repeat([0, 1], 6).astype(np.int64))
    with pytest.raises(ContractError, match="require gates"):
        analysis(net, ds)


@pytest.mark.parametrize("statistic", [
    pytest.param(lambda m, y: class_average_gate_correlation([m[:, :4], m], y),
                 id="class_average_gate_correlation"),
    pytest.param(within_cross_gate_correlation, id="within_cross_gate_correlation"),
])
@pytest.mark.parametrize("n_labels", [11, 13])
def test_labels_of_another_length_are_dimension_error(statistic, n_labels):
    masks = d.make_rng(15).random((12, 6))
    with pytest.raises(DimensionError, match=f"{n_labels} labels for a mask matrix of 12 rows"):
        statistic(masks, np.arange(n_labels) % 2)


@pytest.mark.parametrize("mode", ["bb", "dbb"])
def test_gate_masks_stack_the_masks_of_each_batch(mode):
    # 501 inputs are two evaluation batches, of 500 and of 1
    net = make_dbb_net(seed=14) if mode == "dbb" else build_mlp((6, 4, 2), seed=14)
    x = d.make_rng(14).normal(size=(501, 6))
    batches = [forward_eval(net, x[s : s + 500], return_masks=True)[1] for s in (0, 500)]
    masks = gate_masks(net, x)
    assert [m.shape for m in masks] == [(501, 6), (501, 4)]
    for mask, *chunks in zip(masks, *batches):
        assert np.array_equal(mask, np.concatenate(chunks))


class TestReports:
    def _reports(self):
        return [
            SparsityReport("bb", 1.0, 1.5, 10.0, 9.0, [100, 50, 20]),
            SparsityReport("bb", 4.0, 1.8, 25.0, 4.0, [60, 30, 12]),
            SparsityReport("bb", 8.0, 2.2, 40.0, 2.5, [40, 20, 8]),
        ]

    def test_empty_reports_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report_csv([], path)
        assert path.read_text() == "method,kl_scale,error_pct,speedup,memory_pct,kept_counts\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        reports = self._reports()
        emit_report_csv(reports, path)
        parsed = parse_report_csv(path)
        for a, b in zip(reports, parsed):
            assert a.method == b.method
            assert a.kl_scale == b.kl_scale
            assert a.error_pct == b.error_pct
            assert a.speedup == b.speedup
            assert a.memory_pct == b.memory_pct
            assert a.kept_counts == b.kept_counts

    def test_svg_polyline_has_three_vertices(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_tradeoff_svg(self._reports(), path)
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 1
        points = polylines[0].attrib["points"].split()
        assert len(points) == 3

    def test_svg_methods_share_axes(self, tmp_path):
        # each method is placed against the extents of every point: speedup
        # 10..50 spans x 45..435, error 1.2..2.5 spans y 315..45
        path = tmp_path / "plot.svg"
        emit_tradeoff_svg(self._reports() + [SparsityReport("dbb", 1.0, 2.5, 50.0, 2.0, [30]),
                                             SparsityReport("dbb", 2.0, 1.2, 12.0, 8.0, [90])], path)
        ns = "{http://www.w3.org/2000/svg}"
        points = {p.attrib["class"]: p.attrib["points"]
                  for p in ET.parse(path).getroot().findall(f"{ns}polyline")}
        assert points == {"series-bb": "45.00,252.69 191.25,190.38 337.50,107.31",
                          "series-dbb": "64.50,315.00 435.00,45.00"}

    @pytest.mark.parametrize("method", ["", "bb&dbb", 'x"<y', "bb dbb", "bb\n", "é"])
    def test_method_outside_the_name_rule_is_domain_error(self, method):
        # the name goes unescaped into the SVG and the RESULT line
        with pytest.raises(DomainError, match="method must be a non-empty run"):
            SparsityReport(method, 1.0, 1.0, 2.0, 50.0, [])

    def test_svg_of_names_within_the_rule_is_well_formed(self, tmp_path):
        methods = ["bb", "dbb-matched_1.5", "L0"]
        path = tmp_path / "plot.svg"
        emit_tradeoff_svg([SparsityReport(m, 1.0, 1.0, 2.0, 50.0, [3]) for m in methods], path)
        texts = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert sorted(methods) == sorted(texts[2:])

    def test_invalid_report_values_rejected(self):
        with pytest.raises(ValueError):
            SparsityReport("bb", 1.0, 1.0, 0.5, 50.0, [])
        with pytest.raises(ValueError):
            SparsityReport("bb", 1.0, 1.0, 2.0, 0.0, [])
