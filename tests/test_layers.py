"""Network forwards, builders, shrink equivalence, and checkpoint round trips."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import checkpoint
from betadrop import distributions as d
from betadrop.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from betadrop.errors import (
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
    DimensionError,
    PruneCollapseError,
)
from betadrop.gates import MODE_BB, MODE_DBB
from betadrop.layers import (
    build_lenet5_caffe,
    build_lenet_500_300,
    build_mlp,
    forward_eval,
    forward_train,
    shrink,
)

from helpers import (
    WRONG_TYPED_MANIFESTS,
    edit_manifest,
    gradcheck,
    sum_all,
    to_format_version_1,
)

RNG = np.random.default_rng(2024)

def toy_net(seed=0, dims=(6, 5, 3), mode=MODE_BB):
    net = build_mlp(dims, seed=seed)
    net.gates_enabled = True
    rng = d.make_rng(seed + 50)
    for g in net.gates():
        g.mode = mode
        # interior gate parameters so clamp/relu kinks stay away from FD steps
        g.a_raw.value = g.a_raw.value + rng.normal(0, 0.3, g.k)
        g.b_raw.value = g.b_raw.value + rng.normal(0, 0.3, g.k)
        g.gamma.value = rng.normal(0.6, 0.1, g.k)
        g.eta.value = rng.normal(0.3, 0.05, g.k)
        g.kappa_raw.value = g.kappa_raw.value + rng.normal(0, 0.1, g.k)
    return net


class TestBuilders:
    def test_lenet_500_300_parameter_count(self):
        net = build_lenet_500_300()
        assert net.num_parameters() == 545_810

    def test_lenet_500_300_gate_sizes(self):
        net = build_lenet_500_300()
        assert [g.k for g in net.gates()] == [784, 500, 300]

    def test_lenet5_caffe_gate_sizes(self):
        net = build_lenet5_caffe()
        assert [g.k for g in net.gates()] == [20, 50, 800, 500]

    def test_lenet5_shapes_flow(self):
        net = build_lenet5_caffe()
        x = RNG.random((2, 1, 28, 28))
        assert forward_eval(net, x).shape == (2, 10)
        net.gates_enabled = True
        logits, kl = forward_train(net, x, d.make_rng(0))
        assert logits.value.shape == (2, 10)
        assert len(kl) == 4

    def test_conv1_input_takes_no_gradient(self):
        # the network input is a constant, so conv1's backward skips its
        # column gradient and col2im, and no gradient is stored for it
        net = build_lenet5_caffe()
        net.gates_enabled = True
        x = np.random.default_rng(7).random((3, 28, 28))
        logits, _ = forward_train(net, x, d.make_rng(0))
        ad.backward(sum_all(logits))
        leaves = [n for n in ad._topo_order(logits) if not n._parents]
        (inp,) = [n for n in leaves if n.shape == (1, 3, 28, 28)]
        assert not inp.needs_grad and inp._grad is None
        assert np.array_equal(inp.value[0], x)
        assert np.abs(net.layers[0].w.grad).sum() > 0

    @pytest.mark.parametrize(
        "build",
        [build_lenet_500_300, build_lenet5_caffe, lambda **kw: build_mlp((4, 3, 2), **kw)],
        ids=["lenet_500_300", "lenet5_caffe", "mlp"],
    )
    def test_gate_options_reach_every_gate(self, build):
        options = dict(alpha_over_k=0.5, eps=0.2, momentum=0.1, sigma_floor=0.5)
        net = build(seed=0, **options)
        for g in net.gates():
            assert {name: getattr(g, name) for name in options} == options

    def test_channel_axis_added_for_conv_input(self):
        net = build_lenet5_caffe()
        x = RNG.random((2, 28, 28))
        assert forward_eval(net, x).shape == (2, 10)

    def test_flat_and_image_inputs_give_the_same_conv_logits(self):
        net = build_lenet5_caffe(seed=1)
        net.gates_enabled = True
        x = RNG.random((3, 1, 28, 28))
        logits = forward_eval(net, x)
        for shaped in (x.reshape(3, 784), x.reshape(3, 28, 28)):
            assert np.array_equal(forward_eval(net, shaped), logits)


class TestForwardTrain:
    def test_forced_full_masks_equal_ungated_forward(self):
        net = toy_net()
        x = RNG.normal(size=(4, 6))
        forced = {i: np.ones((4, g.k)) for i, g in enumerate(net.gates())}
        logits, _ = forward_train(net, x, d.make_rng(0), force_masks=forced)
        net.gates_enabled = False
        plain, kl = forward_train(net, x, d.make_rng(0))
        assert np.array_equal(logits.value, plain.value)
        assert kl == []

    def test_forced_zero_first_gate_leaves_bias_only_logits(self):
        net = toy_net()
        x = RNG.normal(size=(4, 6))
        forced = {0: np.zeros((4, 6)), 1: np.ones((4, 5))}
        logits, _ = forward_train(net, x, d.make_rng(0), force_masks=forced)
        # zeroed input -> first layer output is its bias, downstream deterministic
        h = np.maximum(net.layers[0].b.value, 0.0)
        expected = np.maximum(h, 0.0) @ net.layers[1].w.value + net.layers[1].b.value
        assert np.allclose(logits.value, np.tile(expected, (4, 1)), atol=1e-12)

    def test_pool_first_conv_block_matches_mask_relu_pool_order(self):
        # the walk runs conv, pool, relu, mask; the logits equal those of
        # conv, mask, relu, pool bit for bit, also for masks with exact zeros
        net = build_lenet5_caffe(seed=2)
        net.gates_enabled = True
        x = RNG.random((6, 28, 28))
        masks = {}
        for i, g in enumerate(net.gates()):
            m = RNG.uniform(0.0, 1.0, size=(6, g.k))
            m[RNG.random(m.shape) < 0.3] = 0.0
            masks[i] = m
        coeffs = ad.constant(RNG.normal(size=(6, 10)))
        logits, _ = forward_train(net, x, d.make_rng(0), force_masks=masks)
        ad.backward(sum_all(ad.mul(logits, coeffs)))
        walk_grads = [layer.w.grad for layer in net.layers]
        ad.zero_gradients(net.parameters())

        h = ad.constant(x[None])
        for i, layer in enumerate(net.layers[:2]):
            h = ad.conv2d(h, layer.w, layer.b)
            h = ad.maxpool2x2(ad.relu(ad.scale_channels(h, ad.constant(masks[i]))))
        h = ad.flatten(h)
        for i, layer in enumerate(net.layers[2:], start=2):
            h = ad.add_rowwise(ad.matmul(ad.mul(ad.constant(masks[i]), h), layer.w), layer.b)
            h = ad.relu(h) if i < len(net.layers) - 1 else h
        assert np.array_equal(logits.value, h.value)
        ad.backward(sum_all(ad.mul(h, coeffs)))
        for layer, grad in zip(net.layers, walk_grads):
            assert np.allclose(grad, layer.w.grad, rtol=1e-12, atol=1e-14)

    def test_missing_gate_contract(self):
        net = build_mlp((4, 3), gated=False)
        net.gates_enabled = True
        x = RNG.normal(size=(2, 4))
        with pytest.raises(ContractError):
            forward_train(net, x, d.make_rng(0))

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_full_loss_gradients_match_fd(self, mode):
        net = toy_net(seed=1, mode=mode)
        x = RNG.normal(size=(4, 6))
        y = np.array([0, 1, 2, 0])
        params = net.parameters() + [
            p for g in net.gates() for p in (g.a_raw, g.b_raw, g.gamma, g.eta, g.kappa_raw)
        ]

        def loss():
            logits, kls = forward_train(net, x, d.make_rng(33), tau=0.8)
            total = ad.softmax_cross_entropy(logits, y)
            for kl in kls:
                total = ad.add(total, ad.mul(kl, ad.constant(0.01)))
            return total

        gradcheck(loss, params, rtol=1e-4, atol=1e-7)

    def test_conv_net_loss_gradients_match_fd(self):
        net = build_mlp((4, 3), seed=0, gated=False)  # placeholder, replaced below
        from betadrop.gates import GateState
        from betadrop.layers import ConvLayer, DenseLayer, Network

        rng = d.make_rng(4)
        conv_w = rng.normal(0, 0.5, size=(3, 1, 3, 3))
        dense_w = rng.normal(0, 0.5, size=(12, 3))
        gate_c = GateState.create(3)
        gate_d = GateState.create(12)
        for g in (gate_c, gate_d):
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.2, g.k)
            g.b_raw.value = g.b_raw.value + rng.normal(0, 0.2, g.k)
        net = Network(
            [
                ConvLayer(conv_w, rng.normal(0, 0.1, 3), gate=gate_c),
                DenseLayer(dense_w, np.zeros(3), gate=gate_d),
            ],
            gates_enabled=True,
            meta={"input_shape": [1, 6, 6]},
        )
        x = rng.normal(size=(2, 1, 6, 6))
        y = np.array([0, 2])
        params = net.parameters() + [gate_c.a_raw, gate_c.b_raw, gate_d.a_raw, gate_d.b_raw]

        def loss():
            logits, kls = forward_train(net, x, d.make_rng(11), tau=0.9)
            total = ad.softmax_cross_entropy(logits, y)
            for kl in kls:
                total = ad.add(total, ad.mul(kl, ad.constant(0.01)))
            return total

        gradcheck(loss, params, rtol=1e-4, atol=1e-7)

    def test_relaxed_mask_converges_to_hard_mask(self):
        # tau = 1e-4 with frozen uniforms ~ hard Bernoulli threshold u > 1 - pi
        net = toy_net(seed=3)
        x = np.abs(RNG.normal(size=(3, 6)))
        seed = 123
        logits, _ = forward_train(net, x, d.make_rng(seed), tau=1e-4)
        # mirror the noise stream to build the hard masks
        rng = d.make_rng(seed)
        forced = {}
        for gi, g in enumerate(net.gates()):
            u_pi = d.open_unit_uniform(rng, g.k)
            pi = np.clip(
                d.kumaraswamy_sample(u_pi, g.a(), g.b()), d.LOGIT_EPS, 1 - d.LOGIT_EPS
            )
            u_z = d.open_unit_uniform(rng, (3, g.k))
            forced[gi] = (u_z > 1.0 - pi[None, :]).astype(float)
        hard, _ = forward_train(net, x, d.make_rng(seed), force_masks=forced)
        assert np.abs(logits.value - hard.value).max() < 1e-6


class TestForwardEval:
    def test_gate_means_one_equal_ungated(self):
        net = toy_net()
        for g in net.gates():
            # E_q[pi] = a/(a+1) at b=1 approaches 1 only asymptotically
            g.a_raw.value = np.full(g.k, 1e8)
            g.b_raw.value = np.full(g.k, float(d.softplus_inv(1.0)))
            assert g.expected_pi() == pytest.approx(np.ones(g.k), abs=2e-8)
        x = RNG.normal(size=(5, 6))
        gated = forward_eval(net, x)
        net.gates_enabled = False
        plain = forward_eval(net, x)
        assert np.allclose(gated, plain, atol=1e-6)

    def test_repeated_calls_bit_identical(self):
        net = toy_net(mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(16, g.k)))
        x = RNG.normal(size=(4, 6))
        assert np.array_equal(forward_eval(net, x), forward_eval(net, x))

    def test_bb_eval_matches_monte_carlo_hard_mask_average(self):
        # positive weights keep relus in their linear region, where averaging
        # independent hard masks commutes with the forward pass
        net = build_mlp((4, 3, 2), seed=9)
        net.gates_enabled = True
        for layer in net.layers:
            layer.w.value = np.abs(layer.w.value)
        x = np.abs(RNG.normal(size=(2, 4))) + 0.1
        rng = d.make_rng(17)
        total = np.zeros((2, 2))
        n = 10_000
        for _ in range(n):
            forced = {}
            for gi, g in enumerate(net.gates()):
                pi = d.kumaraswamy_sample(d.open_unit_uniform(rng, g.k), g.a(), g.b())
                forced[gi] = (rng.random((2, g.k)) < pi[None, :]).astype(float)
            logits, _ = forward_train(net, x, rng, force_masks=forced)
            total += logits.value
        mc = total / n
        det = forward_eval(net, x)
        assert np.abs((mc - det) / det).max() < 0.02


    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_wrong_input_width_is_dimension_error(self, mode):
        net = toy_net(mode=mode)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(16, g.k)))
        with pytest.raises(DimensionError, match="expects 6 inputs"):
            forward_eval(net, RNG.normal(size=(3, 5)))

    @pytest.mark.parametrize("width", [4, 9])
    def test_selected_first_layer_checks_raw_input_width(self, width):
        # the shrunk first layer gathers columns 0, 2, 4 of the raw 6-wide input
        net = shrink(build_mlp((6, 5, 2)), [np.array([0, 2, 4]), np.arange(5)])
        assert net.layers[0].input_select is not None
        x = RNG.normal(size=(3, width))
        with pytest.raises(DimensionError, match="expects 6 inputs"):
            forward_eval(net, x)
        with pytest.raises(DimensionError, match="expects 6 inputs"):
            forward_train(net, x, d.make_rng(0))
        assert forward_eval(net, RNG.normal(size=(3, 6))).shape == (3, 2)

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_eval_between_backward_passes_leaves_gradients(self, mode):
        net = toy_net(seed=5, mode=mode)
        x = RNG.normal(size=(4, 6))
        y = np.array([0, 1, 2, 0])
        params = net.parameters() + net.variational_parameters()

        def gradients():
            ad.zero_gradients(params)
            logits, kls = forward_train(net, x, d.make_rng(7), tau=0.8)
            ad.backward(ad.add(ad.softmax_cross_entropy(logits, y), sum_all(kls[0])))
            return [p.grad.copy() for p in params]

        first = gradients()
        forward_eval(net, x, return_gate_info=True)
        assert all(np.array_equal(p.grad, g) for p, g in zip(params, first))
        # the eval pass's no_grad block has ended: the next graph is linked again
        assert all(np.array_equal(a, b) for a, b in zip(gradients(), first))
        assert any(np.abs(g).max() > 0.0 for g in first)


class TestShrink:
    def _random_keeps(self, net, rng, frac=0.5):
        keeps = []
        for g in net.gates():
            size = max(1, int(frac * g.k))
            keeps.append(np.sort(rng.choice(g.k, size=size, replace=False)))
        return keeps

    def test_keep_everything_identical(self):
        net = toy_net(seed=5)
        keeps = [np.arange(g.k) for g in net.gates()]
        small = shrink(net, keeps)
        x = RNG.normal(size=(7, 6))
        assert np.abs(forward_eval(small, x) - forward_eval(net, x)).max() < 1e-12

    def test_zero_outgoing_weights_unit_prunes_silently(self):
        net = toy_net(seed=6)
        net.layers[1].w.value[2, :] = 0.0  # hidden unit 2 feeds nothing
        keeps = [np.arange(6), np.array([0, 1, 3, 4])]
        small = shrink(net, keeps)
        x = RNG.normal(size=(5, 6))
        ref = forward_eval(net, x, keep_sets=keeps)
        assert np.array_equal(
            np.argsort(forward_eval(small, x), axis=1), np.argsort(ref, axis=1)
        )
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-12

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_equivalence_random_keeps_mlp(self, mode):
        net = toy_net(seed=7, dims=(8, 7, 5, 3), mode=mode)
        if mode == MODE_DBB:
            for g in net.gates():
                g.update_running_stats(RNG.normal(size=(16, g.k)))
        rng = d.make_rng(8)
        keeps = self._random_keeps(net, rng)
        small = shrink(net, keeps)
        for _ in range(100):
            x = RNG.normal(size=(3, 8))
            ref = forward_eval(net, x, keep_sets=keeps)
            got = forward_eval(small, x)
            assert np.abs(got - ref).max() < 1e-9

    def test_equivalence_random_keeps_lenet5(self):
        net = build_lenet5_caffe(seed=1)
        net.gates_enabled = True
        rng = d.make_rng(9)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.4, g.k)
        keeps = self._random_keeps(net, rng, frac=0.4)
        small = shrink(net, keeps)
        x = RNG.random((2, 1, 28, 28))
        ref = forward_eval(net, x, keep_sets=keeps)
        got = forward_eval(small, x)
        assert np.abs(got - ref).max() < 1e-9

    def test_equivalence_lenet_500_300_folded(self):
        net = build_lenet_500_300(seed=2)
        net.gates_enabled = True
        rng = d.make_rng(10)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.4, g.k)
        keeps = self._random_keeps(net, rng, frac=0.3)
        small = shrink(net, keeps, fold_masks=True)
        assert small.gates() == []
        x = RNG.random((4, 784))
        ref = forward_eval(net, x, keep_sets=keeps)
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_reshrunk_net_matches_its_keep_set_reference(self, seed):
        # shrink(shrink(net, k1), k2) must give the masked forward of the
        # once-shrunk net, including a dense gate reading through input_select
        rng = d.make_rng(seed)
        net = build_lenet5_caffe(seed=seed) if seed % 2 else toy_net(seed, dims=(9, 8, 6, 3))
        net.gates_enabled = True
        x = RNG.random((3, 1, 28, 28)) if seed % 2 else RNG.normal(size=(3, 9))
        once = shrink(net, self._random_keeps(net, rng, frac=0.7))
        keeps = self._random_keeps(once, rng, frac=0.6)
        twice = shrink(once, keeps, fold_masks=seed % 3 == 0)
        ref = forward_eval(once, x, keep_sets=keeps)
        assert np.abs(forward_eval(twice, x) - ref).max() < 1e-9

    @pytest.mark.parametrize("ungated", [(0,), (1,), (2,), (3,), (0, 2), (1, 3), (1, 2)])
    def test_ungated_layers_keep_all_their_units(self, ungated):
        net = build_lenet5_caffe(seed=4)
        net.gates_enabled = True
        for i in ungated:
            net.layers[i].gate = None
        rng = d.make_rng(len(ungated) + 10 * ungated[0])
        keeps = self._random_keeps(net, rng, frac=0.5)
        small = shrink(net, keeps)
        x = RNG.random((2, 1, 28, 28))
        ref = forward_eval(net, x, keep_sets=keeps)
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-9
        for i in ungated:
            if net.layers[i].kind == "conv":
                assert small.layers[i].out_channels == net.layers[i].out_channels

    @pytest.mark.parametrize("ungated", [(0,), (1,), (2,), (0, 2)])
    def test_ungated_dense_layers_in_an_mlp(self, ungated):
        net = toy_net(seed=8, dims=(9, 8, 6, 3))
        for i in ungated:
            net.layers[i].gate = None
        keeps = self._random_keeps(net, d.make_rng(sum(ungated)), frac=0.5)
        small = shrink(net, keeps)
        x = RNG.normal(size=(4, 9))
        ref = forward_eval(net, x, keep_sets=keeps)
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-9
        if 0 in ungated:
            assert small.layers[0].input_select is None

    def test_selected_raw_input_of_unknown_width_is_contract_error(self):
        net = toy_net(seed=9)
        keeps = [np.array([0, 2, 3]), np.arange(5)]
        del net.meta["input_shape"]
        small = shrink(net, keeps)  # the input width is the layer's own
        assert np.array_equal(small.layers[0].input_select, [0, 2, 3])
        with pytest.raises(ContractError, match="input_shape"):
            shrink(small, [np.arange(3), np.arange(5)])

    def test_fold_masks_rejected_for_dbb(self):
        net = toy_net(mode=MODE_DBB)
        with pytest.raises(ContractError):
            shrink(net, [np.arange(g.k) for g in net.gates()], fold_masks=True)

    def test_empty_keep_set_collapse(self):
        net = toy_net()
        with pytest.raises(PruneCollapseError, match="layer"):
            shrink(net, [np.arange(6), np.array([], dtype=int)])

    def test_conv_channel_mask_zeroes_whole_channel(self):
        net = build_lenet5_caffe(seed=3)
        net.gates_enabled = True
        x = RNG.random((2, 1, 28, 28))
        ref = forward_eval(net, x)
        g0 = net.gates()[0]
        keeps = [np.array([c for c in range(20) if c != 4])] + [
            np.arange(g.k) for g in net.gates()[1:]
        ]
        masked = forward_eval(net, x, keep_sets=keeps)
        # zeroing channel 4's gate changes only what flows through channel 4
        direct = forward_eval(net, x)
        assert not np.allclose(masked, direct)
        # exactness of the sharing: recompute with the channel weights zeroed
        w_backup = net.layers[0].w.value.copy()
        b_backup = net.layers[0].b.value.copy()
        net.layers[0].w.value[4] = 0.0
        net.layers[0].b.value[4] = 0.0
        zeroed = forward_eval(net, x)
        net.layers[0].w.value = w_backup
        net.layers[0].b.value = b_backup
        assert np.abs(masked - zeroed).max() < 1e-12

    def test_meta_holds_no_count_the_gates_contradict(self):
        # the 800-wide gate also loses the positions of conv2's pruned channels
        rng = np.random.default_rng(0)
        keeps = [np.sort(rng.choice(k, size=round(0.75 * k), replace=False))
                 for k in (20, 50, 800, 500)]
        small = shrink(build_lenet5_caffe(seed=0), keeps)
        widths = [g.k for g in small.gates()]
        assert widths[:2] == [15, 38] and widths[2] < 600 and widths[3] == 375
        assert small.meta == build_lenet5_caffe(seed=0).meta


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = toy_net(seed=11, mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a.value, b.value)
        for ga, gb in zip(net.gates(), loaded.gates()):
            assert np.array_equal(ga.a_raw.value, gb.a_raw.value)
            assert np.array_equal(ga.run_std, gb.run_std)
            assert ga.stats_initialized == gb.stats_initialized
        x = RNG.normal(size=(4, 6))
        assert np.array_equal(forward_eval(net, x), forward_eval(loaded, x))

    def test_save_load_save_byte_identical(self, tmp_path):
        net = toy_net(seed=12)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload(self, tmp_path):
        net = toy_net(seed=13)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        net = toy_net(seed=14)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        old = b'{"format_version":%d' % FORMAT_VERSION
        path.write_bytes(blob.replace(old, b'{"format_version":9', 1))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_version_1_file_is_version_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(build_lenet5_caffe(seed=5), path)
        edit_manifest(path, to_format_version_1)
        with pytest.raises(CheckpointVersionError, match="version 1 "):
            load_checkpoint(path)

    def test_layer_entries_hold_only_keys_the_loader_reads(self, tmp_path, monkeypatch):
        net = build_lenet5_caffe(seed=6)
        net.layers[3].gate = None
        small = shrink(net, [np.arange(0, 20, 2), np.arange(50), np.arange(0, 800, 3)])
        path = tmp_path / "net.ckpt"
        save_checkpoint(small, path)
        read: dict[int, set] = {}

        class Recording(dict):
            def __getitem__(self, key):
                read.setdefault(id(self), set()).add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.setdefault(id(self), set()).add(key)
                return super().get(key, default)

        entries = []

        def loads(text):
            manifest = json.loads(text, object_hook=Recording)
            entries.extend(manifest["layers"])
            return manifest

        monkeypatch.setattr(checkpoint, "json", SimpleNamespace(loads=loads, dumps=json.dumps))
        load_checkpoint(path)
        assert [e["kind"] for e in entries] == ["conv", "conv", "dense", "dense"]
        for entry in entries:
            assert read[id(entry)] == set(entry)
            if entry["gate"] is not None:
                assert read[id(entry["gate"])] == set(entry["gate"])

    def test_lenet5_round_trip_gives_identical_logits(self, tmp_path):
        net = build_lenet5_caffe(seed=7)
        net.gates_enabled = True
        rng = d.make_rng(7)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.3, g.k)
            g.update_running_stats(rng.normal(size=(4, g.k)))
        x = RNG.random((3, 1, 28, 28))
        path = tmp_path / "net.ckpt"
        for mode in (MODE_BB, MODE_DBB):
            net.set_gate_mode(mode)
            save_checkpoint(net, path)
            assert np.array_equal(forward_eval(load_checkpoint(path), x), forward_eval(net, x))

    def test_length_disagreement(self, tmp_path):
        net = toy_net(seed=15)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointLengthError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "old,new,missing",
        [
            (b'"name":"L0.w"', b'"name":"L0.v"', "'L0.w'"),
            (b'"alpha_over_k":0.0001,', b"", "'alpha_over_k'"),
        ],
        ids=["renamed-array", "missing-gate-key"],
    )
    def test_missing_name_is_typed_error(self, tmp_path, old, new, missing):
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=17), path)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(CheckpointError, match=missing):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(WRONG_TYPED_MANIFESTS))
    def test_wrong_typed_manifest_value_is_typed_error(self, tmp_path, case):
        edit, named = WRONG_TYPED_MANIFESTS[case]
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=19), path)
        edit_manifest(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(named)):
            load_checkpoint(path)

    def test_package_error_passes_through_unwrapped(self, tmp_path):
        # swapping the (6, 5) weight's extents leaves the payload length alone
        # but mismatches the 6-wide gate: the layer's own DimensionError
        # (a ValueError) must reach the caller as it is
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=20), path)
        edit_manifest(path, lambda m: m["arrays"][0].update(shape=[5, 6]))
        with pytest.raises(DimensionError, match="gate width 6"):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        net = toy_net(seed=18)
        net.layers[0].gate.run_std[2] = np.nan
        net.layers[1].b.value[0] = np.inf
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="'L0.gate.run_std'.*non-finite"):
            load_checkpoint(path)

    def test_shrunk_net_round_trip(self, tmp_path):
        net = toy_net(seed=16, dims=(8, 6, 3))
        keeps = [np.array([0, 2, 5, 7]), np.array([1, 2, 4])]
        small = shrink(net, keeps)
        path = tmp_path / "small.ckpt"
        save_checkpoint(small, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.layers[0].input_select, small.layers[0].input_select)
        x = RNG.normal(size=(3, 8))
        assert np.array_equal(forward_eval(small, x), forward_eval(loaded, x))
