"""Network forwards, builders, shrink equivalence, and checkpoint round trips."""

import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import checkpoint
from betadrop import distributions as d
from betadrop.analysis import count_flops
from betadrop.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from betadrop.errors import (
    BetadropError,
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
    DimensionError,
    PruneCollapseError,
)
from betadrop.gates import MODE_BB, MODE_DBB, SIGMA_FLOOR, GateState
from betadrop.layers import (
    ConvLayer,
    DenseLayer,
    build_lenet5_caffe,
    build_lenet_500_300,
    build_mlp,
    forward_eval,
    forward_train,
    Network,
    shrink,
)

from helpers import (
    UNFIT_CHECKPOINTS,
    WRONG_TYPED_MANIFESTS,
    edit_manifest,
    forced_mask_forward,
    gradcheck,
    interior_gates,
    keep_set_forward,
    share_workers,
    sum_all,
    to_format_version_1,
    to_format_version_2,
    to_format_version_3,
    to_format_version_4,
    to_format_version_5,
)

RNG = np.random.default_rng(2024)


def conv(c_out=4, c_in=1, k=3, k2=None, gate=None):
    return ConvLayer(np.ones((c_out, c_in, k, k2 or k)), np.zeros(c_out), gate=gate)


def dense(n_in, n_out=2, gate=None, select=None):
    return DenseLayer(np.ones((n_in, n_out)), np.zeros(n_out), gate=gate, input_select=select)


def toy_net(seed=0, dims=(6, 5, 3), mode=MODE_BB):
    return interior_gates(build_mlp(dims, seed=seed), d.make_rng(seed + 50), mode)


def mlp_in_mode(mode):
    """A (6, 5, 2) MLP with its gates in ``mode``, or with none for None."""
    net = build_mlp((6, 5, 2))
    net.set_gate_mode(mode)
    return net


class TestBuilders:
    def test_lenet_500_300_parameter_count(self):
        net = build_lenet_500_300()
        assert sum(p.value.size for p in net.parameters()) == 545_810

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
        logits, kl = forward_train(net, x, d.make_rng(0))
        assert logits.value.shape == (2, 10)
        assert len(kl) == 4

    def test_conv1_input_takes_no_gradient(self):
        # the network input is a constant, so conv1's backward skips its
        # column gradient and col2im, and no gradient is stored for it
        net = build_lenet5_caffe()
        x = np.random.default_rng(7).random((3, 28, 28))
        logits, _ = forward_train(net, x, d.make_rng(0))
        ad.backward(sum_all(logits))
        leaves = [n for n in ad._topo_order(logits) if not n._parents]
        (inp,) = [n for n in leaves if n.shape == (1, 28, 28, 3)]
        assert not inp.needs_grad and inp._grad is None
        assert np.array_equal(inp.value[0].transpose(2, 0, 1), x)
        assert np.abs(net.layers[0].w.grad).sum() > 0

    @pytest.mark.parametrize(
        "build",
        [build_lenet_500_300, build_lenet5_caffe, lambda **kw: build_mlp((4, 3, 2), **kw)],
        ids=["lenet_500_300", "lenet5_caffe", "mlp"],
    )
    def test_gate_options_reach_every_gate(self, build):
        options = dict(alpha_over_k=0.5, eps=0.2, momentum=0.1)
        net = build(seed=0, **options)
        for g in net.gates():
            assert {name: getattr(g, name) for name in options} == options

    @pytest.mark.parametrize("dims", [(20, 0, 2), (4, -1, 2), (5,)])
    def test_mlp_needs_two_positive_widths(self, dims):
        with pytest.raises(DimensionError, match="mlp dims must be two or more positive"):
            build_mlp(dims)

    def test_gate_mode_is_the_mode_every_gate_shares(self):
        net = build_mlp((6, 5, 2))
        assert net.gate_mode == MODE_BB
        net.set_gate_mode(MODE_DBB)
        assert net.gate_mode == MODE_DBB
        net.set_gate_mode(None)
        assert net.gate_mode is None

    def test_gates_in_different_modes_are_refused_when_built(self):
        net = build_mlp((6, 5, 2))
        net.gates()[0].enter_dbb()
        with pytest.raises(ContractError, match=r"share one mode, got \['bb', 'dbb'\]"):
            Network(net.layers, meta=net.meta)
        with pytest.raises(ContractError, match="share one mode"):
            net.gate_mode  # the gates changed after the network was built

    def test_network_without_a_list_input_shape_is_contract_error(self):
        layers = build_mlp((4, 3)).layers
        for meta in (None, {"arch": "mlp"}, {"input_shape": "4"}):
            with pytest.raises(ContractError, match="input_shape"):
                Network(layers, meta=meta)

    @pytest.mark.parametrize("stack,input_shape,named", [
        (lambda: [conv(c_in=2), dense(16)], [1, 6, 6], "needs 1 input channels"),
        (lambda: [conv(), conv(c_out=5, c_in=3), dense(20)], [1, 14, 14],
         "conv layer 1 of shape (5, 3, 3, 3) needs 4 input channels"),
        (lambda: [conv(k2=2), dense(16)], [1, 6, 6], "a square kernel"),
        (lambda: [conv(), dense(36)], [1, 7, 7], "conv layer 0 outputs 5x5 maps"),
        (lambda: [conv(), dense(4)], [1, 3, 3], "conv layer 0 outputs 1x1 maps"),
        (lambda: [dense(4, 0), dense(0)], [4], "layer 0 has an empty weight of shape (4, 0)"),
        (lambda: [conv(gate=GateState.create(3)), dense(16)], [1, 6, 6],
         "the gate of layer 0 is 3 wide, not 4"),
        (lambda: [conv(), dense(16, gate=GateState.create(15))], [1, 6, 6],
         "the gate of layer 1 is 15 wide, not 16"),
        (lambda: [dense(3, select=[-1, 2, 4])], [6], "must hold 3 increasing indices below 6"),
        (lambda: [dense(3, select=[0, 2, 6])], [6], "must hold 3 increasing indices below 6"),
        (lambda: [dense(3, select=[0, 2])], [6], "must hold 3 increasing indices below 6"),
        (lambda: [dense(3, select=[[0, 2, 4]])], [6], "layer 0 must hold 3 increasing"),
        (lambda: [dense(1)], [0], "input_shape must list one or more positive ints, got [0]"),
        (lambda: [dense(1)], [True], "input_shape must list one or more positive ints"),
        (lambda: [dense(1)], [], "input_shape must list one or more positive ints, got []"),
    ], ids=["conv-channels", "second-conv-channels", "non-square-kernel", "odd-extent",
            "extent-below-2", "empty-weight", "conv-gate-width", "dense-gate-width",
            "select-negative", "select-beyond", "select-short", "select-2d",
            "input-shape-zero", "input-shape-bool", "input-shape-empty"])
    def test_network_whose_layers_do_not_fit_is_not_built(self, stack, input_shape, named):
        with pytest.raises(ContractError, match=re.escape(named)):
            Network(stack(), meta={"input_shape": input_shape})

    def test_channel_axis_added_for_conv_input(self):
        net = build_lenet5_caffe()
        x = RNG.random((2, 28, 28))
        assert forward_eval(net, x).shape == (2, 10)

    def test_flat_and_image_inputs_give_the_same_conv_logits(self):
        net = build_lenet5_caffe(seed=1)
        x = RNG.random((3, 1, 28, 28))
        logits = forward_eval(net, x)
        for shaped in (x.reshape(3, 784), x.reshape(3, 28, 28)):
            assert np.array_equal(forward_eval(net, shaped), logits)


class TestSetGateMode:
    @pytest.mark.parametrize("start", [None, MODE_BB, MODE_DBB], ids=str)
    @pytest.mark.parametrize("mode", [None, MODE_BB, MODE_DBB], ids=str)
    def test_each_transition(self, start, mode):
        # gates are added in BB to a network without them and enter DBB from
        # BB; None drops them from any mode, and DBB stays DBB
        net = mlp_in_mode(start)
        ids = [id(g) for g in net.gates()]
        if (start, mode) in [(None, MODE_DBB), (MODE_DBB, MODE_BB)]:
            with pytest.raises(ContractError, match=f"enter mode {mode!r} from mode {start!r}"):
                net.set_gate_mode(mode)
            assert net.gate_mode == start and [id(g) for g in net.gates()] == ids
            return
        net.set_gate_mode(mode)
        assert net.gate_mode == mode
        if mode is None:
            assert net.gates() == [] and all(layer.gate is None for layer in net.layers)
        elif start is None:
            assert [g.k for g in net.gates()] == [6, 5]
        else:  # the same gates, a BB one entering DBB in place
            assert [id(g) for g in net.gates()] == ids

    @pytest.mark.parametrize("start,mode", [(None, None), (None, MODE_DBB), (MODE_BB, MODE_BB),
                                            (MODE_BB, MODE_DBB), (MODE_DBB, MODE_DBB)], ids=str)
    def test_options_go_only_to_new_bb_gates(self, start, mode):
        net = mlp_in_mode(start)
        with pytest.raises(ContractError, match="with options"):
            net.set_gate_mode(mode, eps=0.2)
        assert net.gate_mode == start
        assert all(g.eps == GateState.create(1).eps for g in net.gates())

    def test_new_bb_gates_are_those_the_builder_makes(self):
        built = build_lenet5_caffe(seed=0, alpha_over_k=0.5, eps=0.2, momentum=0.1)
        net = build_lenet5_caffe(seed=0)
        net.set_gate_mode(None)
        net.set_gate_mode(MODE_BB, alpha_over_k=0.5, eps=0.2, momentum=0.1)
        assert [g.k for g in net.gates()] == [20, 50, 800, 500]
        for gate, ref in zip(net.gates(), built.gates(), strict=True):
            assert (gate.alpha_over_k, gate.eps, gate.momentum) == (0.5, 0.2, 0.1)
            assert gate.arrays().keys() == ref.arrays().keys()
            assert all(np.array_equal(v, ref.arrays()[k]) for k, v in gate.arrays().items())


class TestForwardTrain:
    def test_forced_full_masks_equal_ungated_forward(self):
        net = toy_net()
        x = RNG.normal(size=(4, 6))
        forced = {i: np.ones((4, g.k)) for i, g in enumerate(net.gates())}
        logits = forced_mask_forward(net, x, forced)
        net.set_gate_mode(None)
        plain, kl = forward_train(net, x, d.make_rng(0))
        assert np.array_equal(logits.value, plain.value)
        assert kl == []

    def test_forced_zero_first_gate_leaves_bias_only_logits(self):
        net = toy_net()
        x = RNG.normal(size=(4, 6))
        forced = {0: np.zeros((4, 6)), 1: np.ones((4, 5))}
        logits = forced_mask_forward(net, x, forced)
        # zeroed input -> first layer output is its bias, downstream deterministic
        h = np.maximum(net.layers[0].b.value, 0.0)
        expected = np.maximum(h, 0.0) @ net.layers[1].w.value + net.layers[1].b.value
        assert np.allclose(logits.value, np.tile(expected, (4, 1)), atol=1e-12)

    def test_pool_first_conv_block_matches_mask_relu_pool_order(self):
        # the walk runs conv, pool, relu, mask; the logits equal those of
        # conv, mask, relu, pool bit for bit, also for masks with exact zeros
        net = build_lenet5_caffe(seed=2)
        x = RNG.random((6, 28, 28))
        masks = {}
        for i, g in enumerate(net.gates()):
            m = RNG.uniform(0.0, 1.0, size=(6, g.k))
            m[RNG.random(m.shape) < 0.3] = 0.0
            masks[i] = m
        coeffs = ad.constant(RNG.normal(size=(6, 10)))
        logits = forced_mask_forward(net, x, masks)
        ad.backward(sum_all(ad.mul(logits, coeffs)))
        walk_grads = [layer.w.grad for layer in net.layers]
        ad.zero_gradients(net.parameters())

        h = ad.constant(x.transpose(1, 2, 0)[None])  # (C, H, W, B)
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

    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_walk_hands_conv2d_contiguous_batch_innermost_maps(self, monkeypatch, train):
        # the walk moves the batch innermost once: every conv, the graph op in
        # training and the tiled pass in evaluation, reads a C-contiguous
        # (C, H, W, B) map, however the images come in
        seen = []
        name = "conv2d" if train else "conv2d_pool_means"
        op = getattr(ad, name)

        def recording(x, w, b):
            xv = x.value if train else x
            seen.append((xv.shape, xv.flags.c_contiguous))
            return op(x, w, b)

        monkeypatch.setattr(ad, name, recording)
        net = build_lenet5_caffe(seed=4)
        x = RNG.random((3, 28, 28))
        if train:
            forward_train(net, x.reshape(3, -1), d.make_rng(0))
        else:
            forward_eval(net, x[:, None])
        assert seen == [((1, 28, 28, 3), True), ((20, 12, 12, 3), True)]

    def test_missing_gate_contract(self):
        # a DBB pass needs the BB gates that DBB is entered from
        net = build_mlp((4, 3))
        net.set_gate_mode(None)
        with pytest.raises(ContractError, match="enter mode 'dbb' from mode None"):
            net.set_gate_mode(MODE_DBB)
        assert net.gates() == []

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_full_loss_gradients_match_fd(self, mode):
        net = toy_net(seed=1, mode=mode)
        x = RNG.normal(size=(4, 6))
        y = np.array([0, 1, 2, 0])
        params = net.parameters() + net.variational_parameters()

        def loss():
            logits, kls = forward_train(net, x, d.make_rng(33), tau=0.8)
            total = ad.softmax_cross_entropy(logits, y)
            for kl in kls:
                total = ad.add(total, ad.mul(kl, ad.constant(0.01)))
            return total

        gradcheck(loss, params, rtol=1e-4, atol=1e-7)

    def test_conv_net_loss_gradients_match_fd(self):
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
        hard = forced_mask_forward(net, x, forced)
        assert np.abs(logits.value - hard.value).max() < 1e-6


class TestForwardEval:
    @pytest.mark.parametrize("mode,bsz", [(MODE_BB, 1), (MODE_BB, 61), (MODE_DBB, 1)],
                             ids=["bb-1", "bb-ragged", "dbb-1"])
    def test_eval_equals_the_graph_walk_bit_for_bit(self, mode, bsz):
        # at batch 61 conv2's tiles hold 21, 21 and 19 examples; at batch 1
        # each conv is one tile, so the DBB gate inputs are bit-equal too
        rng = np.random.default_rng(5)
        net = interior_gates(build_lenet5_caffe(seed=5), rng, mode)
        if mode == MODE_DBB:
            forward_train(net, rng.random((8, 784)), d.make_rng(0))  # running statistics
        x = rng.random((bsz, 784))
        graph = keep_set_forward(net, x, [np.arange(g.k) for g in net.gates()])
        assert np.array_equal(forward_eval(net, x), graph)

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_eval_logits_do_not_depend_on_the_worker_count(self, mode):
        # at batch 61 conv2's 3 example shares run on the pool
        rng = np.random.default_rng(6)
        net = interior_gates(build_lenet5_caffe(seed=6), rng, mode)
        if mode == MODE_DBB:
            forward_train(net, rng.random((8, 784)), d.make_rng(0))  # running statistics
        x = rng.random((61, 784))
        logits = []
        for n in (1, 2):
            with share_workers(n):
                logits.append(forward_eval(net, x))
        assert np.array_equal(*logits)

    def test_an_input_with_no_batch_axis_is_refused(self):
        net = build_mlp((1, 2))
        net.set_gate_mode(None)
        assert forward_eval(net, [3.0]).shape == (1, 2)
        with pytest.raises(DimensionError, match=r"got \(\)"):
            forward_eval(net, np.float64(3.0))

    @pytest.mark.parametrize("case", ["conv-eval", "conv-train", "dense-eval"])
    def test_an_empty_batch_is_refused(self, case):
        net = build_lenet5_caffe(seed=0) if case.startswith("conv") else build_lenet_500_300()
        x = np.zeros((0, 784))
        with pytest.raises(ContractError, match="at least one example"):
            if case.endswith("train"):
                forward_train(net, x, d.make_rng(0))
            else:
                forward_eval(net, x)

    def test_gate_means_one_equal_ungated(self):
        net = toy_net()
        for g in net.gates():
            # E_q[pi] = a/(a+1) at b=1 approaches 1 only asymptotically
            g.a_raw.value = np.full(g.k, 1e8)
            g.b_raw.value = np.full(g.k, float(d.softplus_inv(1.0)))
            assert g.expected_pi() == pytest.approx(np.ones(g.k), abs=2e-8)
        x = RNG.normal(size=(5, 6))
        gated = forward_eval(net, x)
        net.set_gate_mode(None)
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
            logits = forced_mask_forward(net, x, forced)
            total += logits.value
        mc = total / n
        det = forward_eval(net, x)
        assert np.abs((mc - det) / det).max() < 0.02


    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_wrong_input_width_is_dimension_error(self, mode):
        net = toy_net(mode=mode)
        for g in net.gates() if mode == MODE_DBB else ():
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
        forward_eval(net, x, return_masks=True)
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

    @pytest.mark.parametrize(
        "first", [[0, 0, 1], [-1, 0], [0.5, 1], [0, 9], [[0, 1]]],
        ids=["repeated", "negative", "fractional", "out-of-range", "two-dimensional"])
    def test_invalid_keep_set_is_contract_error(self, first):
        # the first four built a net unlike the keep_sets reference, or
        # raised a bare IndexError
        net = build_mlp((4, 3, 2), seed=0)
        with pytest.raises(ContractError, match="keep set of layer 0"):
            shrink(net, [first, [0, 1, 2]])

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
        ref = keep_set_forward(net, x, keeps)
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
            ref = keep_set_forward(net, x, keeps)
            got = forward_eval(small, x)
            assert np.abs(got - ref).max() < 1e-9

    def test_equivalence_random_keeps_lenet5(self):
        net = build_lenet5_caffe(seed=1)
        rng = d.make_rng(9)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.4, g.k)
        keeps = self._random_keeps(net, rng, frac=0.4)
        small = shrink(net, keeps)
        x = RNG.random((2, 1, 28, 28))
        ref = keep_set_forward(net, x, keeps)
        got = forward_eval(small, x)
        assert np.abs(got - ref).max() < 1e-9

    def test_equivalence_lenet_500_300_folded(self):
        net = build_lenet_500_300(seed=2)
        rng = d.make_rng(10)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.4, g.k)
        keeps = self._random_keeps(net, rng, frac=0.3)
        small = shrink(net, keeps, fold_masks=True)
        assert small.gates() == []
        x = RNG.random((4, 784))
        ref = keep_set_forward(net, x, keeps)
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_reshrunk_net_matches_its_keep_set_reference(self, seed):
        # shrink(shrink(net, k1), k2) must give the masked forward of the
        # once-shrunk net, including a dense gate reading through input_select
        rng = d.make_rng(seed)
        net = build_lenet5_caffe(seed=seed) if seed % 2 else toy_net(seed, dims=(9, 8, 6, 3))
        x = RNG.random((3, 1, 28, 28)) if seed % 2 else RNG.normal(size=(3, 9))
        once = shrink(net, self._random_keeps(net, rng, frac=0.7))
        keeps = self._random_keeps(once, rng, frac=0.6)
        twice = shrink(once, keeps, fold_masks=seed % 3 == 0)
        ref = keep_set_forward(once, x, keeps)
        assert np.abs(forward_eval(twice, x) - ref).max() < 1e-9

    @pytest.mark.parametrize("ungated", [(0,), (1,), (2,), (3,), (0, 2), (1, 3), (1, 2)])
    def test_ungated_layers_keep_all_their_units(self, ungated):
        net = build_lenet5_caffe(seed=4)
        for i in ungated:
            net.layers[i].gate = None
        rng = d.make_rng(len(ungated) + 10 * ungated[0])
        keeps = self._random_keeps(net, rng, frac=0.5)
        small = shrink(net, keeps)
        x = RNG.random((2, 1, 28, 28))
        ref = keep_set_forward(net, x, keeps)
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
        ref = keep_set_forward(net, x, keeps)
        assert np.abs(forward_eval(small, x) - ref).max() < 1e-9
        if 0 in ungated:
            assert small.layers[0].input_select is None

    def test_fold_masks_rejected_for_dbb(self):
        net = toy_net(mode=MODE_DBB)
        with pytest.raises(ContractError):
            shrink(net, [np.arange(g.k) for g in net.gates()], fold_masks=True)

    def test_empty_keep_set_collapse(self):
        net = toy_net()
        with pytest.raises(PruneCollapseError, match="layer"):
            shrink(net, [np.arange(6), np.array([], dtype=int)])

    def test_keep_set_count_is_contract_error(self):
        net = build_lenet5_caffe(seed=0)
        keeps = [np.arange(g.k) for g in net.gates()]
        with pytest.raises(ContractError, match="expected 4 keep sets, got 3"):
            shrink(net, keeps[:3])

    def test_dense_input_of_pruned_channels_only_collapse(self):
        # fc1's kept rows 16-31 read conv2 channel 1, which pruning removes
        net = build_lenet5_caffe(seed=0)
        keeps = [np.arange(20), np.array([0]), np.arange(16, 32), np.arange(500)]
        with pytest.raises(PruneCollapseError, match="pruning removes every input of layer 2"):
            shrink(net, keeps)

    def test_conv_channel_mask_zeroes_whole_channel(self):
        net = build_lenet5_caffe(seed=3)
        x = RNG.random((2, 1, 28, 28))
        ref = forward_eval(net, x)
        g0 = net.gates()[0]
        keeps = [np.array([c for c in range(20) if c != 4])] + [
            np.arange(g.k) for g in net.gates()[1:]
        ]
        masked = keep_set_forward(net, x, keeps)
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
            for name in ("a_raw", "b_raw", "gamma", "eta", "kappa_raw"):
                node, back = getattr(ga, name), getattr(gb, name)
                assert np.array_equal(node.value, back.value), name
                assert back.needs_grad == node.needs_grad, name  # the raws load as constants
            assert np.array_equal(ga.run_mean, gb.run_mean)
            assert np.array_equal(ga.run_std, gb.run_std)
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
        rng = d.make_rng(7)
        for g in net.gates():
            g.a_raw.value = g.a_raw.value + rng.normal(0, 0.3, g.k)
        x = RNG.random((3, 1, 28, 28))
        path = tmp_path / "net.ckpt"
        for mode in (MODE_BB, MODE_DBB):
            net.set_gate_mode(mode)
            for g in net.gates() if mode == MODE_DBB else ():
                g.update_running_stats(rng.normal(size=(4, g.k)))
            save_checkpoint(net, path)
            assert np.array_equal(forward_eval(load_checkpoint(path), x), forward_eval(net, x))

    def test_dense_input_select_is_bounded_by_the_conv_it_reads(self, tmp_path):
        # conv2 keeps 10 channels of 4x4 pooled values: the dense layer reads 160
        keeps = [np.arange(20), np.arange(10), np.arange(0, 160, 2), np.arange(500)]
        small = shrink(build_lenet5_caffe(seed=8), keeps)
        path = tmp_path / "net.ckpt"
        save_checkpoint(small, path)
        x = RNG.random((2, 1, 28, 28))
        assert np.array_equal(forward_eval(load_checkpoint(path), x), forward_eval(small, x))
        edit_manifest(path, lambda m: m["layers"][2]["input_select"].__setitem__(-1, 160))
        with pytest.raises(CheckpointError,
                           match="layer 2 must hold 80 increasing indices below 160"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(UNFIT_CHECKPOINTS))
    def test_checkpoint_whose_layers_do_not_fit_is_typed_error(self, tmp_path, case):
        # the loader rejects them, not the first forward pass
        write, named = UNFIT_CHECKPOINTS[case]
        path = tmp_path / "net.ckpt"
        write(path)
        with pytest.raises(CheckpointError, match=re.escape(named)):
            load_checkpoint(path)

    def test_dbb_gate_without_statistics_is_typed_error(self, tmp_path):
        # such a gate cannot give an expected mask, so the net could not run;
        # it is refused before the file is opened
        path = tmp_path / "net.ckpt"
        with pytest.raises(ContractError, match="DBB gate of layer 0 holds no input statistics"):
            save_checkpoint(toy_net(seed=21, mode=MODE_DBB), path)
        assert not path.exists()

    @pytest.mark.parametrize("std", [0.0, 0.5e-3])
    def test_dbb_run_std_below_sigma_floor_is_typed_error(self, tmp_path, std):
        # update_running_stats never writes a std below the floor; one read
        # from a file would divide the gate input by it
        net = toy_net(seed=24, dims=(6, 5, 2), mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        net.gates()[0].run_std[1] = std
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match=f"run_std must be at least the floor {SIGMA_FLOOR}"):
            load_checkpoint(path)

    def test_dbb_run_std_at_sigma_floor_loads(self, tmp_path):
        # a constant gate input gives a std of exactly the floor
        net = toy_net(seed=25, dims=(6, 5, 2), mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(np.ones((4, g.k)))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        assert np.array_equal(load_checkpoint(path).gates()[0].run_std, np.full(6, SIGMA_FLOOR))

    def test_gates_in_different_modes_are_typed_error_at_load(self, tmp_path):
        net = toy_net(seed=26, dims=(6, 5, 2))
        gate = net.gates()[0]
        gate.enter_dbb()
        gate.update_running_stats(RNG.normal(size=(8, 6)))
        path = tmp_path / "net.ckpt"
        with pytest.raises(ContractError, match="share one mode"):
            save_checkpoint(net, path)  # refused before the file opens
        assert not path.exists()
        # so write the file past the save-time check
        save_checkpoint(SimpleNamespace(layers=net.layers, gate_mode=None, meta=net.meta), path)
        with pytest.raises(CheckpointError, match="gates must share one mode"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mode,manifest,payload", [
        (MODE_BB, '{"format_version":6,', (552, "c1e5df30eace9b72")),
        (MODE_DBB, '{"format_version":6,', (992, "06a9e2a41cc15f2d")),
    ], ids=[MODE_BB, MODE_DBB])
    def test_checkpoint_bytes_are_pinned(self, tmp_path, mode, manifest, payload):
        # key order and payload order are the file format: a change to either
        # must change FORMAT_VERSION, not slip through a round trip
        net = build_mlp((6, 5, 2), seed=0)
        if mode == MODE_DBB:
            net.set_gate_mode(MODE_DBB)
            rng = d.make_rng(1)
            for g in net.gates():
                g.update_running_stats(rng.normal(size=(4, g.k)))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        head, body = path.read_bytes().split(b"\n", 1)
        gate = '{"alpha_over_k":0.0001,"eps":0.001,"mode":"%s","momentum":0.9}' % mode
        assert head.decode() == (
            manifest + '"meta":{"arch":"mlp","dims":[6,5,2],"input_shape":[6]},"layers":['
            '{"kind":"dense","shape":[6,5],"input_select":null,"gate":%s},'
            '{"kind":"dense","shape":[5,2],"input_select":null,"gate":%s}]}' % (gate, gate))
        assert (len(body), hashlib.sha256(body).hexdigest()[:16]) == payload

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
            (b'"shape":[6,5],', b"", "'shape'"),
            (b'"alpha_over_k":0.0001,', b"", "'alpha_over_k'"),
            (b',"input_shape":[6]', b"", "'input_shape'"),
        ],
        ids=["missing-shape", "missing-gate-key", "missing-input-shape"],
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
        # the gate's own ContractError for an out-of-range eps reaches the caller as it is
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=20), path)
        edit_manifest(path, lambda m: m["layers"][0]["gate"].update(eps=0.7))
        with pytest.raises(ContractError, match=re.escape("eps must lie in (0, 0.5), got 0.7")):
            load_checkpoint(path)

    def test_unknown_gate_mode_is_typed_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=20), path)
        edit_manifest(path, lambda m: m["layers"][0]["gate"].update(mode="fast"))
        with pytest.raises(CheckpointError, match="mode of layer 0's gate must be one of"):
            load_checkpoint(path)

    def test_swapped_weight_extents_are_length_error(self, tmp_path):
        # the (6, 5) weight keeps its 30 values, but the bias and the gate
        # arrays follow it, so the layers now use 6 + 7 * 5 values, not 5 + 7 * 6
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=20), path)
        edit_manifest(path, lambda m: m["layers"][0].update(shape=[5, 6]))
        with pytest.raises(CheckpointLengthError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape,error", [([3, 1], CheckpointTruncatedError),
                                             ([1, 1], CheckpointLengthError)],
                             ids=["one-value-more", "one-value-fewer"])
    def test_shape_beyond_or_short_of_the_payload(self, tmp_path, shape, error):
        # an ungated (2, 1) layer stores 2 weights and 1 bias
        path = tmp_path / "net.ckpt"
        net = build_mlp((2, 1))
        net.set_gate_mode(None)
        save_checkpoint(net, path)
        edit_manifest(path, lambda m: m["layers"][0].update(shape=shape))
        with pytest.raises(error):
            load_checkpoint(path)

    def test_manifest_that_is_not_an_object_is_typed_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        path.write_bytes(b"[1]\n")
        with pytest.raises(CheckpointError, match=re.escape("manifest must be an object, got [1]")):
            load_checkpoint(path)

    def test_version_2_file_is_version_error(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_checkpoint(build_lenet5_caffe(seed=5), path)
        edit_manifest(path, to_format_version_2)
        with pytest.raises(CheckpointVersionError, match="version 2 "):
            load_checkpoint(path)

    def test_version_3_file_is_version_error(self, tmp_path):
        net = toy_net(seed=23, mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        edit_manifest(path, to_format_version_3)
        with pytest.raises(CheckpointVersionError, match="version 3 "):
            load_checkpoint(path)

    def test_version_4_file_is_version_error(self, tmp_path):
        # format 4 stored a sigma_floor per gate, which need not be today's floor
        net = toy_net(seed=27, mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        edit_manifest(path, to_format_version_4)
        with pytest.raises(CheckpointVersionError, match="version 4 "):
            load_checkpoint(path)

    def test_version_5_file_is_version_error(self, tmp_path):
        # format 5 held a switch beside the gates that said whether they act
        path = tmp_path / "net.ckpt"
        save_checkpoint(toy_net(seed=28), path)
        edit_manifest(path, to_format_version_5)
        with pytest.raises(CheckpointVersionError, match="version 5 "):
            load_checkpoint(path)

    def test_payload_holds_two_arrays_per_bb_gate_and_seven_per_dbb_gate(self, tmp_path):
        net = toy_net(seed=22, dims=(8, 6, 3))
        path = tmp_path / "net.ckpt"

        def payload_bytes():
            save_checkpoint(net, path)
            blob = path.read_bytes()
            return len(blob) - blob.index(b"\n") - 1

        weights_and_biases = sum(p.value.size for p in net.parameters())
        units = sum(g.k for g in net.gates())
        assert payload_bytes() == 8 * (weights_and_biases + 2 * units)
        net.set_gate_mode(MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        assert payload_bytes() == 8 * (weights_and_biases + 7 * units)

    def test_non_finite_payload_rejected(self, tmp_path):
        net = toy_net(seed=18, mode=MODE_DBB)
        for g in net.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
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


# Values that a manifest substitution puts in the place of any manifest value.
SUBSTITUTES = (0, 1, 2, 3, 4, 6, 7, 9, 16, 28, -1, 2**40, 0.5, 1e300, "x", "dbb", None, True,
               False, [], [1], [2, 3], [1, 12, 12], [1, 28, 28], [1, 30, 30], {})
# Probe inputs above this many values per example are not allocated; count_flops still runs.
PROBE_LIMIT = 10**6


def _value_paths(value, path=()):
    """The path of ``value`` and of every value inside it, containers included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _value_paths(inner, path + (key,))


def _layer_values(entry) -> int:
    """The payload values of one manifest layer entry: a BB gate stores two
    arrays, a DBB gate seven."""
    shape = entry["shape"]
    gate = entry["gate"]
    gate_values = 0 if gate is None else {"bb": 2, "dbb": 7}[gate["mode"]] * shape[0]
    return math.prod(shape) + shape[1 if entry["kind"] == "dense" else 0] + gate_values


def _rekind(entry) -> dict:
    """``entry`` as the other layer kind, with as many weights."""
    shape = entry["shape"]
    if entry["kind"] == "dense":
        return {**entry, "kind": "conv", "shape": [shape[1], shape[0], 1, 1]}
    return {**entry, "kind": "dense", "shape": [math.prod(shape[1:]), shape[0]],
            "input_select": None}


def _mutants(blob: bytes, rng, count: int):
    """``count`` seeded edits of a checkpoint: byte flips, manifest value
    substitutions, and layer entries dropped, duplicated, swapped or
    re-kinded together with their payload values."""
    nl = blob.index(b"\n")
    manifest = json.loads(blob[:nl])
    paths = list(_value_paths(manifest))
    sizes = [8 * _layer_values(e) for e in manifest["layers"]]
    ends = np.cumsum([0] + sizes)
    parts = [(e, blob[nl + 1 + a:nl + 1 + b])
             for e, a, b in zip(manifest["layers"], ends, ends[1:])]
    for n in range(count):
        kind = n % 5
        if kind < 2:  # a byte flip, in the manifest for every other one
            at = int(rng.integers(nl if kind == 0 else len(blob)))
            out = bytearray(blob)
            out[at] ^= int(rng.integers(1, 256))
            yield bytes(out)
            continue
        edited = json.loads(blob[:nl])
        layers = list(parts)
        if kind < 4:
            path = paths[int(rng.integers(len(paths)))]
            value = SUBSTITUTES[int(rng.integers(len(SUBSTITUTES)))]
            if not path:
                edited = value
            else:
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
        else:
            i, j = (int(v) for v in rng.integers(len(layers), size=2))
            edit = int(rng.integers(4))
            if edit == 0:
                del layers[i]
            elif edit == 1:
                layers.insert(i, layers[i])
            elif edit == 2:
                layers[i], layers[j] = layers[j], layers[i]
            else:
                layers[i] = (_rekind(layers[i][0]), layers[i][1])
            edited["layers"] = [e for e, _ in layers]
        payload = b"".join(p for _, p in layers)
        yield json.dumps(edited, separators=(",", ":")).encode() + b"\n" + payload


class TestCheckpointMutations:
    def _bases(self):
        """A shrunk BB lenet5_caffe and a shrunk DBB mlp, each with input_selects."""
        lenet = build_lenet5_caffe(seed=3)
        lenet = shrink(lenet, [np.arange(0, 20, 5), np.arange(0, 50, 8),
                               np.arange(0, 800, 3), np.arange(0, 500, 25)])
        mlp = toy_net(seed=4, dims=(12, 9, 6, 3), mode=MODE_DBB)
        for g in mlp.gates():
            g.update_running_stats(RNG.normal(size=(8, g.k)))
        mlp = shrink(mlp, [np.arange(0, 12, 2), np.arange(7), np.arange(1, 6)])
        return [lenet, mlp]

    def test_mutated_checkpoint_fails_typed_at_load_or_runs(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "net.ckpt"
        outcomes = {"rejected": 0, "ran": 0}
        for net in self._bases():
            assert any(l.kind == "dense" and l.input_select is not None for l in net.layers)
            save_checkpoint(net, path)
            for blob in _mutants(path.read_bytes(), rng, 450):
                path.write_bytes(blob)
                try:
                    loaded = load_checkpoint(path)
                except BetadropError as exc:
                    # the gate's own ContractError (an unknown mode, say) passes unwrapped
                    assert isinstance(exc, (CheckpointError, ContractError)), blob[:300]
                    outcomes["rejected"] += 1
                    continue
                count_flops(loaded)
                shape = loaded.meta["input_shape"]
                if math.prod(shape) <= PROBE_LIMIT:
                    with np.errstate(all="ignore"):
                        assert forward_eval(loaded, np.zeros((1, *shape))).shape[0] == 1
                outcomes["ran"] += 1
        assert outcomes["rejected"] > 300 and outcomes["ran"] > 100, outcomes
