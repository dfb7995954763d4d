"""Trainer tests: Adam arithmetic, ELBO scaling and unbiasedness, stage
behaviors (pretrain, input-independent fine-tune, frozen stage 2)."""

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import distributions as d
from betadrop import training
from betadrop.analysis import count_flops, prune_by_threshold, runtime_prune_stats
from betadrop.data import Dataset, synthetic_planted_sparsity, synthetic_two_cluster
from betadrop.errors import (
    ContractError,
    DimensionError,
    InvariantViolationError,
    TrainingDivergedError,
)
from betadrop.gates import MODE_BB, MODE_DBB
from betadrop.layers import build_lenet5_caffe, build_mlp, forward_eval, shrink
from betadrop.training import (
    AdamState,
    MetricsLog,
    TrainConfig,
    adam_step,
    elbo_loss,
    evaluate_error,
    finetune_bb,
    finetune_dbb,
    pretrain,
)

from helpers import glyph_images, gradcheck


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig().validate()
        assert cfg.effective_lr_weights() == pytest.approx(1e-4)

    def test_kl_scale_below_one_rejected(self):
        with pytest.raises(ContractError):
            TrainConfig(kl_scale=0.5).validate()

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ContractError):
            TrainConfig(tau=0.0).validate()

    @pytest.mark.parametrize("logit_eps", [0.0, -1e-6, 0.5, 0.7, float("nan")])
    def test_logit_eps_outside_open_half_interval_rejected(self, logit_eps):
        with pytest.raises(ContractError, match="logit_eps"):
            TrainConfig(logit_eps=logit_eps).validate()

    def test_multiplier_count_checked(self):
        net = build_mlp((4, 3, 2))
        cfg = TrainConfig(per_layer_kl_multipliers=(1.0,))
        with pytest.raises(ContractError):
            cfg.multipliers_for(net)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(2)], state, lr=0.1)
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_is_minus_lr(self):
        p = ad.parameter(np.array([0.0]))
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(1)], state, lr=0.1)
        assert p.value[0] == pytest.approx(-0.1, rel=1e-6)

    def test_constant_gradient_step_converges_to_lr(self):
        p = ad.parameter(np.array([0.0]))
        state = AdamState.for_params([p])
        g = np.array([3.7])
        prev = p.value.copy()
        for _ in range(300):
            prev = p.value.copy()
            adam_step([p], [g], state, lr=0.05)
        assert abs(prev[0] - p.value[0]) == pytest.approx(0.05, rel=0.02)
        assert p.value[0] < 0.0  # moves against the gradient sign

    def test_shape_mismatch(self):
        p = ad.parameter(np.zeros(3))
        state = AdamState.for_params([p])
        with pytest.raises(Exception):
            adam_step([p], [np.zeros(4)], state, lr=0.1)


def small_net(seed=0, dims=(6, 5, 2)):
    net = build_mlp(dims, seed=seed)
    net.gates_enabled = True
    for g in net.gates():
        g.mode = MODE_BB
    return net


class TestElboLoss:
    def test_gates_at_prior_leave_scaled_nll_only(self):
        net = small_net()
        cfg = TrainConfig(weight_decay=0.0, kl_scale=7.0)
        for g in net.gates():
            g.a_raw.value = np.full(g.k, float(d.softplus_inv(g.alpha_over_k)))
            g.b_raw.value = np.full(g.k, float(d.softplus_inv(1.0)))
        x = np.random.default_rng(0).normal(size=(4, 6))
        y = np.array([0, 1, 0, 1])
        loss, parts = elbo_loss(net, (x, y), 100, cfg, d.make_rng(0))
        assert parts["kl"] == pytest.approx(0.0, abs=1e-9)
        assert float(loss.value) == pytest.approx(100.0 * parts["nll"], rel=1e-12)

    def test_duplicated_batch_same_scaled_loss(self):
        net = small_net()
        net.gates_enabled = False  # deterministic pass isolates the N/|B| scaling
        cfg = TrainConfig(weight_decay=0.0)
        x = np.random.default_rng(1).normal(size=(8, 6))
        y = np.tile([0, 1], 4)
        l1, _ = elbo_loss(net, (x, y), 1000, cfg, d.make_rng(0))
        l2, _ = elbo_loss(
            net, (np.concatenate([x, x]), np.concatenate([y, y])), 1000, cfg, d.make_rng(0)
        )
        assert float(l1.value) == pytest.approx(float(l2.value), rel=1e-12)

    def test_weight_decay_adds_half_wd_squared_norm_with_gradient_wd_w(self):
        net = small_net()
        net.gates_enabled = False
        x = np.random.default_rng(2).normal(size=(4, 6))
        y = np.array([0, 1, 1, 0])
        plain, _ = elbo_loss(net, (x, y), 10, TrainConfig(weight_decay=0.0), d.make_rng(0))
        ad.backward(plain)
        plain_grads = [w.grad for w in net.weight_nodes()]
        ad.zero_gradients(net.parameters())
        loss, _ = elbo_loss(net, (x, y), 10, TrainConfig(weight_decay=0.3), d.make_rng(0))
        ad.backward(loss)
        norms = [float((w.value ** 2).sum()) for w in net.weight_nodes()]
        assert float(loss.value) == float(plain.value) + (norms[0] + norms[1]) * 0.15
        for w, g in zip(net.weight_nodes(), plain_grads):
            assert np.allclose(w.grad, g + 0.3 * w.value, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_loss_node_value_and_gradients(self, mode):
        # one node carries N, kl_scale, the per-gate multipliers and weight decay
        net = small_net(seed=5)
        net.set_gate_mode(mode)
        x = np.random.default_rng(5).normal(size=(4, 6))
        y = np.array([0, 1, 1, 0])
        cfg = TrainConfig(kl_scale=3.0, per_layer_kl_multipliers=(2.0, 0.5),
                          weight_decay=0.1, tau=0.8)
        loss, parts = elbo_loss(net, (x, y), 10, cfg, d.make_rng(6))
        norms = sum(float((w.value ** 2).sum()) for w in net.weight_nodes())
        expected = 10.0 * parts["nll"] + 3.0 * parts["kl"] + 0.05 * norms
        assert float(loss.value) == pytest.approx(expected, rel=1e-13)
        params = net.parameters() + net.variational_parameters()
        gradcheck(lambda: elbo_loss(net, (x, y), 10, cfg, d.make_rng(6))[0], params,
                  rtol=1e-4, atol=1e-6)

    def test_empty_minibatch_rejected(self):
        net = small_net()
        with pytest.raises(ContractError):
            elbo_loss(net, (np.zeros((0, 6)), np.zeros(0, dtype=int)), 10,
                      TrainConfig(), d.make_rng(0))

    def test_labels_beyond_the_outputs_rejected(self):
        net = small_net()
        with pytest.raises(DimensionError, match="2 outputs"):
            elbo_loss(net, (np.zeros((2, 6)), np.array([0, 2])), 10,
                      TrainConfig(), d.make_rng(0))

    def test_loss_monotone_in_kl_scale(self):
        net = small_net(seed=2)
        x = np.random.default_rng(2).normal(size=(4, 6))
        y = np.array([0, 1, 1, 0])
        values = []
        for scale in (1.0, 2.0, 4.0, 8.0):
            cfg = TrainConfig(kl_scale=scale, weight_decay=0.0)
            loss, _ = elbo_loss(net, (x, y), 50, cfg, d.make_rng(3))
            values.append(float(loss.value))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_single_sample_gradient_estimator_is_unbiased(self):
        # one gated input unit, one example; the exact expected-loss gradient
        # comes from dense midpoint quadrature over the two uniforms
        rng = d.make_rng(42)
        w = rng.normal(0.0, 1.0, size=(1, 2))
        x = np.array([[1.3]])
        y = np.array([0])
        tau = 0.6
        a_raw0 = 0.8
        b_raw0 = float(d.softplus_inv(1.2))

        def loss_numpy(a_raw, u_pi, u_z):
            a = np.logaddexp(0.0, a_raw)
            b = np.logaddexp(0.0, b_raw0)
            pi = (1.0 - u_pi ** (1.0 / b)) ** (1.0 / a)
            pi = np.clip(pi, 1e-6, 1 - 1e-6)
            z = 1.0 / (1.0 + np.exp(-(np.log(pi / (1 - pi)) + np.log(u_z / (1 - u_z))) / tau))
            logits = np.stack([z * x[0, 0] * w[0, 0], z * x[0, 0] * w[0, 1]], axis=-1)
            m = logits.max(axis=-1, keepdims=True)
            logp = logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
            return -logp[..., y[0]]

        n_grid = 600
        mids = (np.arange(n_grid) + 0.5) / n_grid
        upi, uz = np.meshgrid(mids, mids)
        h = 1e-5
        oracle = (
            loss_numpy(a_raw0 + h, upi, uz).mean()
            - loss_numpy(a_raw0 - h, upi, uz).mean()
        ) / (2 * h)

        # single-sample pathwise gradients via the graph
        net = build_mlp((1, 2), seed=0, gated=True)
        net.gates_enabled = True
        net.layers[0].w.value = w.copy()
        net.layers[0].b.value = np.zeros(2)
        gate = net.gates()[0]
        gate.a_raw.value = np.array([a_raw0])
        gate.b_raw.value = np.array([b_raw0])
        cfg = TrainConfig(weight_decay=0.0, kl_scale=1.0, tau=tau)
        noise = d.make_rng(7)
        grads = []
        for _ in range(10_000):
            ad.zero_gradients([gate.a_raw])
            loss, _ = elbo_loss(net, (x, y), 1, cfg, noise)
            ad.backward(loss)
            grads.append(gate.a_raw.grad[0])
        grads = np.array(grads)
        # the check targets the stochastic likelihood term, so subtract the
        # deterministic KL gradient measured separately
        from betadrop.gates import kl_bb_node

        ad.zero_gradients([gate.a_raw])
        ad.backward(kl_bb_node(gate))
        kl_grad = gate.a_raw.grad[0]
        mean_grad = grads.mean() - kl_grad
        se = grads.std() / np.sqrt(len(grads))
        assert abs(mean_grad - oracle) < 3.0 * se


class TestEvaluateError:
    @pytest.mark.parametrize("mode", [MODE_BB, MODE_DBB])
    def test_empty_dataset_rejected(self, mode):
        net = small_net()
        net.set_gate_mode(mode)
        for g in net.gates():
            g.update_running_stats(np.random.default_rng(0).normal(size=(8, g.k)))
        empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ContractError, match="empty"):
            evaluate_error(net, empty)

    def test_labels_beyond_the_outputs_rejected(self):
        data = Dataset(np.zeros((3, 6)), np.array([0, 1, 2]))
        with pytest.raises(DimensionError, match="2 outputs"):
            evaluate_error(small_net(), data)


class TestMetricsLog:
    def test_logged_flops_are_those_of_the_shrunk_network(self, tmp_path):
        # conv2 loses half its channels: the dense gate's positions on them go too
        net = build_lenet5_caffe(seed=0)
        net.gates()[1].a_raw.value[::2] = float(d.softplus_inv(1e-5))
        x, y = glyph_images(20, seed=0)
        config = TrainConfig(batch_size=20, lr_variational=1e-12, lr_weights=1e-12)
        log = MetricsLog(tmp_path / "log.csv")
        finetune_bb(net, Dataset(x, y), config, epochs=1, log=log)
        flops = float((tmp_path / "log.csv").read_text().splitlines()[1].split(",")[-1])
        assert flops == count_flops(shrink(net, prune_by_threshold(net)))[0] == 1_293_000

    def test_logged_flops_are_nan_when_a_gate_prunes_everything(self, tmp_path):
        net = small_net()
        net.gates()[0].a_raw.value[:] = float(d.softplus_inv(1e-5))
        x = np.random.default_rng(0).normal(size=(8, 6))
        log = MetricsLog(tmp_path / "log.csv")
        finetune_bb(net, Dataset(x, np.zeros(8, dtype=np.int64)), TrainConfig(batch_size=8),
                    epochs=1, log=log)
        assert (tmp_path / "log.csv").read_text().splitlines()[1].endswith(",nan")


class TestPretrain:
    def test_linearly_separable_low_error(self):
        ds = synthetic_planted_sparsity(400, 8, 8, seed=0)  # every feature useful
        net = build_mlp((8, 6, 2), seed=0)
        cfg = TrainConfig(batch_size=40, lr_variational=0.01, seed=0)
        pretrain(net, ds, cfg, epochs=20)  # 200 steps
        assert evaluate_error(net, ds) < 2.0

    def test_fixed_seed_bit_identical_losses(self):
        ds = synthetic_planted_sparsity(200, 6, 3, seed=1)
        runs = []
        for _ in range(2):
            net = build_mlp((6, 5, 2), seed=3)
            cfg = TrainConfig(batch_size=50, lr_variational=0.01, seed=11)
            runs.append(pretrain(net, ds, cfg, epochs=3))
        assert runs[0] == runs[1]

    def test_epochs_use_distinct_permutations(self):
        # with gates off and zero rates the loss depends only on batch order
        ds = synthetic_planted_sparsity(199, 6, 3, seed=2)  # odd: partial batch
        net = build_mlp((6, 5, 2), seed=3)
        cfg = TrainConfig(batch_size=50, lr_variational=1e-12, weight_decay=0.0, seed=0)
        losses = pretrain(net, ds, cfg, epochs=2)
        per_epoch = len(losses) // 2
        assert losses[:per_epoch] != losses[per_epoch:]

    def test_divergence_raises_with_step_index(self):
        # Adam normalizes step sizes, so weights cannot blow up fast enough to
        # overflow in test time; poison one weight to drive the loss non-finite
        ds = synthetic_planted_sparsity(200, 6, 3, seed=1)
        net = build_mlp((6, 5, 2), seed=0)
        net.layers[0].w.value[0, 0] = np.nan
        cfg = TrainConfig(batch_size=50, lr_variational=0.01, seed=0)
        with pytest.raises(TrainingDivergedError, match="step 0") as err:
            pretrain(net, ds, cfg, epochs=1)
        assert err.value.step == 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_parameter_raises_with_step_index(self, monkeypatch):
        # one inf gradient entry makes Adam write a NaN weight; relu maps the
        # NaN pre-activation to 0, so the loss stays finite and only the
        # parameter check can stop the stage
        calls = []

        def adam_step_with_inf(params, grads, state, lr):
            if len(calls) == 3:
                grads[0][0, 0] = np.inf
            calls.append(lr)
            return adam_step(params, grads, state, lr)

        monkeypatch.setattr(training, "adam_step", adam_step_with_inf)
        ds = synthetic_planted_sparsity(200, 6, 3, seed=1)
        net = build_mlp((6, 8, 2), seed=0)
        cfg = TrainConfig(batch_size=50, lr_variational=0.01, weight_decay=0.0, seed=0)
        with pytest.raises(TrainingDivergedError, match="step 3") as err:
            pretrain(net, ds, cfg, epochs=2)
        assert err.value.step == 3 and np.isnan(net.layers[0].w.value[0, 0])


class TestFinetuneBB:
    def test_huge_kl_scale_crushes_gate_means(self):
        ds = synthetic_planted_sparsity(200, 6, 3, seed=2)
        net = build_mlp((6, 5, 2), seed=2)
        cfg = TrainConfig(batch_size=50, lr_variational=0.02, kl_scale=1e6, seed=2)
        pretrain(net, ds, cfg, epochs=5)
        finetune_bb(net, ds, cfg, epochs=125)  # 500 steps
        for g in net.gates():
            assert (g.expected_pi() < 0.5).all()

    def test_zero_kl_scale_keeps_means_near_init(self):
        rng = np.random.default_rng(0)
        ds = synthetic_planted_sparsity(200, 6, 3, seed=3)
        ds.labels = rng.integers(0, 2, size=len(ds)).astype(np.int64)  # random labels
        net = build_mlp((6, 5, 2), seed=3)
        cfg = TrainConfig(batch_size=50, lr_variational=0.005, kl_scale=0.0, seed=3)
        finetune_bb(net, ds, cfg, epochs=25)  # 100 steps, debug-only scale
        for g in net.gates():
            assert np.abs(g.expected_pi() - 0.9).max() < 0.05

    def test_planted_sparsity_recovers_signal_features(self):
        ds = synthetic_planted_sparsity(2000, 20, 4, seed=0)
        sig = np.array(ds.meta["signal_idx"])
        noise = np.setdiff1d(np.arange(20), sig)
        net = build_mlp((20, 32, 2), seed=0)
        cfg = TrainConfig(batch_size=100, lr_variational=0.02, seed=0)
        pretrain(net, ds, cfg, epochs=5)
        finetune_bb(net, ds, cfg, epochs=100)
        e_pi = net.gates()[0].expected_pi()
        assert (e_pi[noise] < 1e-3).all()
        assert (e_pi[sig] > 0.5).all()
        keeps = prune_by_threshold(net)
        assert np.array_equal(keeps[0], sig)


@pytest.fixture(scope="module")
def two_stage_nets():
    """Shared stage-1 + stage-2 pipeline on the two-cluster fixture."""
    ds = synthetic_two_cluster(2000, 20, seed=0)
    train, test = ds.split(0.15, seed=0)
    net = build_mlp((20, 16, 2), seed=0)
    cfg = TrainConfig(batch_size=100, lr_variational=0.02, seed=0)
    pretrain(net, train, cfg, epochs=5)
    finetune_bb(net, train, cfg, epochs=60)
    keeps = prune_by_threshold(net)
    bb_net = shrink(net, keeps)
    bb_net.meta["stage"] = "bb_pruned"
    import copy

    dbb_net = shrink(net, keeps)
    raws_before = [
        (g.a_raw.value.copy(), g.b_raw.value.copy()) for g in dbb_net.gates()
    ]
    finetune_dbb(dbb_net, train, cfg, epochs=40)
    return train, test, bb_net, dbb_net, raws_before


class TestFinetuneDBB:
    def test_keep_probability_posterior_frozen_bitwise(self, two_stage_nets):
        _, _, _, dbb_net, raws_before = two_stage_nets
        for g, (a0, b0) in zip(dbb_net.gates(), raws_before):
            assert np.array_equal(g.a_raw.value, a0)
            assert np.array_equal(g.b_raw.value, b0)

    def test_per_input_kept_never_exceeds_static(self, two_stage_nets):
        _, test, _, dbb_net, _ = two_stage_nets
        stats = runtime_prune_stats(dbb_net, test)
        widths = np.array([g.k for g in dbb_net.gates()])
        assert (stats.kept_per_input <= widths[None, :]).all()
        assert stats.mean_flops <= stats.static_flops

    def test_per_cluster_masks_differ_on_surviving_units(self, two_stage_nets):
        _, test, _, dbb_net, _ = two_stage_nets
        masks = {}
        for cls in (0, 1):
            _, info = forward_eval(
                dbb_net, test.images[test.labels == cls], return_gate_info=True
            )
            masks[cls] = info[0][1].mean(axis=0)
        rel = np.abs(masks[0] - masks[1]) / np.maximum(
            np.maximum(masks[0], masks[1]), 1e-12
        )
        assert (rel > 0.25).mean() > 0.5

    def test_conv_net_trains_in_dbb_mode(self):
        # gate input is the pooled conv output; stats must initialize and the
        # frozen-posterior invariant must hold through real steps
        from betadrop.data import Dataset
        from betadrop.gates import GateState
        from betadrop.layers import ConvLayer, DenseLayer, Network

        rng = d.make_rng(0)
        net = Network(
            [
                ConvLayer(rng.normal(0, 0.5, (4, 1, 3, 3)), np.zeros(4), gate=GateState.create(4)),
                DenseLayer(rng.normal(0, 0.5, (16, 2)), np.zeros(2), gate=GateState.create(16)),
            ],
            meta={"input_shape": [1, 6, 6], "stage": "bb_pruned"},
        )
        ds = Dataset(rng.normal(size=(40, 1, 6, 6)), rng.integers(0, 2, 40).astype(np.int64))
        cfg = TrainConfig(batch_size=20, lr_variational=0.01, seed=0)
        finetune_dbb(net, ds, cfg, epochs=3)
        for g in net.gates():
            assert g.stats_initialized
        assert np.isfinite(forward_eval(net, ds.images[:4])).all()

    def test_changed_posterior_is_invariant_violation(self, monkeypatch):
        ds = synthetic_two_cluster(100, 8, seed=0)
        net = small_net(dims=(8, 6, 2))
        gate = net.gates()[1]

        def adam_step_that_moves_a(params, grads, state, lr):
            adam_step(params, grads, state, lr)
            gate.a_raw.value = gate.a_raw.value + 1e-3

        monkeypatch.setattr(training, "adam_step", adam_step_that_moves_a)
        with pytest.raises(InvariantViolationError, match="at step 0"):
            finetune_dbb(net, ds, TrainConfig(batch_size=50, seed=0), epochs=1)

    def test_singleton_final_batch_does_not_crash(self):
        # 201 % 100 == 1: the one-example remainder would break DBB batch stats
        ds = synthetic_two_cluster(201, 8, seed=3)
        net = small_net(seed=3, dims=(8, 6, 2))
        cfg = TrainConfig(batch_size=100, lr_variational=0.01, seed=0)
        losses = finetune_dbb(net, ds, cfg, epochs=2)
        assert len(losses) == 4 and np.isfinite(losses).all()

    def test_bb_masks_are_cluster_independent(self, two_stage_nets):
        _, test, bb_net, _, _ = two_stage_nets
        out = {}
        for cls in (0, 1):
            _, info = forward_eval(
                bb_net, test.images[test.labels == cls], return_gate_info=True
            )
            out[cls] = info[0][1]
        # the input-independent mask is one row repeated for every example
        assert np.allclose(out[0][0], out[1][0], atol=1e-12)
        assert np.allclose(out[0].std(axis=0), 0.0, atol=1e-12)


class TestLenet5EndToEnd:
    """The conv net through every stage, on seeded procedural glyphs."""

    def test_pretrain_bb_prune_dbb_evaluate(self):
        x, y = glyph_images(260, seed=0)
        train, test = Dataset(x[:200], y[:200]), Dataset(x[200:], y[200:])
        net = build_lenet5_caffe(seed=0)
        cfg = TrainConfig(batch_size=50, lr_variational=0.01, seed=0,
                          per_layer_kl_multipliers=(20.0, 8.0, 1.0, 1.0))
        losses = pretrain(net, train, cfg, epochs=2) + finetune_bb(net, train, cfg, epochs=2)

        # a threshold at the lowest per-gate median E[pi] prunes units in
        # every gate and keeps at least half of each
        threshold = min(np.median(g.expected_pi()) for g in net.gates())
        keeps = prune_by_threshold(net, threshold)
        assert all(0 < len(k) < g.k for k, g in zip(keeps, net.gates()))
        small = shrink(net, keeps)
        ref = forward_eval(net, test.images, keep_sets=keeps)
        assert np.abs(forward_eval(small, test.images) - ref).max() < 1e-9

        small.meta["stage"] = "bb_pruned"
        losses += finetune_dbb(small, train, cfg, epochs=1)
        assert len(losses) == 20 and np.isfinite(losses).all()
        assert 0.0 <= evaluate_error(small, test) <= 100.0
        stats = runtime_prune_stats(small, test)
        assert stats.static_flops == count_flops(small)[0]
        assert (stats.flops_per_input <= stats.static_flops).all()
