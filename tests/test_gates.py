"""GateState behavior: running statistics, expected masks, the dependent
gate rule, and the fused gate ops: gradients of every stochastic path against
finite differences, and values and gradients of each op against complex-step
derivatives of its reference formula in ``helpers``."""

from dataclasses import replace

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import distributions as d
from betadrop.errors import ContractError, DimensionError
from betadrop.analysis import prune_by_threshold, runtime_prune_stats
from betadrop.checkpoint import load_checkpoint, save_checkpoint
from betadrop.data import Dataset
from betadrop.layers import build_mlp, forward_eval, forward_train, shrink
from betadrop.gates import (
    INIT_KAPPA,
    MODE_BB,
    MODE_DBB,
    SIGMA_FLOOR,
    GateState,
    beta_sample_node,
    concrete_mask_node,
    dbb_phi_node,
    kl_beta_gaussian_node,
    kl_bb_node,
    sample_pi_node,
)

from helpers import FUSED_GATES, complex_step_grads, fused_gate_case, gradcheck, sum_all


# each read of a DBB network's q(pi), given the network, its inputs and a checkpoint path
REBOUND_READS = {
    "expected_pi": lambda net, x, path: net.gates()[0].expected_pi(),
    "prune_by_threshold": lambda net, x, path: prune_by_threshold(net),
    "save_checkpoint": lambda net, x, path: save_checkpoint(net, path),
    "shrink": lambda net, x, path: shrink(net, [np.arange(g.k) for g in net.gates()]),
    "forward_eval": lambda net, x, path: forward_eval(net, x),
    "forward_train": lambda net, x, path: forward_train(net, x, d.make_rng(2)),
    "runtime_prune_stats": lambda net, x, path: runtime_prune_stats(
        net, Dataset(x, np.zeros(len(x), dtype=np.int64))),
}


def dbb_create(k, **options):
    """A fresh gate over ``k`` units, entered into DBB."""
    gate = GateState.create(k, **options)
    gate.enter_dbb()
    return gate


def make_gate(k=4, mode=MODE_BB, eps=1e-3, seed=0):
    gate = GateState.create(k, eps=eps)
    rng = d.make_rng(seed)
    # move parameters off their symmetric init so gradients are informative
    gate.a_raw.value = gate.a_raw.value + rng.normal(0, 0.3, k)
    gate.b_raw.value = gate.b_raw.value + rng.normal(0, 0.3, k)
    if mode == MODE_DBB:
        gate.enter_dbb()
        gate.gamma.value = rng.normal(0.5, 0.2, k)
        gate.eta.value = rng.normal(0.4, 0.1, k)
        gate.kappa_raw.value = gate.kappa_raw.value + rng.normal(0, 0.2, k)
    return gate


class TestInitialization:
    def test_initial_expected_pi_is_0_9(self):
        gate = GateState.create(5)
        assert gate.expected_pi() == pytest.approx(np.full(5, 0.9), abs=1e-12)

    def test_initial_gate_params(self):
        gate = dbb_create(3)
        assert np.allclose(gate.gamma.value, 0.0)
        assert np.allclose(gate.eta.value, 1.0)
        assert np.allclose(gate.kappa(), 0.1)

    def test_bad_mode_rejected(self):
        # the mode follows the gate's state: no option sets it, nor does assignment
        with pytest.raises(ContractError, match="gates cannot enter mode 'both'"):
            build_mlp((3, 2)).set_gate_mode("both")
        with pytest.raises(TypeError):
            GateState.create(3, mode=MODE_DBB)
        with pytest.raises(AttributeError):
            GateState.create(3).mode = MODE_DBB

    def test_bb_gate_holds_only_its_posterior(self):
        gate = GateState.create(3)
        assert gate.mode == MODE_BB and gate.trainable_nodes() == [gate.a_raw, gate.b_raw]
        assert all(getattr(gate, name) is None
                   for name in ("gamma", "eta", "kappa_raw", "run_mean", "run_std"))

    def test_entering_dbb_freezes_the_posterior_and_adds_the_gate(self):
        gate = make_gate(3, seed=1)
        a, b = gate.a_raw.value, gate.b_raw.value
        gate.enter_dbb()
        assert gate.mode == MODE_DBB and gate.run_mean is None
        assert not gate.a_raw.needs_grad and not gate.b_raw.needs_grad
        assert np.array_equal(gate.a_raw.value, a) and np.array_equal(gate.b_raw.value, b)
        assert gate.trainable_nodes() == [gate.gamma, gate.eta, gate.kappa_raw]
        assert np.array_equal(gate.kappa_raw.value, np.full(3, d.softplus_inv(INIT_KAPPA)))
        nodes = gate.trainable_nodes()
        gate.enter_dbb()  # a DBB gate stays as it is
        assert gate.trainable_nodes() == nodes

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1.5, float("nan")])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(ContractError, match="momentum"):
            GateState.create(3, momentum=momentum)

    @pytest.mark.parametrize("alpha_over_k", [0.0, -1.0, float("nan"), float("inf")])
    def test_alpha_over_k_not_finite_and_positive_rejected(self, alpha_over_k):
        # these failed only at the first KL, or gave a NaN one
        with pytest.raises(ContractError, match="alpha_over_k"):
            GateState.create(3, alpha_over_k=alpha_over_k)

    @pytest.mark.parametrize("name", ["a_raw", "b_raw"])
    def test_shape_that_softplus_sends_to_zero_rejected(self, name):
        # softplus(-800) is 0.0, which kumaraswamy_mean refused only on the first eval
        gate = GateState.create(3)
        with pytest.raises(ContractError, match="positive Kumaraswamy shapes"):
            replace(gate, **{name: ad.parameter(np.array([0.0, -800.0, 0.0]))})


class TestRunningStats:
    def test_first_batch_initializes_directly(self):
        gate = dbb_create(3)
        batch = np.full((8, 3), 2.5)
        gate.update_running_stats(batch)
        assert np.allclose(gate.run_mean, 2.5)
        assert np.allclose(gate.run_std, SIGMA_FLOOR)

    def test_ema_converges_geometrically(self):
        gate = dbb_create(2)
        gate.update_running_stats(np.zeros((4, 2)))  # init at mean 0
        target = np.full(2, 1.0)
        batch = np.concatenate([np.full((2, 2), 0.5), np.full((2, 2), 1.5)])
        mu0_err = abs(gate.run_mean[0] - 1.0)
        for t in range(1, 6):
            gate.update_running_stats(batch)
            assert abs(gate.run_mean[0] - 1.0) == pytest.approx(
                0.9**t * mu0_err, rel=1e-9
            )

    def test_small_batch_rejected(self):
        gate = dbb_create(2)
        with pytest.raises(ContractError):
            gate.update_running_stats(np.ones((1, 2)))

    def test_wrong_width_rejected(self):
        gate = dbb_create(2)
        with pytest.raises(DimensionError):
            gate.update_running_stats(np.ones((4, 3)))

    def test_bb_gate_keeps_no_statistics(self):
        gate = GateState.create(2)
        with pytest.raises(ContractError, match="BB gate keeps no input statistics"):
            gate.update_running_stats(np.ones((4, 2)))
        assert gate.run_mean is None

    def test_evaluation_never_mutates(self):
        gate = make_gate(3, mode=MODE_DBB)
        gate.update_running_stats(np.random.default_rng(0).normal(size=(16, 3)))
        mean, std = gate.run_mean.copy(), gate.run_std.copy()
        gate.expected_mask(np.random.default_rng(1).normal(size=(5, 3)))
        assert np.array_equal(gate.run_mean, mean)
        assert np.array_equal(gate.run_std, std)


def dbb_gate(a: float, eps: float, gamma: float, eta: float, mean: float) -> GateState:
    """One-unit DBB gate with b = 1, so E_q[pi] = a / (a + 1), and unit running std."""
    gate = GateState.create(1, eps=eps)
    gate.a_raw.value = np.array([float(d.softplus_inv(a))])
    gate.b_raw.value = np.array([float(d.softplus_inv(1.0))])
    gate.enter_dbb()  # after the raws: entering DBB freezes q(pi)
    gate.gamma.value = np.array([gamma])
    gate.eta.value = np.array([eta])
    gate.run_mean = np.array([mean])
    gate.run_std = np.array([1.0])
    return gate


class TestDependentGateProbability:
    """phi = E_q[pi] * clamp(gamma * (x - mu) / sigma + eta, eps, 1 - eps)."""

    def test_standardized_zero_hits_clamp_floor(self):
        gate = dbb_gate(a=1.0, eps=1e-3, gamma=1.0, eta=0.0, mean=3.0)  # E_q[pi] = 0.5
        assert gate.expected_mask(np.array([3.0])) == pytest.approx(0.0005)

    def test_saturating_shift_hits_ceiling(self):
        gate = dbb_gate(a=4.0, eps=1e-3, gamma=0.0, eta=2.0, mean=0.0)  # E_q[pi] = 0.8
        assert gate.expected_mask(np.array([0.0])) == pytest.approx(0.7992)

    def test_interior_arithmetic(self):
        gate = dbb_gate(a=4.0, eps=1e-2, gamma=2.0, eta=0.1, mean=0.0)
        assert gate.expected_mask(np.array([0.3])) == pytest.approx(0.56)

    def test_defaults_to_eta(self):
        # at the running mean the gate factor is the posterior mean shift eta
        gate = dbb_gate(a=4.0, eps=1e-3, gamma=0.7, eta=0.5, mean=0.0)
        assert gate.expected_mask(np.array([0.0])) == pytest.approx(0.4)


class TestExpectedMask:
    def test_bb_uniform(self):
        gate = GateState.create(4)
        gate.a_raw.value = np.full(4, float(d.softplus_inv(1.0)))
        gate.b_raw.value = np.full(4, float(d.softplus_inv(1.0)))
        assert gate.expected_mask() == pytest.approx(np.full(4, 0.5))

    def test_dbb_requires_input(self):
        gate = make_gate(3, mode=MODE_DBB)
        with pytest.raises(ContractError):
            gate.expected_mask()

    def test_dbb_requires_stats(self):
        gate = make_gate(3, mode=MODE_DBB)
        with pytest.raises(ContractError):
            gate.expected_mask(np.zeros(3))

    def test_dbb_saturating_eta_gives_ceiling(self):
        gate = dbb_create(2, eps=1e-3)
        gate.eta.value = np.array([5.0, 5.0])
        gate.update_running_stats(np.random.default_rng(0).normal(size=(10, 2)))
        mask = gate.expected_mask(np.zeros(2))
        assert mask == pytest.approx((1.0 - 1e-3) * gate.expected_pi())

    def test_bb_mask_matches_thresholded_concrete_samples(self):
        # tau -> 0 concrete draws thresholded at 1/2 are Bernoulli(pi)
        gate = make_gate(3, seed=5)
        rng = d.make_rng(11)
        n = 100_000
        u_pi = d.open_unit_uniform(rng, (n, 3))
        pis = d.kumaraswamy_sample(u_pi, gate.a()[None, :], gate.b()[None, :])
        u_z = d.open_unit_uniform(rng, (n, 3))
        z = d.concrete_bernoulli_sample(pis, 1e-3, u_z)
        mc = (z > 0.5).mean(axis=0)
        assert np.abs(mc - gate.expected_mask()).max() < 0.01

    def test_dbb_dominance_everywhere(self):
        # the input-dependent mask never exceeds (1 - eps) * BB mask
        gate = make_gate(6, mode=MODE_DBB, seed=3)
        rng = d.make_rng(0)
        gate.update_running_stats(rng.normal(size=(32, 6)))
        bb = gate.expected_pi()
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 5.0), size=(8, 6))
            dbb = gate.expected_mask(x)
            assert (dbb <= (1.0 - gate.eps) * bb[None, :] + 1e-15).all()


class TestFrozenPosterior:
    """A DBB gate stores E[pi] and the KL of its frozen q(pi) when it enters
    DBB or is built from arrays; evaluation and training read them."""

    @staticmethod
    def closed_forms(gate):
        a, b = d.softplus(gate.a_raw.value), d.softplus(gate.b_raw.value)
        kl = d.kl_kumaraswamy_beta(a, b, gate.alpha_over_k, d.digamma(b)).sum()
        return d.kumaraswamy_mean(a, b), kl

    def test_stored_values_equal_the_closed_forms(self, tmp_path):
        net = build_mlp((5, 4, 2), seed=3, alpha_over_k=0.3)
        for g in net.gates():
            assert g.frozen is None  # a BB gate's raws train
            g.a_raw.value = g.a_raw.value + np.linspace(-0.5, 0.5, g.k)
        net.set_gate_mode(MODE_DBB)
        forward_train(net, np.random.default_rng(0).normal(size=(6, 5)), d.make_rng(1))
        save_checkpoint(net, tmp_path / "dbb.ckpt")
        for how, gate in [("enter_dbb", net.gates()[0]), ("subset", net.gates()[0].subset([3, 1])),
                          ("load", load_checkpoint(tmp_path / "dbb.ckpt").gates()[1])]:
            e_pi, kl = self.closed_forms(gate)
            assert np.array_equal(gate.frozen[0], e_pi) and gate.frozen[1] == kl, how

    def test_evaluation_and_training_read_the_stored_values(self, monkeypatch):
        gate = make_gate(4, mode=MODE_DBB)
        gate.update_running_stats(np.random.default_rng(0).normal(size=(8, 4)))
        e_pi, kl = self.closed_forms(gate)
        x = np.random.default_rng(1).normal(size=(3, 4))
        want = e_pi * gate.gate_factor((x - gate.run_mean) / gate.run_std, gate.eta.value)

        def recomputed(*args):
            raise AssertionError("a frozen value was computed again")

        import betadrop.gates as gates_mod
        for name in ("kumaraswamy_mean", "digamma", "kl_kumaraswamy_beta"):
            monkeypatch.setattr(gates_mod, name, recomputed)
        assert np.array_equal(gate.expected_mask(x), want)
        node = kl_bb_node(gate)
        assert not node.needs_grad and node.value == kl


    @pytest.mark.parametrize("raw", ["a_raw", "b_raw"])
    def test_a_rebound_raw_is_refused(self, raw):
        # the stored values describe the raws that entered DBB: those cannot
        # change in place, and reading a stored value after a rebind raises
        gate = make_gate(4, mode=MODE_DBB)
        gate.update_running_stats(np.random.default_rng(0).normal(size=(8, 4)))
        node = getattr(gate, raw)
        with pytest.raises(ValueError, match="read-only"):
            node.value[0] += 1.0
        node.value = node.value + 1.0
        with pytest.raises(ContractError, match="rebound"):
            gate.expected_mask(np.zeros(4))
        with pytest.raises(ContractError, match="rebound"):
            kl_bb_node(gate)

    @pytest.mark.parametrize("read", sorted(REBOUND_READS))
    @pytest.mark.parametrize("raw", ["a_raw", "b_raw"])
    def test_every_read_refuses_a_rebound_raw(self, tmp_path, raw, read):
        # a rebound raw must not pass for the frozen posterior: pruning,
        # shrinking and saving would store it, so each read raises
        net = build_mlp((6, 5, 2), seed=0)
        net.set_gate_mode(MODE_DBB)
        x = np.random.default_rng(0).normal(size=(8, 6))
        forward_train(net, x, d.make_rng(1))
        node = getattr(net.gates()[0], raw)
        node.value = node.value + 0.5
        path = tmp_path / "dbb.ckpt"
        with pytest.raises(ContractError, match="rebound"):
            REBOUND_READS[read](net, x, path)
        assert not path.exists()

    def test_stored_expected_pi_is_read_only(self):
        gate = make_gate(4, mode=MODE_DBB)
        e_pi = gate.expected_pi()
        assert e_pi is gate.expected_pi()
        with pytest.raises(ValueError, match="read-only"):
            e_pi[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            e_pi *= 0.5


class TestSubset:
    def test_subset_slices_all_fields(self):
        gate = make_gate(5, mode=MODE_DBB)
        gate.update_running_stats(np.random.default_rng(0).normal(size=(10, 5)))
        keep = np.array([0, 3, 4])
        sub = gate.subset(keep)
        assert sub.k == 3
        for name in ("a_raw", "b_raw", "gamma", "eta", "kappa_raw"):
            node, cut = getattr(gate, name), getattr(sub, name)
            assert np.array_equal(cut.value, node.value[keep]), name
            assert cut.needs_grad == node.needs_grad, name  # the raws stay constants
        assert np.array_equal(sub.run_std, gate.run_std[keep])
        assert np.array_equal(sub.run_mean, gate.run_mean[keep])

    def test_subset_of_a_bb_gate_stays_bb(self):
        sub = make_gate(5).subset(np.array([0, 2]))
        assert sub.mode == MODE_BB and sub.a_raw.needs_grad and sub.b_raw.needs_grad
        assert sub.gamma is None and sub.run_mean is None

    def test_subset_keeps_scalar_fields(self):
        gate = dbb_create(5, alpha_over_k=0.5, eps=0.2, momentum=0.1)
        gate.update_running_stats(np.random.default_rng(1).normal(size=(10, 5)))
        sub = gate.subset(np.array([1, 3]))
        for name in ("alpha_over_k", "eps", "mode", "momentum"):
            assert getattr(sub, name) == getattr(gate, name), name

    def test_subset_is_independent_copy(self):
        gate = make_gate(4)
        sub = gate.subset(np.array([1, 2]))
        sub.a_raw.value[0] = 99.0
        assert gate.a_raw.value[1] != 99.0


class TestGraphPieces:
    def test_sample_pi_matches_numpy_path(self):
        gate = make_gate(4, seed=2)
        seed = 77
        node = sample_pi_node(gate, d.make_rng(seed))
        u = d.open_unit_uniform(d.make_rng(seed), 4)
        expected = d.kumaraswamy_sample(u, gate.a(), gate.b())
        assert np.allclose(node.value, expected, atol=1e-14)

    def test_sample_pi_gradients(self):
        gate = make_gate(4, seed=2)
        coeffs = ad.constant(np.random.default_rng(1).normal(size=4))

        def loss():
            pi = sample_pi_node(gate, d.make_rng(9))
            return sum_all(ad.mul(pi, coeffs))

        gradcheck(loss, [gate.a_raw, gate.b_raw])

    def test_concrete_mask_gradients(self):
        gate = make_gate(3, seed=4)
        u = d.open_unit_uniform(d.make_rng(3), (5, 3))
        coeffs = ad.constant(np.random.default_rng(2).normal(size=(5, 3)))

        def loss():
            pi = sample_pi_node(gate, d.make_rng(8))
            mask = concrete_mask_node(pi, u, tau=0.7)
            return sum_all(ad.mul(mask, coeffs))

        gradcheck(loss, [gate.a_raw, gate.b_raw])

    def test_dbb_phi_gradients_all_parameters(self):
        gate = make_gate(3, mode=MODE_DBB, seed=6)
        # pi drawn from trainable copies of the raws, as no program path has
        # them in DBB (a DBB gate makes its raws read-only), so the gradient
        # through phi into q(pi) is checked too
        bb = GateState(ad.parameter(gate.a_raw.value.copy()), ad.parameter(gate.b_raw.value.copy()))
        rng_x = np.random.default_rng(5)
        xval = rng_x.normal(size=(6, 3))
        x = ad.parameter(xval)
        coeffs = ad.constant(rng_x.normal(size=(6, 3)))

        def loss():
            pi = sample_pi_node(bb, d.make_rng(21))
            beta = beta_sample_node(gate, d.make_rng(22))
            phi = dbb_phi_node(gate, x, pi, beta)
            return sum_all(ad.mul(phi, coeffs))

        # gradient flows into the gate input through the batch statistics too
        gradcheck(
            loss,
            [bb.a_raw, bb.b_raw, gate.gamma, gate.eta, gate.kappa_raw, x],
        )

    def test_kl_nodes_match_numpy_and_fd(self):
        gate = make_gate(5, seed=7)
        kl = kl_bb_node(gate)
        expected = d.kl_kumaraswamy_beta(gate.a(), gate.b(), gate.alpha_over_k).sum()
        assert float(kl.value) == pytest.approx(float(expected), rel=1e-12)
        gradcheck(lambda: kl_bb_node(gate), [gate.a_raw, gate.b_raw])

        gate = make_gate(5, mode=MODE_DBB, seed=7)
        rho = np.sqrt(5.0)
        klb = kl_beta_gaussian_node(gate, rho)
        expected_b = d.gaussian_kl(gate.eta.value, gate.kappa() ** 2, rho)
        assert float(klb.value) == pytest.approx(expected_b, rel=1e-12)
        gradcheck(lambda: kl_beta_gaussian_node(gate, rho), [gate.eta, gate.kappa_raw])

    def test_frozen_posterior_builds_constants(self):
        # a DBB gate's raws are constants, so its q(pi) sample and KL are too
        gate = make_gate(3, mode=MODE_DBB, seed=2)
        for node in (sample_pi_node(gate, d.make_rng(4)), kl_bb_node(gate)):
            assert not node.needs_grad and node._parents == ()
        bb = make_gate(3, seed=2)
        assert np.array_equal(sample_pi_node(gate, d.make_rng(4)).value,
                              sample_pi_node(bb, d.make_rng(4)).value)
        assert kl_bb_node(gate).value == kl_bb_node(bb).value

    def test_dbb_training_needs_two_examples(self):
        gate = make_gate(3, mode=MODE_DBB)
        x = ad.constant(np.zeros((1, 3)))
        pi = sample_pi_node(gate, d.make_rng(0))
        beta = beta_sample_node(gate, d.make_rng(1))
        with pytest.raises(ContractError):
            dbb_phi_node(gate, x, pi, beta)


class TestFusedGates:
    @pytest.mark.parametrize("name", FUSED_GATES)
    def test_value_and_gradients_match_complex_step(self, name):
        rng = np.random.default_rng(FUSED_GATES.index(name))
        build, ref, leaves = fused_gate_case(name, rng, boundary=True)
        node = build()
        coeffs = rng.normal(size=node.shape)
        ad.zero_gradients(leaves)
        ad.backward(sum_all(ad.mul(node, ad.constant(coeffs))))
        values = [leaf.value for leaf in leaves]
        if name == "dbb_phi":  # gate factors clamped at both bounds are present
            factor = node.value / values[1]
            assert np.isclose(factor, 1e-3, rtol=1e-12).any()
            assert np.isclose(factor, 1.0 - 1e-3, rtol=1e-12).any()
        assert np.allclose(node.value, ref(*values), rtol=1e-12, atol=0)
        oracle = complex_step_grads(lambda *z: np.sum(coeffs * ref(*z)), values)
        for leaf, want in zip(leaves, oracle):
            assert np.abs(leaf.grad - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", FUSED_GATES)
    def test_each_gate_quantity_is_one_node(self, name):
        build, _, leaves = fused_gate_case(name, np.random.default_rng(0))
        parents = build()._parents
        assert parents and all(p in leaves or not p._parents for p in parents)

    def test_concrete_mask_at_even_odds_is_one_half(self):
        # sigmoid(0): keep probability 1/2 and noise 1/2 give logit 0
        mask = concrete_mask_node(ad.constant([0.5]), np.array([[0.5]]), tau=0.3)
        assert mask.value == pytest.approx(0.5, abs=1e-15)

    @staticmethod
    def _phi_with_beta(gate, beta):
        x = ad.parameter(np.random.default_rng(3).normal(size=(5, gate.k)))
        pi = ad.parameter(np.full(gate.k, 0.8))
        beta = ad.parameter(np.full(gate.k, beta))
        phi = dbb_phi_node(gate, x, pi, beta)
        ad.backward(sum_all(phi))
        return phi, x, beta

    def test_dbb_phi_clamp_saturation_value_and_gradient(self):
        gate = make_gate(3, mode=MODE_DBB)
        phi, x, beta = self._phi_with_beta(gate, 50.0)
        assert np.array_equal(phi.value, np.full((5, 3), (1.0 - gate.eps) * 0.8))
        for leaf in (x, beta, gate.gamma):
            assert not leaf.grad.any()

    def test_dbb_phi_gradient_at_exact_clamp_boundary_is_zero(self):
        gate = make_gate(3, mode=MODE_DBB)
        gate.gamma.value = np.zeros(3)  # the gate factor is beta itself
        phi, _, beta = self._phi_with_beta(gate, 1.0 - gate.eps)
        assert np.array_equal(phi.value, np.full((5, 3), (1.0 - gate.eps) * 0.8))
        assert not beta.grad.any()
