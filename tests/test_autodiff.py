"""Forward/backward tests for the tensor-autodiff core.

Every differentiable op is checked against central finite differences;
matmul and conv2d forwards, the batched conv2d gradients and 2x2 max pooling
are additionally checked against naive nested-loop oracles.
"""

import itertools

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop.errors import ContractError, DimensionError

from helpers import (
    assert_grads_close,
    conv2d_grad_oracle,
    conv2d_oracle,
    gradcheck,
    matmul_oracle,
    maxpool2x2_oracle,
    numeric_grad,
)

BATCHED_CONV_CASES = [
    (k, stride, padding) for k in (3, 5) for stride, padding in ((1, 0), (2, 0), (1, 1), (2, 1))
]

RNG = np.random.default_rng(12345)


class TestMatmul:
    def test_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).value, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_arithmetic(self):
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert out.value.shape == (1, 1) and out.value[0, 0] == pytest.approx(11.0)

    def test_against_nested_loop_oracle(self):
        a = RNG.normal(size=(5, 4))
        b = RNG.normal(size=(4, 3))
        out = ad.matmul(ad.constant(a), ad.constant(b))
        assert np.array_equal(out.value, matmul_oracle(a, b)) or np.allclose(
            out.value, matmul_oracle(a, b), rtol=0, atol=1e-12
        )

    def test_gradients_match_finite_differences(self):
        a = ad.parameter(RNG.normal(size=(5, 4)))
        b = ad.parameter(RNG.normal(size=(4, 3)))
        coeffs = RNG.normal(size=(5, 3))  # project to scalar

        def loss():
            return ad.sum_all(ad.mul(ad.matmul(a, b), ad.constant(coeffs)))

        gradcheck(loss, [a, b], rtol=1e-6, atol=1e-9)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).value == pytest.approx(0.5)

    def test_clamp_saturation_value_and_gradient(self):
        x = ad.parameter(2.0)
        out = ad.clamp(x, 0.001, 0.999)
        assert out.value == pytest.approx(0.999)
        ad.backward(out)
        assert x.grad == 0.0

    def test_clamp_gradient_at_exact_boundary_is_zero(self):
        x = ad.parameter(0.999)
        ad.backward(ad.clamp(x, 0.001, 0.999))
        assert x.grad == 0.0

    def test_relu_gradients_away_from_kink(self):
        vals = np.array([-2.0, -0.5, 0.3, 1.7, 4.0])
        x = ad.parameter(vals)
        coeffs = RNG.normal(size=5)

        def loss():
            return ad.sum_all(ad.mul(ad.relu(x), ad.constant(coeffs)))

        gradcheck(loss, [x], rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize(
        "op",
        [ad.log, ad.exp, ad.sqrt, ad.sigmoid, ad.softplus, ad.digamma],
        ids=lambda f: f.__name__,
    )
    def test_unary_gradients(self, op):
        x = ad.parameter(RNG.uniform(0.2, 3.0, size=7))
        gradcheck(lambda: ad.sum_all(op(x)), [x], rtol=1e-5, atol=1e-8)

    def test_binary_gradients(self):
        a = ad.parameter(RNG.uniform(0.5, 2.0, size=6))
        b = ad.parameter(RNG.uniform(0.5, 2.0, size=6))
        for op in (ad.add, ad.sub, ad.mul, ad.div, ad.power):
            gradcheck(lambda: ad.sum_all(op(a, b)), [a, b], rtol=1e-5, atol=1e-8)

    def test_scalar_broadcast(self):
        s = ad.parameter(2.0)
        v = ad.parameter(np.array([1.0, 2.0, 3.0]))
        out = ad.mul(s, v)
        assert np.array_equal(out.value, [2.0, 4.0, 6.0])
        gradcheck(lambda: ad.sum_all(ad.mul(s, v)), [s, v], rtol=1e-6)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))

    def test_rowwise_ops(self):
        x = ad.parameter(RNG.normal(size=(4, 3)))
        v = ad.parameter(RNG.normal(size=3))
        gradcheck(lambda: ad.sum_all(ad.add_rowwise(x, v)), [x, v], rtol=1e-6)
        gradcheck(lambda: ad.sum_all(ad.mul_rowwise(x, v)), [x, v], rtol=1e-6)
        coeffs = ad.constant(RNG.normal(size=(4, 3)))
        gradcheck(
            lambda: ad.sum_all(ad.mul(ad.mul_rowwise(x, v), coeffs)), [x, v], rtol=1e-5
        )

    def test_channel_ops(self):
        x = ad.parameter(RNG.normal(size=(2, 3, 4, 4)))
        s = ad.parameter(RNG.uniform(0.5, 1.5, size=(2, 3)))
        b = ad.parameter(RNG.normal(size=3))
        gradcheck(lambda: ad.sum_all(ad.scale_channels(x, s)), [x, s], rtol=1e-5)
        gradcheck(lambda: ad.sum_all(ad.add_channel_bias(x, b)), [x, b], rtol=1e-6)

    def test_gather_cols(self):
        x = ad.parameter(RNG.normal(size=(3, 6)))
        idx = np.array([5, 0, 2])
        out = ad.gather_cols(x, idx)
        assert np.array_equal(out.value, x.value[:, idx])
        coeffs = ad.constant(RNG.normal(size=(3, 3)))
        gradcheck(lambda: ad.sum_all(ad.mul(ad.gather_cols(x, idx), coeffs)), [x])

    def test_mean_axis0(self):
        x = ad.parameter(RNG.normal(size=(5, 3)))
        coeffs = ad.constant(RNG.normal(size=3))
        gradcheck(lambda: ad.sum_all(ad.mul(ad.mean_axis0(x), coeffs)), [x], rtol=1e-6)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = RNG.normal(size=(1, 3, 3))
        k = np.ones((1, 1, 1, 1))
        out = ad.conv2d(ad.constant(x), ad.constant(k))
        assert np.array_equal(out.value, x)

    def test_all_ones_window_sum(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 2, 2))
        out = ad.conv2d(ad.constant(x), ad.constant(k))
        assert np.array_equal(out.value, np.full((1, 2, 2), 4.0))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1), (2, 1)])
    def test_against_nested_loop_oracle(self, stride, padding):
        x = RNG.normal(size=(2, 8, 8))
        w = RNG.normal(size=(3, 2, 3, 3))
        out = ad.conv2d(ad.constant(x), ad.constant(w), stride=stride, padding=padding)
        assert np.allclose(out.value, conv2d_oracle(x, w, stride, padding), atol=1e-12)

    def test_batched_matches_single(self):
        xs = RNG.normal(size=(3, 2, 6, 6))
        w = RNG.normal(size=(4, 2, 3, 3))
        batched = ad.conv2d(ad.constant(xs), ad.constant(w)).value
        for i in range(3):
            single = ad.conv2d(ad.constant(xs[i]), ad.constant(w)).value
            assert np.array_equal(batched[i], single)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_gradients_match_finite_differences(self, stride, padding):
        x = ad.parameter(RNG.normal(size=(2, 8, 8)))
        w = ad.parameter(RNG.normal(size=(3, 2, 3, 3)))
        coeffs = None

        def loss():
            out = ad.conv2d(x, w, stride=stride, padding=padding)
            nonlocal coeffs
            if coeffs is None:
                coeffs = ad.constant(RNG.normal(size=out.value.shape))
            return ad.sum_all(ad.mul(out, coeffs))

        gradcheck(loss, [x, w], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("k,stride,padding", BATCHED_CONV_CASES)
    def test_batched_gradients_match_finite_differences(self, k, stride, padding):
        # 8x7 input: non-square, and stride 2 leaves trailing rows/columns unread
        x = ad.parameter(RNG.normal(size=(3, 2, 8, 7)))
        w = ad.parameter(RNG.normal(size=(3, 2, k, k)))
        coeffs = None

        def loss():
            out = ad.conv2d(x, w, stride=stride, padding=padding)
            nonlocal coeffs
            if coeffs is None:
                coeffs = ad.constant(RNG.normal(size=out.value.shape))
            return ad.sum_all(ad.mul(out, coeffs))

        gradcheck(loss, [x, w], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("k,stride,padding", BATCHED_CONV_CASES)
    def test_batched_gradients_match_loop_oracle(self, k, stride, padding):
        xv = RNG.normal(size=(3, 2, 8, 7))
        wv = RNG.normal(size=(3, 2, k, k))
        x, w = ad.parameter(xv), ad.parameter(wv)
        out = ad.conv2d(x, w, stride=stride, padding=padding)
        g = RNG.normal(size=out.value.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        dx, dw = conv2d_grad_oracle(xv, wv, g, stride, padding)
        assert np.allclose(x.grad, dx, rtol=1e-12, atol=1e-12)
        assert np.allclose(w.grad, dw, rtol=1e-12, atol=1e-12)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError, match="larger"):
            ad.conv2d(ad.constant(np.ones((1, 3, 3))), ad.constant(np.ones((1, 1, 5, 5))))


class TestPooling:
    def test_maxpool_basic(self):
        out = ad.maxpool2x2(ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert np.array_equal(out.value, [[4.0]])

    def test_maxpool_odd_extent_rejected(self):
        with pytest.raises(DimensionError, match="even"):
            ad.maxpool2x2(ad.constant(np.ones((3, 4))))

    def test_maxpool_gradient_routes_to_argmax(self):
        x = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        ad.backward(ad.sum_all(ad.maxpool2x2(x)))
        assert np.array_equal(x.grad, [[0.0, 0.0], [0.0, 1.0]])

    def test_maxpool_tie_break_first_row_major(self):
        x = ad.parameter(np.full((2, 2), 7.0))
        ad.backward(ad.sum_all(ad.maxpool2x2(x)))
        assert np.array_equal(x.grad, [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_gradients_match_fd_when_argmax_unique(self):
        x = ad.parameter(RNG.normal(size=(2, 4, 4)))
        coeffs = ad.constant(RNG.normal(size=(2, 2, 2)))
        gradcheck(
            lambda: ad.sum_all(ad.mul(ad.maxpool2x2(x), coeffs)), [x], rtol=1e-5
        )

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_maxpool_4d_unique_max_at_each_position(self, i, j):
        xv = RNG.uniform(-1.0, 1.0, size=(2, 3, 4, 6))
        xv[..., i::2, j::2] += 3.0
        g = RNG.normal(size=(2, 3, 2, 3))
        x = ad.parameter(xv)
        out = ad.maxpool2x2(x)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.array_equal(out.value, ref_out)
        assert np.array_equal(x.grad, ref_dx)
        assert np.array_equal(x.grad[..., i::2, j::2], g)

    def test_maxpool_4d_every_tie_pattern_routes_to_first_row_major(self):
        # window n holds tie pattern n % 15: the positions tied at the window
        # maximum are the set bits of a nonempty subset of the four positions
        patterns = [p for p in itertools.product((False, True), repeat=4) if any(p)]
        xv = np.empty((3, 2, 6, 10))
        g = RNG.normal(size=(3, 2, 3, 5))
        expected_dx = np.zeros_like(xv)
        for n, (b, c, r, s) in enumerate(np.ndindex(*g.shape)):
            tied = np.array(patterns[n % len(patterns)])
            top = RNG.normal()
            window = np.where(tied, top, top - RNG.uniform(0.1, 1.0, size=4))
            xv[b, c, 2 * r : 2 * r + 2, 2 * s : 2 * s + 2] = window.reshape(2, 2)
            pos = int(np.argmax(tied))
            expected_dx[b, c, 2 * r + pos // 2, 2 * s + pos % 2] = g[b, c, r, s]
        x = ad.parameter(xv)
        out = ad.maxpool2x2(x)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.array_equal(out.value, ref_out)
        assert np.array_equal(x.grad, ref_dx)
        assert np.array_equal(x.grad, expected_dx)

    def test_maxpool_4d_nan_wins_its_window(self):
        xv = RNG.normal(size=(2, 3, 4, 6))
        xv[RNG.random(xv.shape) < 0.3] = np.nan
        g = RNG.normal(size=(2, 3, 2, 3))
        x = ad.parameter(xv)
        out = ad.maxpool2x2(x)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.isnan(out.value).any() and not np.isnan(out.value).all()
        assert np.array_equal(out.value, ref_out, equal_nan=True)
        assert np.array_equal(x.grad, ref_dx)

    def test_global_avg_pool_constant_channel(self):
        x = np.full((3, 4, 4), 0.0)
        x[1] = 2.5
        out = ad.global_avg_pool(ad.constant(x))
        assert np.array_equal(out.value, [0.0, 2.5, 0.0])

    def test_global_avg_pool_gradient(self):
        x = ad.parameter(RNG.normal(size=(2, 3, 4, 4)))
        coeffs = ad.constant(RNG.normal(size=(2, 3)))
        gradcheck(
            lambda: ad.sum_all(ad.mul(ad.global_avg_pool(x), coeffs)), [x], rtol=1e-6
        )


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = ad.constant(np.zeros((2, 10)))
        loss = ad.softmax_cross_entropy(logits, [3, 7])
        assert loss.value == pytest.approx(np.log(10.0), rel=1e-12)

    def test_confident_correct(self):
        loss = ad.softmax_cross_entropy(ad.constant([[10.0, -10.0]]), [0])
        assert float(loss.value) == pytest.approx(np.log1p(np.exp(-20.0)), rel=1e-9)
        assert float(loss.value) == pytest.approx(2.061e-9, rel=1e-3)

    def test_out_of_range_label(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), [0, 3])

    def test_gradients_match_finite_differences(self):
        logits = ad.parameter(RNG.normal(size=(3, 5)))
        labels = np.array([0, 2, 4])
        gradcheck(
            lambda: ad.softmax_cross_entropy(logits, labels), [logits], rtol=1e-6, atol=1e-10
        )

    def test_backward_is_softmax_minus_onehot_over_batch(self):
        vals = RNG.normal(size=(4, 3))
        logits = ad.parameter(vals)
        labels = np.array([1, 0, 2, 1])
        ad.backward(ad.softmax_cross_entropy(logits, labels))
        z = vals - vals.max(axis=1, keepdims=True)
        sm = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        sm[np.arange(4), labels] -= 1.0
        assert np.allclose(logits.grad, sm / 4.0, atol=1e-12)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        w = ad.parameter(RNG.normal(size=(3, 4)))
        ad.backward(ad.sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_square_gradient_2w(self):
        vals = RNG.normal(size=6)
        w = ad.parameter(vals)
        ad.backward(ad.sum_all(ad.mul(w, w)))
        assert np.allclose(w.grad, 2.0 * vals, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(ad.constant(np.ones(3)))

    def test_repeated_backward_accumulates(self):
        w = ad.parameter(np.array([2.0, -1.0]))
        loss = ad.sum_all(ad.mul(w, w))
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.allclose(w.grad, 2.0 * first)

    def test_diamond_graph(self):
        x = ad.parameter(3.0)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        ad.backward(y)
        assert float(x.grad) == pytest.approx(7.0)

    def test_determinism_bit_identical(self):
        a = RNG.normal(size=(6, 6))
        b = RNG.normal(size=(6, 6))
        r1 = ad.matmul(ad.constant(a), ad.constant(b)).value
        r2 = ad.matmul(ad.constant(a), ad.constant(b)).value
        assert np.array_equal(r1, r2)


class TestFiniteOutputsProperty:
    """Random finite in-domain inputs must give finite outputs."""

    def test_elementwise_suite_finite(self):
        for _ in range(100):
            x = RNG.normal(size=5) * RNG.uniform(0.1, 10)
            for op in (ad.relu, ad.sigmoid, ad.softplus, ad.exp):
                if op is ad.exp:
                    x = np.clip(x, -50, 50)
                out = op(ad.constant(x))
                assert np.isfinite(out.value).all(), op.__name__
            pos = np.abs(x) + 0.1
            for op in (ad.log, ad.sqrt, ad.digamma):
                assert np.isfinite(op(ad.constant(pos)).value).all(), op.__name__

    def test_many_random_gradchecks_small_ops(self):
        # 100 random in-domain points across the differentiable scalar ops
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            x = ad.parameter(rng.uniform(0.3, 2.5, size=3))
            op = [ad.log, ad.exp, ad.sigmoid, ad.softplus, ad.sqrt, ad.digamma][i % 6]
            loss = ad.sum_all(op(x))
            ad.zero_gradients([x])
            ad.backward(loss)
            num = numeric_grad(lambda: ad.sum_all(op(x)).value, x)
            assert_grads_close(x.grad, num, rtol=1e-4, atol=1e-7, label=op.__name__)
