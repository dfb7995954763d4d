"""Forward/backward tests for the tensor-autodiff core.

Every differentiable op is checked against central finite differences;
matmul and conv2d forwards, the batched conv2d gradients and 2x2 max pooling
are additionally checked against naive nested-loop oracles.  The conv ops
take batch-innermost (C, H, W, B) activations; the oracles are per-example
(B, C, H, W), so the tests transpose around them (``to_chwb`` and
``from_chwb``).  The fused gate
ops built on :func:`~betadrop.autodiff.fused` get random-input finite-output
and gradient checks here; their complex-step oracle tests are in
``test_gates``.
"""

import ast
import itertools
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop.errors import ContractError, DimensionError

from helpers import (
    FUSED_GATES,
    conv2d_grad_oracle,
    conv2d_oracle,
    fused_gate_case,
    gate_case_loss,
    gradcheck,
    matmul_oracle,
    maxpool2x2_oracle,
    share_workers,
    sum_all,
)

# conv input extents (H, W), by index: non-square both ways, square, and one
# that leaves a 5x5 kernel a single output column
CONV_SHAPES = ((8, 7), (7, 8), (6, 6), (9, 5))
# (kernel, input channels, index into CONV_SHAPES)
BATCHED_CONV_CASES = [(k, c_in, s) for k in (3, 5) for c_in in (1, 2) for s in (0, 1)] + [
    (k, c_in, s) for k in (3, 5) for c_in, s in ((1, 2), (2, 3))
]

RNG = np.random.default_rng(12345)


def to_chwb(a):
    """(B, C, H, W) -> batch-innermost (C, H, W, B), C-contiguous."""
    return np.ascontiguousarray(np.asarray(a).transpose(1, 2, 3, 0))


def from_chwb(a):
    """Batch-innermost (C, H, W, B) -> (B, C, H, W)."""
    return np.ascontiguousarray(np.asarray(a).transpose(3, 0, 1, 2))


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
            return sum_all(ad.mul(ad.matmul(a, b), ad.constant(coeffs)))

        gradcheck(loss, [a, b], rtol=1e-6, atol=1e-9)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


class TestElementwise:
    def test_relu_maps_nan_and_negative_zero_to_positive_zero(self):
        x = ad.parameter(np.array([np.nan, -0.0, 0.0, -np.inf, -5e-324, 5e-324, 2.0]))
        out = ad.relu(x).value
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, 5e-324, 2.0])
        assert not np.signbit(out).any()

    def test_relu_gradients_away_from_kink(self):
        vals = np.array([-2.0, -0.5, 0.3, 1.7, 4.0])
        x = ad.parameter(vals)
        coeffs = RNG.normal(size=5)

        def loss():
            return sum_all(ad.mul(ad.relu(x), ad.constant(coeffs)))

        gradcheck(loss, [x], rtol=1e-6, atol=1e-9)

    def test_binary_gradients(self):
        a = ad.parameter(RNG.uniform(0.5, 2.0, size=6))
        b = ad.parameter(RNG.uniform(0.5, 2.0, size=6))
        for op in (ad.add, ad.mul):
            gradcheck(lambda: sum_all(op(a, b)), [a, b], rtol=1e-5, atol=1e-8)

    def test_scalar_broadcast(self):
        s = ad.parameter(2.0)
        v = ad.parameter(np.array([1.0, 2.0, 3.0]))
        for op in (ad.add, ad.mul):
            with pytest.raises(DimensionError, match=r"\(\) and \(3,\)"):
                op(s, v)
            with pytest.raises(DimensionError):
                op(v, s)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))

    def test_rowwise_ops(self):
        x = ad.parameter(RNG.normal(size=(4, 3)))
        v = ad.parameter(RNG.normal(size=3))
        gradcheck(lambda: sum_all(ad.add_rowwise(x, v)), [x, v], rtol=1e-6)
        coeffs = ad.constant(RNG.normal(size=(4, 3)))
        gradcheck(
            lambda: sum_all(ad.mul(ad.add_rowwise(x, v), coeffs)), [x, v], rtol=1e-5
        )

    def test_channel_ops(self):
        x = ad.parameter(to_chwb(RNG.normal(size=(2, 3, 4, 4))))
        s = ad.parameter(RNG.uniform(0.5, 1.5, size=(2, 3)))
        b = ad.parameter(RNG.normal(size=3))
        gradcheck(lambda: sum_all(ad.scale_channels(x, s)), [x, s], rtol=1e-5)
        # per-channel bias: conv2d's fused bias behind a 1x1 identity kernel
        eye = ad.constant(np.eye(3).reshape(3, 3, 1, 1))
        gradcheck(lambda: sum_all(ad.conv2d(x, eye, b)), [x, b], rtol=1e-6)

    def test_scale_channels_scales_each_example_and_channel(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        s = RNG.uniform(0.5, 1.5, size=(2, 3))
        out = ad.scale_channels(ad.constant(to_chwb(x)), ad.constant(s)).value
        assert np.array_equal(from_chwb(out), x * s[:, :, None, None])

    def test_flatten_rows_are_per_example_chw(self):
        x = RNG.normal(size=(3, 2, 4, 5))
        out = ad.flatten(ad.constant(to_chwb(x))).value
        assert out.shape == (3, 40) and np.array_equal(out, x.reshape(3, -1))
        xp = ad.parameter(to_chwb(x))
        coeffs = ad.constant(RNG.normal(size=(3, 40)))
        gradcheck(lambda: sum_all(ad.mul(ad.flatten(xp), coeffs)), [xp], rtol=1e-6)

    def test_gather_cols(self):
        x = ad.parameter(RNG.normal(size=(3, 6)))
        idx = np.array([5, 0, 2])
        out = ad.gather_cols(x, idx)
        assert np.array_equal(out.value, x.value[:, idx])
        coeffs = ad.constant(RNG.normal(size=(3, 3)))
        gradcheck(lambda: sum_all(ad.mul(ad.gather_cols(x, idx), coeffs)), [x])

    def test_fused_passes_each_parent_its_gradient(self):
        p, c, q = ad.parameter(RNG.normal(size=3)), ad.constant(np.ones(2)), ad.parameter(1.0)
        out = ad.fused(np.zeros(4), (p, c, q), lambda g: (g[:3] * 2.0, g[:2], None))
        ad.backward(sum_all(ad.mul(out, ad.constant([1.0, 2.0, 3.0, 4.0]))))
        assert np.array_equal(p.grad, [2.0, 4.0, 6.0])
        assert c._grad is None and q._grad is None

    def test_fused_over_constants_is_a_constant(self):
        def vjp(g):
            raise AssertionError("a node no gradient reaches runs no backward")

        c = ad.constant(np.ones(2))
        out = ad.fused(np.full(2, 3.0), (c, ad.constant(1.0)), vjp)
        assert not out.needs_grad and out._parents == () and out._backward_fn is None
        assert np.array_equal(out.value, [3.0, 3.0])
        p = ad.parameter(np.ones(2))
        ad.backward(sum_all(ad.mul(out, p)))
        assert np.array_equal(p.grad, [3.0, 3.0]) and c._grad is None


def assert_pooled_conv_equals_the_graph(x, w, b, means_bit_equal=False, pooled_bit_equal=True):
    """The tiled pass's pooled map equals the graph's ``maxpool2x2(conv2d)`` bit
    for bit, or within 1e-14 of its largest value, and its channel means
    ``global_avg_pool`` within 1e-13 of the largest mean (a mean near 0 is a
    sum that cancels), or bit for bit."""
    pooled, means = ad.conv2d_pool_means(x, w, b)
    conv = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b))
    graph = ad.maxpool2x2(conv).value
    assert np.array_equal(pooled, graph) or not pooled_bit_equal
    assert np.abs(pooled - graph).max() <= 1e-14 * np.abs(graph).max()
    ref = ad.global_avg_pool(conv).value
    assert np.array_equal(means, ref) or not means_bit_equal
    assert np.abs(means - ref).max() <= 1e-13 * np.abs(ref).max()


class TestConv2d:
    def test_one_by_one_identity(self):
        x = RNG.normal(size=(1, 3, 3, 1))
        k = np.ones((1, 1, 1, 1))
        out = ad.conv2d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(1)))
        assert np.array_equal(out.value, x)

    def test_all_ones_window_sum(self):
        x = np.ones((1, 3, 3, 1))
        k = np.ones((1, 1, 2, 2))
        out = ad.conv2d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(1)))
        assert np.array_equal(out.value, np.full((1, 2, 2, 1), 4.0))

    @pytest.mark.parametrize("c_in,s", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_against_nested_loop_oracle(self, c_in, s):
        x = RNG.normal(size=(c_in, *CONV_SHAPES[s]))
        w = RNG.normal(size=(3, c_in, 3, 3))
        b = RNG.normal(size=3)
        out = ad.conv2d(ad.constant(x[..., None]), ad.constant(w), ad.constant(b))
        expected = conv2d_oracle(x, w) + b[:, None, None]
        assert np.allclose(out.value[..., 0], expected, atol=1e-12)

    def test_batched_matches_single(self):
        xs = RNG.normal(size=(3, 2, 6, 6))
        w = RNG.normal(size=(4, 2, 3, 3))
        b = ad.constant(RNG.normal(size=4))
        batched = ad.conv2d(ad.constant(to_chwb(xs)), ad.constant(w), b).value
        for i in range(3):
            single = ad.conv2d(ad.constant(xs[i][..., None]), ad.constant(w), b).value
            assert np.array_equal(batched[..., i], single[..., 0])

    @pytest.mark.parametrize("c_in,s", [(1, 0), (2, 1)])
    def test_gradients_match_finite_differences(self, c_in, s):
        x = ad.parameter(RNG.normal(size=(c_in, *CONV_SHAPES[s]))[..., None])
        w = ad.parameter(RNG.normal(size=(3, c_in, 3, 3)))
        b = ad.parameter(RNG.normal(size=3))
        coeffs = None

        def loss():
            out = ad.conv2d(x, w, b)
            nonlocal coeffs
            if coeffs is None:
                coeffs = ad.constant(RNG.normal(size=out.value.shape))
            return sum_all(ad.mul(out, coeffs))

        gradcheck(loss, [x, w, b], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("k,c_in,s", BATCHED_CONV_CASES)
    def test_batched_gradients_match_finite_differences(self, k, c_in, s):
        x = ad.parameter(to_chwb(RNG.normal(size=(3, c_in, *CONV_SHAPES[s]))))
        w = ad.parameter(RNG.normal(size=(3, c_in, k, k)))
        b = ad.parameter(RNG.normal(size=3))
        coeffs = None

        def loss():
            out = ad.conv2d(x, w, b)
            nonlocal coeffs
            if coeffs is None:
                coeffs = ad.constant(RNG.normal(size=out.value.shape))
            return sum_all(ad.mul(out, coeffs))

        gradcheck(loss, [x, w, b], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("k,c_in,s", BATCHED_CONV_CASES)
    def test_batched_gradients_match_loop_oracle(self, k, c_in, s):
        xv = RNG.normal(size=(3, c_in, *CONV_SHAPES[s]))
        wv = RNG.normal(size=(3, c_in, k, k))
        x, w, b = ad.parameter(to_chwb(xv)), ad.parameter(wv), ad.parameter(RNG.normal(size=3))
        out = ad.conv2d(x, w, b)
        g = RNG.normal(size=out.value.shape)
        ad.backward(sum_all(ad.mul(out, ad.constant(g))))
        dx, dw = conv2d_grad_oracle(xv, wv, from_chwb(g))
        assert np.allclose(from_chwb(x.grad), dx, rtol=1e-12, atol=1e-12)
        assert np.allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, g.sum(axis=(1, 2, 3)), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k,c_in,s", BATCHED_CONV_CASES)
    def test_constant_input_takes_no_gradient(self, k, c_in, s):
        xv = RNG.normal(size=(3, c_in, *CONV_SHAPES[s]))
        wv = RNG.normal(size=(3, c_in, k, k))
        x, w, b = ad.constant(to_chwb(xv)), ad.parameter(wv), ad.parameter(RNG.normal(size=3))
        out = ad.conv2d(x, w, b)
        g = RNG.normal(size=out.value.shape)
        ad.backward(sum_all(ad.mul(out, ad.constant(g))))
        _, dw = conv2d_grad_oracle(xv, wv, from_chwb(g))
        assert x._grad is None and np.array_equal(x.grad, np.zeros(x.shape))
        assert np.allclose(w.grad, dw, rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, g.sum(axis=(1, 2, 3)), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make_input", [ad.constant, ad.parameter], ids=lambda f: f.__name__)
    def test_constant_input_skips_the_column_gradient(self, make_input):
        # conv1's input and kernel at batch 20: the column gradient alone is
        # 25 x 11520 doubles (2.3 MB), against 0.18 MB for the output gradient
        # of two channels; backward on a constant input allocates none of it
        x = make_input(RNG.normal(size=(1, 28, 28, 20)))
        out = ad.conv2d(x, ad.parameter(RNG.normal(size=(2, 1, 5, 5))),
                        ad.parameter(np.zeros(2)))
        loss = sum_all(out)
        dcols_bytes = 25 * 20 * 24 * 24 * 8
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if make_input is ad.constant:
            assert peak < dcols_bytes // 4
        else:
            assert peak >= dcols_bytes

    @pytest.mark.parametrize("bsz", [5, 1])
    def test_no_grad_blocks_equal_the_graph_value(self, bsz):
        # a tile's columns and GEMM result take 8 * (8 * 5 * 5 + 6) bytes per
        # output position and example: the tiled pass builds the batch of 5
        # in 3 tiles of 4 output row pairs each, batch 1 in one tile
        ncols = ad._COLS_BLOCK_BYTES // (8 * (8 * 5 * 5 + 6))
        assert ncols >= 48 * bsz
        assert ad._even_part(12, ncols // (48 * bsz)) == (12 if bsz == 1 else 4)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 28, 28, bsz))
        w, b = rng.normal(size=(6, 8, 5, 5)), rng.normal(size=6)
        assert_pooled_conv_equals_the_graph(x, w, b, means_bit_equal=bsz == 1)

    @pytest.mark.parametrize("cin,h,cout,bsz", [(8, 28, 6, 10), (8, 28, 6, 61), (20, 12, 50, 61),
                                                (8, 36, 6, 5), (20, 20, 6, 200)],
                             ids=["ragged-rows", "ragged-examples", "lenet-conv2",
                                  "ragged-row-pairs", "rounded-16-wide"])
    def test_no_grad_tiles_equal_the_graph_value(self, cin, h, cout, bsz):
        # A tile holds some output row pairs of every example, or one row pair
        # of an even share of the examples; here the last tile is the smaller
        # one.  ragged-row-pairs: 16 pairs in tiles of 3, the last of 1;
        # ragged-examples: 12 pairs of 21, 21 then 19 examples.  ragged-rows:
        # 24 rows are 12 pairs, which even parts always split evenly, here
        # into 6 tiles of 2.  lenet-conv2, conv2 of lenet5_caffe: tiles of 29,
        # 29 and 3 examples would end in a 48-column GEMM, whose values
        # OpenBLAS computes with other bits than the graph's 3,904 columns.
        # rounded-16-wide: tiles of 16 examples give pooled values that differ
        # from the graph's in the last bits, though 16 is a multiple of 8.
        ho = h - 4
        ncols = ad._COLS_BLOCK_BYTES // (8 * (cin * 25 + cout))
        nex = ad._even_part(bsz, ncols // (2 * ho))
        npairs = ad._even_part(ho // 2, ncols // (2 * ho * nex))
        if (h, bsz) == (28, 10):
            assert nex == bsz and npairs == 2
        else:
            assert (bsz % nex if nex < bsz else ho // 2 % npairs) > 0
        rng = np.random.default_rng(14)
        x = rng.normal(size=(cin, h, h, bsz))
        w, b = rng.normal(size=(cout, cin, 5, 5)), rng.normal(size=cout)
        assert_pooled_conv_equals_the_graph(x, w, b, pooled_bit_equal=h != 20)

    def test_no_grad_columns_stay_within_the_block_budget(self):
        # conv2 of a shrunk lenet5_caffe (15 -> 38 channels) at batch 500: the
        # whole batch's columns are 96 MB and its conv output 9.7 MB, against
        # a 2.4 MB pooled output
        rng = np.random.default_rng(13)
        x = rng.normal(size=(15, 12, 12, 500))
        w, b = rng.normal(size=(38, 15, 5, 5)), np.zeros(38)
        out_bytes = 38 * 500 * 4 * 4 * 8
        # two workers hold a tile each; tracemalloc traces every thread
        with share_workers(2):
            tracemalloc.start()
            try:
                pooled, means = ad.conv2d_pool_means(x, w, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert pooled.nbytes == out_bytes and means.shape == (500, 38)
        assert peak < out_bytes + 3 * ad._COLS_BLOCK_BYTES

    @pytest.mark.parametrize("cin,h,cout,bsz,shares", [(15, 12, 38, 500, 13), (8, 28, 6, 61, 3)],
                             ids=["shrunk-lenet-conv2", "ragged-examples"])
    def test_shares_give_the_same_bits_on_any_worker_count(self, cin, h, cout, bsz, shares):
        # shrunk-lenet-conv2: 13 shares of 39 or 32 examples over 2 workers;
        # ragged-examples: shares of 21, 21 and 19
        ncols = ad._COLS_BLOCK_BYTES // (8 * (cin * 25 + cout))
        assert -(-bsz // ad._even_part(bsz, ncols // (2 * (h - 4)))) == shares
        rng = np.random.default_rng(15)
        x = rng.normal(size=(cin, h, h, bsz))
        w, b = rng.normal(size=(cout, cin, 5, 5)), rng.normal(size=cout)
        runs = []
        for n in (1, 2):
            with share_workers(n):
                runs.append(ad.conv2d_pool_means(x, w, b))
        (pooled1, means1), (pooled2, means2) = runs
        assert np.array_equal(pooled1, pooled2) and np.array_equal(means1, means2)

    def test_shares_keep_their_bits_under_thread_switching(self):
        # 8 shares of 25 examples on 8 workers, more than the cores, switching
        # threads every microsecond: a share that wrote outside its own
        # examples would lose an update
        rng = np.random.default_rng(17)
        x = rng.normal(size=(8, 28, 28, 200))
        assert ad._even_part(200, ad._COLS_BLOCK_BYTES // (8 * (8 * 25 + 6)) // 48) == 25
        w, b = rng.normal(size=(6, 8, 5, 5)), rng.normal(size=6)
        with share_workers(1):
            ref = ad.conv2d_pool_means(x, w, b)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with share_workers(8):
                caller = threading.Thread(
                    target=lambda: runs.extend(ad.conv2d_pool_means(x, w, b) for _ in range(5)))
                caller.start()
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(runs) == 5
        for pooled, means in runs:
            assert np.array_equal(pooled, ref[0]) and np.array_equal(means, ref[1])

    def test_one_share_runs_on_the_calling_thread(self, monkeypatch):
        def no_pool(pid):
            raise AssertionError("the pool was asked for")

        monkeypatch.setattr(ad, "_share_pool", no_pool)
        rng = np.random.default_rng(16)
        w, b = rng.normal(size=(6, 8, 5, 5)), rng.normal(size=6)
        pooled, means = ad.conv2d_pool_means(rng.normal(size=(8, 28, 28, 1)), w, b)
        assert pooled.shape == (6, 12, 12, 1) and means.shape == (1, 6)
        with pytest.raises(AssertionError, match="pool"):  # 61 examples are 3 shares
            ad.conv2d_pool_means(rng.normal(size=(8, 28, 28, 61)), w, b)

    def test_a_share_error_reaches_the_caller(self, monkeypatch):
        def failing_columns(win, rows, examples):
            raise MemoryError(f"examples {examples.start}")

        monkeypatch.setattr(ad, "_columns", failing_columns)
        with share_workers(2), pytest.raises(MemoryError, match="examples 0"):
            ad.conv2d_pool_means(np.ones((8, 28, 28, 61)), np.ones((6, 8, 5, 5)), np.zeros(6))

    def test_tiled_pass_rejects_odd_conv_extents(self):
        with pytest.raises(DimensionError, match="even"):
            ad.conv2d_pool_means(np.ones((1, 8, 9, 2)), np.ones((1, 1, 5, 5)), np.zeros(1))

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(DimensionError, match="larger"):
            ad.conv2d(ad.constant(np.ones((1, 3, 3, 1))), ad.constant(np.ones((1, 1, 5, 5))),
                      ad.constant(np.zeros(1)))


class TestPooling:
    def test_maxpool_basic(self):
        out = ad.maxpool2x2(ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]))
        assert out.shape == (1, 1, 1, 1) and np.array_equal(out.value[0, :, :, 0], [[4.0]])

    def test_maxpool_odd_extent_rejected(self):
        with pytest.raises(DimensionError, match="even"):
            ad.maxpool2x2(ad.constant(np.ones((1, 3, 4, 1))))

    def test_maxpool_gradient_routes_to_argmax(self):
        x = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None])
        ad.backward(sum_all(ad.maxpool2x2(x)))
        assert np.array_equal(x.grad[0, :, :, 0], [[0.0, 0.0], [0.0, 1.0]])

    def test_maxpool_tie_break_first_row_major(self):
        x = ad.parameter(np.full((1, 2, 2, 1), 7.0))
        ad.backward(sum_all(ad.maxpool2x2(x)))
        assert np.array_equal(x.grad[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_gradients_match_fd_when_argmax_unique(self):
        x = ad.parameter(RNG.normal(size=(2, 4, 4, 1)))
        coeffs = ad.constant(RNG.normal(size=(2, 2, 2, 1)))
        gradcheck(
            lambda: sum_all(ad.mul(ad.maxpool2x2(x), coeffs)), [x], rtol=1e-5
        )

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_maxpool_4d_unique_max_at_each_position(self, i, j):
        xv = RNG.uniform(-1.0, 1.0, size=(2, 3, 4, 6))
        xv[..., i::2, j::2] += 3.0
        g = RNG.normal(size=(2, 3, 2, 3))
        x = ad.parameter(to_chwb(xv))
        out = ad.maxpool2x2(x)
        ad.backward(sum_all(ad.mul(out, ad.constant(to_chwb(g)))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.array_equal(from_chwb(out.value), ref_out)
        assert np.array_equal(from_chwb(x.grad), ref_dx)
        assert np.array_equal(from_chwb(x.grad)[..., i::2, j::2], g)

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
        x = ad.parameter(to_chwb(xv))
        out = ad.maxpool2x2(x)
        ad.backward(sum_all(ad.mul(out, ad.constant(to_chwb(g)))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.array_equal(from_chwb(out.value), ref_out)
        assert np.array_equal(from_chwb(x.grad), ref_dx)
        assert np.array_equal(from_chwb(x.grad), expected_dx)

    def test_maxpool_4d_nan_wins_its_window(self):
        xv = RNG.normal(size=(2, 3, 4, 6))
        xv[RNG.random(xv.shape) < 0.3] = np.nan
        g = RNG.normal(size=(2, 3, 2, 3))
        x = ad.parameter(to_chwb(xv))
        out = ad.maxpool2x2(x)
        ad.backward(sum_all(ad.mul(out, ad.constant(to_chwb(g)))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.isnan(out.value).any() and not np.isnan(out.value).all()
        assert np.array_equal(from_chwb(out.value), ref_out, equal_nan=True)
        assert np.array_equal(from_chwb(x.grad), ref_dx)

    @pytest.mark.parametrize("shape", [(4, 512), (2, 3, 2, 260)], ids=["2d", "wide-rows"])
    def test_maxpool_wide_rows_and_2d_input_match_oracle(self, shape):
        # half-integer values make many tied windows; the winners' flat
        # offsets exceed any small integer type.  The 2-D map is one channel
        # of one example, a (1, H, W, 1) input.
        xv = np.round(RNG.normal(size=shape) * 2.0) / 2.0
        g = -RNG.uniform(0.5, 1.0, size=(*shape[:-2], shape[-2] // 2, shape[-1] // 2))
        if len(shape) == 2:
            to, back = (lambda a: a[None, :, :, None]), (lambda a: a[0, :, :, 0])
        else:
            to, back = to_chwb, from_chwb
        x = ad.parameter(to(xv))
        out = ad.maxpool2x2(x)
        ad.backward(sum_all(ad.mul(out, ad.constant(to(g)))))
        ref_out, ref_dx = maxpool2x2_oracle(xv, g)
        assert np.array_equal(back(out.value), ref_out)
        assert np.array_equal(back(x.grad), ref_dx)
        assert not np.signbit(x.grad[x.grad == 0.0]).any()  # non-winners get +0.0

    @pytest.mark.parametrize("mode", ["constant", "no_grad"])
    def test_maxpool_without_gradient_matches_oracle_values(self, mode):
        xv = RNG.normal(size=(3, 2, 4, 6))
        xv[RNG.random(xv.shape) < 0.3] = np.nan
        ref_out, _ = maxpool2x2_oracle(xv, np.zeros((3, 2, 2, 3)))
        if mode == "no_grad":
            with ad.no_grad():
                out = ad.maxpool2x2(ad.parameter(to_chwb(xv)))
            assert out._parents == () and out._backward_fn is None
        else:
            out = ad.maxpool2x2(ad.constant(to_chwb(xv)))
            assert out._backward_fn is None
            p = ad.parameter(RNG.normal(size=out.shape))
            ad.backward(sum_all(ad.mul(out, p)))
            assert np.array_equal(from_chwb(p.grad), ref_out, equal_nan=True)
        assert np.isnan(out.value).any() and not np.isnan(out.value).all()
        assert np.array_equal(from_chwb(out.value), ref_out, equal_nan=True)

    def test_global_avg_pool_constant_channel(self):
        x = np.full((3, 4, 4), 0.0)
        x[1] = 2.5
        out = ad.global_avg_pool(ad.constant(x[..., None]))
        assert np.array_equal(out.value, [[0.0, 2.5, 0.0]])

    def test_global_avg_pool_gradient(self):
        x = ad.parameter(to_chwb(RNG.normal(size=(2, 3, 4, 4))))
        coeffs = ad.constant(RNG.normal(size=(2, 3)))
        gradcheck(
            lambda: sum_all(ad.mul(ad.global_avg_pool(x), coeffs)), [x], rtol=1e-6
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
        with pytest.raises(DimensionError, match=r"labels must lie in \[0, 3\) for 3 outputs"):
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
        ad.backward(sum_all(w))
        assert np.array_equal(w.grad, np.ones((3, 4)))

    def test_square_gradient_2w(self):
        vals = RNG.normal(size=6)
        w = ad.parameter(vals)
        ad.backward(sum_all(ad.mul(w, w)))
        assert np.allclose(w.grad, 2.0 * vals, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(ad.constant(np.ones(3)))

    def test_repeated_backward_accumulates(self):
        w = ad.parameter(np.array([2.0, -1.0]))
        loss = sum_all(ad.mul(w, w))
        ad.backward(loss)
        first = w.grad.copy()
        ad.backward(loss)
        assert np.allclose(w.grad, 2.0 * first)

    def test_diamond_graph(self):
        x = ad.parameter(3.0)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x
        ad.backward(y)
        assert float(x.grad) == pytest.approx(7.0)

    def test_second_backward_recomputes_interior_grads(self):
        w = ad.parameter(np.array([2.0, -1.0]))
        sq = ad.mul(w, w)
        loss = sum_all(ad.mul(sq, ad.constant(np.full(2, 3.0))))
        ad.backward(loss)
        ad.backward(loss)
        assert np.array_equal(sq.grad, [3.0, 3.0])  # not 6: interior starts over
        assert np.array_equal(w.grad, 2.0 * 6.0 * w.value)  # the leaf accumulates

    def test_pass_through_gradients_are_not_shared(self):
        # add hands its output gradient to both inputs and flatten hands on
        # a view of its own: each leaf must still own its gradient buffer
        a = ad.parameter(to_chwb(RNG.normal(size=(2, 3, 2, 2))))
        b = ad.parameter(to_chwb(RNG.normal(size=(2, 3, 2, 2))))
        coeffs = RNG.normal(size=(2, 12))
        ad.backward(sum_all(ad.mul(ad.flatten(ad.add(a, b)), ad.constant(coeffs))))
        expected = to_chwb(coeffs.reshape(2, 3, 2, 2))
        assert np.array_equal(a.grad, expected) and np.array_equal(b.grad, expected)
        a.grad += 1.0
        assert np.array_equal(b.grad, expected)
        assert np.array_equal(a.grad, expected + 1.0)

    @pytest.mark.parametrize("swap", [False, True])
    def test_shared_pass_through_gradient_is_not_written_in_place(self, swap):
        # add hands one array to both interior inputs; a later contribution
        # to one of them must leave the other's gradient alone.
        # loss = sum(x^2 + y^2) + sum(3 x^2 y^2)
        xv, yv = RNG.normal(size=4), RNG.normal(size=4)
        x, y = ad.parameter(xv), ad.parameter(yv)
        xx, yy = ad.mul(x, x), ad.mul(y, y)
        three = ad.constant(np.full(4, 3.0))
        terms = [sum_all(ad.add(xx, yy)), sum_all(ad.mul(ad.mul(xx, three), yy))]
        ad.backward(ad.add(*(terms[::-1] if swap else terms)))
        assert np.allclose(x.grad, 2.0 * xv + 6.0 * xv * yv**2, rtol=1e-12, atol=0)
        assert np.allclose(y.grad, 2.0 * yv + 6.0 * xv**2 * yv, rtol=1e-12, atol=0)

    def test_leaf_used_twice_gets_both_contributions(self):
        a = ad.parameter(to_chwb(RNG.normal(size=(2, 3, 2, 2))))
        coeffs = RNG.normal(size=(2, 12))
        ad.backward(sum_all(ad.mul(ad.flatten(ad.add(a, a)), ad.constant(coeffs))))
        assert np.array_equal(a.grad, 2.0 * to_chwb(coeffs.reshape(2, 3, 2, 2)))

    def test_scalar_leaf_grad_is_an_array(self):
        x = ad.parameter(3.0)
        ad.backward(ad.mul(ad.mul(x, x), ad.constant(2.0)))
        assert isinstance(x.grad, np.ndarray) and float(x.grad) == 12.0

    def test_determinism_bit_identical(self):
        a = RNG.normal(size=(6, 6))
        b = RNG.normal(size=(6, 6))
        r1 = ad.matmul(ad.constant(a), ad.constant(b)).value
        r2 = ad.matmul(ad.constant(a), ad.constant(b)).value
        assert np.array_equal(r1, r2)


class TestFiniteOutputsProperty:
    """Random finite in-domain inputs must give finite outputs."""

    def test_elementwise_suite_finite(self):
        # the fused gate ops also on inputs that reach every clamp and floor
        for i in range(100):
            rng = np.random.default_rng(2000 + i)
            x = rng.normal(size=5) * rng.uniform(0.1, 10)
            assert np.isfinite(ad.relu(ad.constant(x)).value).all()
            for name in FUSED_GATES:
                build, _, leaves = fused_gate_case(name, rng, scale=rng.uniform(0.1, 5.0),
                                                   boundary=True)
                loss = gate_case_loss(build, rng)()
                ad.zero_gradients(leaves)
                ad.backward(loss)
                assert np.isfinite(loss.value), name
                for leaf in leaves:
                    assert np.isfinite(leaf.grad).all(), name

    def test_many_random_gradchecks_small_ops(self):
        # 100 random in-domain points across the fused gate ops
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            name = FUSED_GATES[i % len(FUSED_GATES)]
            build, _, leaves = fused_gate_case(name, rng, scale=rng.uniform(0.2, 1.5))
            gradcheck(gate_case_loss(build, rng), leaves, rtol=1e-4, atol=1e-7)


class TestExports:
    def test_every_op_has_a_caller_in_src(self):
        # a public op that nothing in the package calls should be deleted
        src = Path(ad.__file__).parent
        text = "".join(p.read_text() for p in src.glob("*.py") if p.name != "autodiff.py")
        exempt = {"Node", "as_tensor", "constant", "parameter", "backward", "zero_gradients"}
        uncalled = [
            name for name in ad.__all__
            if name not in exempt and not re.search(rf"\bad\.{name}\(", text)
        ]
        assert uncalled == []

    def test_every_package_export_has_a_caller_in_src(self):
        # a name the package exports but only tests use belongs in the tests
        src = Path(ad.__file__).parent
        init = ast.parse((src / "__init__.py").read_text())
        exported = [alias.asname or alias.name for node in init.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        text = "".join(p.read_text() for p in src.glob("*.py") if p.name != "__init__.py")
        text = re.sub(r"`[^`\n]*`", "", text)  # docs that name it are not callers
        text = re.sub(r"^\s*(def|class) \w+", "", text, flags=re.M)  # nor its definition
        uncalled = [name for name in exported if not re.search(rf"\b{name}\b", text)]
        assert len(exported) > 30 and uncalled == []


class TestGradMode:
    def test_leaf_grad_reads_zeros_before_backward(self):
        w = ad.parameter(RNG.normal(size=(2, 3)))
        assert w.grad.dtype == np.float64 and np.array_equal(w.grad, np.zeros((2, 3)))
        w.grad += 1.0
        assert np.array_equal(w.grad, np.ones((2, 3)))
        w.zero_grad()
        assert np.array_equal(w.grad, np.zeros((2, 3)))

    def test_constant_takes_no_gradient(self):
        c = ad.constant(RNG.normal(size=3))
        p = ad.parameter(RNG.normal(size=3))
        assert not c.needs_grad and p.needs_grad
        ad.backward(sum_all(ad.mul(c, p)))
        assert c._grad is None and np.array_equal(c.grad, np.zeros(3))
        assert np.array_equal(p.grad, c.value)

    def test_node_built_under_no_grad_has_no_parents(self):
        x = ad.parameter(np.array([1.0, -2.0]))
        with ad.no_grad():
            y = ad.relu(ad.mul(x, x))
        assert y._parents == () and y._backward_fn is None
        assert np.array_equal(y.value, [1.0, 4.0])
        ad.backward(sum_all(y))  # y is a leaf now, so nothing reaches x
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_no_grad_restores_the_mode_when_its_block_raises(self):
        x = ad.parameter(np.array([3.0]))
        with pytest.raises(DimensionError):
            with ad.no_grad():
                ad.matmul(x, x)
        y = ad.mul(x, x)
        assert y._parents == (x, x)
        ad.backward(sum_all(y))
        assert np.array_equal(x.grad, [6.0])

    def test_no_grad_nests(self):
        x = ad.parameter(np.array([3.0]))
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert ad.mul(x, x)._parents == ()
        assert ad.mul(x, x)._parents == (x, x)
