"""Betadrop's threads: the BLAS pin, and the shares of a training step.

A share writes only its own slice of outputs that its caller allocated, so
an op that runs shares must give the values and gradients of the same op with
its share gates out of reach (one thread, no split) bit for bit, on one worker
and on eight, with threads switching every microsecond.  The dense training
steps stay below every gate and never ask for the pool.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from betadrop import autodiff as ad
from betadrop import training
from betadrop.data import Dataset, synthetic_two_cluster
from betadrop.layers import build_lenet5_caffe, build_lenet_500_300, build_mlp, shrink

from helpers import glyph_images, share_workers

SRC = Path(__file__).resolve().parents[1] / "src"


def no_pool(pid):
    raise AssertionError("the pool was asked for")


@contextmanager
def unsplit():
    """Within the block every share gate is out of reach and the pool may not
    be asked for: each op runs whole on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_SHARE_WORK", 1 << 62)
        mp.setattr(ad, "_SHARE_ELEMS", 1 << 62)
        mp.setattr(ad, "_share_pool", no_pool)
        yield


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def assert_same_bits(runs):
    """Each run is a tuple of arrays; every run must equal the first bit for bit."""
    for run in runs[1:]:
        assert len(run) == len(runs[0])
        for a, b in zip(runs[0], run):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def on_workers(fn):
    """``fn()`` unsplit, then on 1 and on 8 workers, where it must run shares;
    each shared run is called from a thread of its own that must end in time."""
    with unsplit():
        runs = [fn()]
    for n in (1, 8):
        with share_workers(n) as asks:
            caller = threading.Thread(target=lambda: runs.append(fn()))
            caller.start()
            caller.join(timeout=120)
        assert not caller.is_alive() and asks, "no share ran"
    assert len(runs) == 3
    return runs


def graph_grads(op, inputs, g):
    """The op's value and the gradients that ``g`` on its output gives its inputs."""
    nodes = [ad.parameter(np.array(v)) for v in inputs]
    out = op(*nodes)
    ad.backward(ad.fused(np.float64(0.0), (out,), lambda _: [g]))
    return (out.value, *(n.grad for n in nodes))


class TestPin:
    def test_numpy_blas_runs_one_thread_after_import(self):
        # in a fresh process asked for 2 BLAS threads: the pin holds
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "*openblas64_*"))
        if not libs:
            pytest.skip("numpy here has no bundled OpenBLAS")
        code = ("import ctypes, sys; lib = ctypes.CDLL(sys.argv[1]); "
                "threads = lib.scipy_openblas_get_num_threads64_; before = threads(); "
                "import betadrop; print(before, threads())")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code, libs[0]], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["2", "1"]

    def test_a_missing_setter_leaves_the_blas_unpinned(self, monkeypatch):
        class NoSetter:
            def __init__(self, path):
                pass

        monkeypatch.setattr(ctypes, "CDLL", NoSetter)
        assert ad._pin_blas() is False

    def test_seeded_training_bits_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the same seeded BB step of lenet5_caffe at 1 and at 2 BLAS threads
        x, y = glyph_images(200, 0)
        np.save(tmp_path / "x.npy", x)
        np.save(tmp_path / "y.npy", y)
        code = """if True:
            import hashlib, json, sys
            import numpy as np
            from betadrop import layers, training
            from betadrop.data import Dataset
            x, y = np.load(sys.argv[1] + "/x.npy"), np.load(sys.argv[1] + "/y.npy")
            net = layers.build_lenet5_caffe(seed=0)
            cfg = training.TrainConfig(batch_size=100, lr_variational=0.01, seed=0)
            losses = training.finetune_bb(net, Dataset(x, y), cfg, epochs=1)
            params = net.parameters() + net.variational_parameters()
            print(json.dumps([losses, hashlib.sha256(
                b"".join(p.value.tobytes() for p in params)).hexdigest()]))
        """
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
            out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                                 capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out))
        assert len(runs[0][0]) == 2 and runs[0] == runs[1]


# (input channels, input side, output channels, batch); each conv has at
# least _SHARE_WORK multiply-adds, so it runs shares
CONV_CASES = {
    "lenet-conv1": (1, 28, 20, 100),  # one input channel: a single dx task
    "lenet-conv2": (20, 12, 50, 100),
    "ragged": (3, 23, 7, 96),  # 19 output rows, 7 output and 3 input channels
    # 19 * 19 * 97 columns, not a multiple of 16: no row halves, else dx
    # changes in its last bits
    "ragged-columns": (3, 23, 7, 97),
    # 7 * 7 * 99 columns: product halves split at column 2426 change its bits,
    # at 2432, a multiple of 64, they keep them
    "odd-columns": (20, 11, 50, 99),
    "batch-1": (2, 184, 16, 1),
}


class TestConvShares:
    @pytest.mark.parametrize("case", CONV_CASES.values(), ids=CONV_CASES.keys())
    def test_values_and_gradients_equal_the_unsplit_op(self, case, fast_switching):
        cin, side, cout, bsz = case
        ho = side - 4
        assert cout * cin * 25 * ho * ho * bsz >= ad._SHARE_WORK
        rng = np.random.default_rng(31)
        inputs = (rng.normal(size=(cin, side, side, bsz)), rng.normal(size=(cout, cin, 5, 5)),
                  rng.normal(size=cout))
        g = rng.normal(size=(cout, ho, ho, bsz))
        assert_same_bits(on_workers(lambda: graph_grads(ad.conv2d, inputs, g)))

    def test_a_constant_input_takes_one_task(self):
        # conv1 of lenet5_caffe reads the images: dW with db is the only task
        rng = np.random.default_rng(32)
        x, w, b = rng.normal(size=(1, 28, 28, 100)), rng.normal(size=(20, 1, 5, 5)), np.zeros(20)
        g = rng.normal(size=(20, 24, 24, 100))

        def run():
            wn, bn = ad.parameter(w), ad.parameter(b)
            out = ad.conv2d(ad.constant(x), wn, bn)
            out._backward_fn(g)
            return out.value, wn.grad, bn.grad

        with unsplit():
            ref = run()
        with share_workers(2) as asks:
            shared = run()
        assert len(asks) == 2  # the copy into the columns and the product
        assert_same_bits([ref, shared])


# (C, H, W, B), each of at least _SHARE_ELEMS values
POOL_CASES = {
    "lenet-conv1": (20, 24, 24, 100),
    "odd-channels": (5, 26, 18, 117),
    "batch-1": (3, 300, 300, 1),
}


class TestPoolShares:
    @pytest.mark.parametrize("case", POOL_CASES.values(), ids=POOL_CASES.keys())
    def test_values_and_gradients_equal_the_unsplit_op(self, case, fast_switching):
        assert np.prod(case) >= ad._SHARE_ELEMS
        rng = np.random.default_rng(33)
        x = rng.normal(size=case)
        g = rng.normal(size=(case[0], case[1] // 2, case[2] // 2, case[3]))
        assert_same_bits(on_workers(lambda: graph_grads(ad.maxpool2x2, [x], g)))

    def test_a_nan_in_one_share_wins_only_its_window(self, fast_switching):
        # channel 15 lies in the second share of 20, which alone plays the NaN
        # tournament; the first share's windows must not see it
        rng = np.random.default_rng(34)
        x = rng.normal(size=(20, 24, 24, 100))
        x[15, 3, 4, 7] = np.nan
        g = rng.normal(size=(20, 12, 12, 100))
        runs = on_workers(lambda: graph_grads(ad.maxpool2x2, [x], g))
        assert_same_bits(runs)
        out, dx = runs[-1]
        assert np.isnan(out[15, 1, 2, 7]) and np.isnan(out).sum() == 1
        window = dx[15, 2:4, 4:6, 7]
        assert window[1, 0] == g[15, 1, 2, 7] and np.count_nonzero(window) == 1

    def test_ties_go_to_the_first_position_in_every_share(self, fast_switching):
        rng = np.random.default_rng(35)
        x = rng.integers(0, 2, size=(7, 24, 24, 100)).astype(float)
        g = rng.normal(size=(7, 12, 12, 100)) + 10.0  # no zero gradient
        runs = on_workers(lambda: graph_grads(ad.maxpool2x2, [x], g))
        assert_same_bits(runs)
        # each window's gradient sits at its first 1 in row-major order, or at
        # its top left when it holds none
        windows = x.reshape(7, 12, 2, 12, 2, 100).transpose(0, 1, 3, 5, 2, 4).reshape(-1, 4)
        taken = (runs[-1][1] != 0).reshape(7, 12, 2, 12, 2, 100).transpose(0, 1, 3, 5, 2, 4)
        taken = taken.reshape(-1, 4)
        assert (taken.sum(axis=1) == 1).all()
        assert np.array_equal(np.argmax(taken, axis=1), np.argmax(windows, axis=1))

    def test_pooling_without_a_gradient_equals_the_unsplit_op(self):
        x = np.random.default_rng(36).normal(size=(20, 24, 24, 100))
        with unsplit():
            ref = ad.maxpool2x2(ad.constant(x)).value
        with share_workers(2) as asks:
            assert ad.maxpool2x2(ad.constant(x)).value.tobytes() == ref.tobytes()
        assert asks


class TestProductShares:
    def test_matmul_gradients_equal_the_unsplit_op(self, fast_switching):
        # fc1 of lenet5_caffe at batch 100: 4e7 multiply-adds
        rng = np.random.default_rng(37)
        a, b, g = rng.normal(size=(100, 800)), rng.normal(size=(800, 500)), rng.normal(size=(100, 500))
        assert a.size * b.shape[1] >= ad._SHARE_WORK
        assert_same_bits(on_workers(lambda: graph_grads(ad.matmul, [a, b], g)))

    def test_scale_channels_gradients_equal_the_unsplit_op(self, fast_switching):
        rng = np.random.default_rng(38)
        x, s, g = rng.normal(size=(20, 12, 12, 100)), rng.random((100, 20)), rng.normal(size=(20, 12, 12, 100))
        assert_same_bits(on_workers(lambda: graph_grads(ad.scale_channels, [x, s], g)))

    def test_adam_steps_equal_the_unsplit_update(self, fast_switching):
        rng = np.random.default_rng(39)
        shapes = [(800, 500), (500,), (20, 1, 5, 5)]
        start = [rng.normal(size=shp) for shp in shapes]
        grads = [[rng.normal(size=shp) for shp in shapes] for _ in range(3)]

        def run():
            params = [ad.parameter(v.copy()) for v in start]
            state = training.AdamState.for_params(params)
            for step in grads:
                training.adam_step(params, step, state, 1e-2)
            return tuple(p.value for p in params) + tuple(state.m) + tuple(state.v)

        assert_same_bits(on_workers(run))


class TestShareErrors:
    def test_an_error_in_a_share_reaches_the_caller(self):
        done = []

        def share(part):
            if part.start:
                raise MemoryError(f"share at {part.start}")
            done.append(part)

        with share_workers(2), pytest.raises(MemoryError, match="share at 5"):
            ad._run_shares(share, ad._halves(10, True))

    def test_an_error_in_a_task_reaches_the_caller(self):
        def fail():
            raise FloatingPointError("second task")

        with share_workers(2), pytest.raises(FloatingPointError, match="second task"):
            ad._run_tasks([lambda: None, fail], True)

    def test_a_pooling_gradient_of_the_wrong_size_is_refused_from_a_share(self):
        x = ad.parameter(np.ones((20, 24, 24, 100)))
        out = ad.maxpool2x2(x)
        with share_workers(2) as asks, pytest.raises(ValueError):
            out._backward_fn(np.ones((20, 12, 12, 99)))
        assert asks  # the error came from a share


def step_bits(net, batch, step_fn):
    losses = step_fn(net, batch, training.TrainConfig(batch_size=100, seed=3), epochs=1)
    params = net.parameters() + net.variational_parameters()
    return losses, hashlib.sha256(b"".join(p.value.tobytes() for p in params)).hexdigest()


class TestTrainingSteps:
    def test_a_lenet5_step_equals_the_unsplit_step(self):
        x, y = glyph_images(100, 3)
        runs = []
        with unsplit():
            runs.append(step_bits(build_lenet5_caffe(seed=3), Dataset(x, y), training.finetune_bb))
        for n in (1, 8):
            with share_workers(n) as asks:
                runs.append(step_bits(build_lenet5_caffe(seed=3), Dataset(x, y), training.finetune_bb))
            assert asks
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("arch", ["lenet_500_300", "mlp-20-16-2"])
    def test_a_dense_step_never_asks_for_the_pool(self, arch, monkeypatch):
        # lenet_500_300 half-pruned, as the benchmark's DBB workload trains it
        rng = np.random.default_rng(40)
        if arch == "lenet_500_300":
            net = shrink(build_lenet_500_300(seed=4),
                         [np.sort(rng.choice(k, k // 2, replace=False)) for k in (784, 500, 300)])
            x, y = glyph_images(100, 4)
            batch = Dataset(x.reshape(100, -1), y)
        else:
            net = build_mlp((20, 16, 2), seed=4)
            batch = synthetic_two_cluster(100, 20, seed=4)
        monkeypatch.setattr(ad, "_share_pool", no_pool)
        losses, _ = step_bits(net, batch, training.finetune_dbb)
        assert len(losses) == 1 and np.isfinite(losses[0])
