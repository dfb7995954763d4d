"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 8 runs on the MNIST IDX files when they are available (see
``_find_mnist``: set BETADROP_MNIST_DIR or place the files under
``data/mnist/``) and skips otherwise.  The same pipeline, thresholds, and
sweep also run end-to-end on scikit-learn's bundled digits (criterion 8a),
which skips when scikit-learn is not installed.
"""

import copy
import os
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import betadrop.autodiff as ad
import betadrop.distributions as d
from betadrop.analysis import (
    count_flops,
    count_memory,
    gate_masks,
    runtime_prune_stats,
    within_cross_gate_correlation,
    class_average_gate_correlation,
)
from betadrop.checkpoint import load_checkpoint, save_checkpoint
from betadrop.data import Dataset, load_idx, synthetic_planted_sparsity
from betadrop.gates import MODE_DBB
from betadrop.layers import (
    build_lenet5_caffe,
    build_lenet_500_300,
    build_mlp,
    forward_eval,
    shrink,
)
from betadrop.training import (
    TrainConfig,
    derive_seed,
    elbo_loss,
    finetune_bb,
    pretrain,
    run_stages,
)

from helpers import (
    FUSED_GATES,
    fused_gate_case,
    gate_case_loss,
    gradcheck,
    interior_gates,
    keep_set_forward,
    kumaraswamy_log_pdf,
    sum_all,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {num:>3} SKIP  {desc}")
        raise
    except BaseException:
        print(f"ACCEPTANCE {num:>3} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:>3} PASS  {desc}")


# -------------------------------------------------------------------------
# 1. accounting of the published LeNet-500-300 rows
# -------------------------------------------------------------------------


def _dbb_runtime_fixture():
    """Untrained LeNet-500-300 with hand-set DBB gates, and ten inputs whose
    per-input kept counts average to 93-35-25.

    Gate 1 (gamma 1, eta 0, unit running statistics) keeps exactly the input
    features that are on: 83 for one cluster of five inputs, 103 for the
    other.  Gates 2 and 3 ignore their input (gamma 0) and keep the units
    whose eta is 0.5; eta 0 clamps to eps, and E[pi] * eps = 9e-4 lies below
    the 1e-3 prune threshold.
    """
    net = build_lenet_500_300()
    net.set_gate_mode(MODE_DBB)
    first, *hidden = net.gates()
    for g in net.gates():
        g.run_mean, g.run_std = np.zeros(g.k), np.ones(g.k)
    first.gamma.value = np.ones(first.k)
    first.eta.value = np.zeros(first.k)
    for g, kept in zip(hidden, (35, 25)):
        g.gamma.value = np.zeros(g.k)
        g.eta.value = np.where(np.arange(g.k) < kept, 0.5, 0.0)
    x = np.zeros((10, first.k))
    x[:5, :83] = 1.0
    x[5:, :103] = 1.0
    return net, Dataset(x, np.repeat([0, 1], 5))


@pytest.mark.parametrize(
    "kind,counts,xflops,memory",
    [
        ("static", (137, 90, 37), 33.81, 2.97),
        ("static", (288, 114, 65), 13.38, 7.48),
        ("runtime", (93, 35, 25), 47.07, 2.22),
    ],
    ids=["bb-137-90-37", "bb-288-114-65", "dbb-93-35-25"],
)
def test_criterion_1_accounting(kind, counts, xflops, memory):
    # Dense MACs and weights are both sum(in*out), so every statically pruned
    # LeNet-500-300 has speedup * memory% == 100.  The BB rows list static
    # widths and must reproduce both published figures within 2%.  The DBB
    # row lists per-input running averages; its 47.07x/2.22% (product 104.5)
    # fits no static widths, and the paper's abstract does not say what those
    # figures measure.  That row checks what its counts fix instead: a DBB
    # network averaging 93-35-25 kept units runs 4,380 of 545,000 MACs per
    # input (124.43x), and those widths hold 0.8037% of the weights.  Any
    # network with these averages is at least that wide, so the published
    # figures must lie within these bounds.
    label = "-".join(map(str, counts))
    if kind == "static":
        desc = f"static widths {label} reproduce {xflops}x/{memory}%"
    else:
        desc = f"runtime averages {label} give 124.43x/0.80%, bounding {xflops}x/{memory}%"
    with criterion(1, desc):
        net = build_lenet_500_300()
        _, pruned, speedup = count_flops(net, counts)
        mem = count_memory(net, counts)
        assert speedup * mem == pytest.approx(100.0, rel=1e-12)
        if kind == "static":
            assert abs(speedup - xflops) / xflops < 0.02, f"speedup {speedup:.2f} vs {xflops}"
            assert abs(mem - memory) / memory < 0.02, f"memory {mem:.2f} vs {memory}"
        else:
            dbb_net, inputs = _dbb_runtime_fixture()
            stats = runtime_prune_stats(dbb_net, inputs)
            assert np.array_equal(stats.mean_kept, counts), stats.mean_kept
            assert stats.static_flops == 545_000
            assert stats.mean_flops == 4380
            assert stats.static_flops / stats.mean_flops == pytest.approx(124.43, abs=5e-3)
            assert pruned == 93 * 35 + 35 * 25 + 25 * 10 == 4380
            assert speedup == pytest.approx(124.43, abs=5e-3)
            assert mem == pytest.approx(0.8037, abs=5e-5)
            assert xflops <= speedup and memory >= mem
            # off the static line: no speedup/memory pair within 2% of the
            # published figures has product 100
            product = xflops * memory
            assert not 0.98**2 * product <= 100.0 <= 1.02**2 * product, product


# -------------------------------------------------------------------------
# 2. closed-form KL against a 1e6-sample Monte-Carlo oracle
# -------------------------------------------------------------------------


def test_criterion_2_kl_oracle():
    with criterion(2, "closed-form KL matches 1e6-sample Monte Carlo on 20 triples"):
        for ak in (1e-4, 1e-2, 1.0):
            assert abs(d.kl_kumaraswamy_beta(ak, 1.0, ak)) < 1e-9
        rng = d.make_rng(20260810)
        for trial in range(20):
            a = rng.uniform(0.3, 8.0)
            b = rng.uniform(0.3, 8.0)
            ak = 10.0 ** rng.uniform(-4, 0)
            closed = d.kl_kumaraswamy_beta(a, b, ak)
            u = d.open_unit_uniform(d.make_rng(3000 + trial), 1_000_000)
            pi = np.clip(d.kumaraswamy_sample(u, a, b), 1e-300, 1.0 - 1e-16)
            diff = kumaraswamy_log_pdf(pi, a, b) - (
                np.log(ak) + (ak - 1.0) * np.log(pi)
            )
            se = diff.std() / np.sqrt(diff.size)
            assert abs(closed - diff.mean()) < 3.0 * se, f"triple {trial}"


# -------------------------------------------------------------------------
# 3. Kumaraswamy suite: mean vs quadrature, sampler KS, pdf normalization
# -------------------------------------------------------------------------


def test_criterion_3_kumaraswamy_suite():
    with criterion(3, "Kumaraswamy mean/quadrature, KS < 0.01, pdf normalizes"):
        grid = [0.5, 1.0, 2.0, 5.0]
        for a in grid:
            for b in grid:
                oracle, _ = integrate.quad(
                    lambda x: x * np.exp(kumaraswamy_log_pdf(x, a, b)),
                    0.0, 1.0, points=[0.0, 1.0], limit=200,
                )
                rel = abs(d.kumaraswamy_mean(a, b) - oracle) / oracle
                assert rel < 1e-6, f"mean ({a},{b})"
                t = np.linspace(1e-6, 1 - 1e-6, 10_000)
                x = 0.5 * (1.0 - np.cos(np.pi * t))
                dx = 0.5 * np.pi * np.sin(np.pi * t)
                total = np.trapezoid(np.exp(kumaraswamy_log_pdf(x, a, b)) * dx, t)
                assert abs(total - 1.0) < 1e-4, f"pdf ({a},{b})"
        a, b = 2.0, 3.0
        samples = np.sort(
            d.kumaraswamy_sample(d.open_unit_uniform(d.make_rng(42), 100_000), a, b)
        )
        cdf = 1.0 - (1.0 - samples**a) ** b
        n = samples.size
        ks = max(
            np.abs(np.arange(1, n + 1) / n - cdf).max(),
            np.abs(np.arange(n) / n - cdf).max(),
        )
        assert ks < 0.01


# -------------------------------------------------------------------------
# 4. concrete relaxation exceedance probabilities
# -------------------------------------------------------------------------


def test_criterion_4_concrete_relaxation():
    with criterion(4, "P(z > 1/2) = pi within 99% CI for all (pi, tau) pairs"):
        n = 100_000
        for tau in (0.1, 1.0):
            for pi in (0.1, 0.5, 0.9):
                u = d.open_unit_uniform(d.make_rng(int(1000 * pi + 10 * tau)), n)
                z = d.concrete_bernoulli_sample(pi, tau, u)
                phat = (z > 0.5).mean()
                assert abs(phat - pi) <= 2.576 * np.sqrt(pi * (1 - pi) / n), (pi, tau)


# -------------------------------------------------------------------------
# 5. gradient suite: ops and the full BB/DBB minibatch losses
# -------------------------------------------------------------------------


def test_criterion_5_gradient_suite():
    with criterion(5, "ops + full BB/DBB losses match finite differences (<1e-4)"):
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.uniform(0.3, 2.0, size=6))
        gradcheck(lambda: sum_all(ad.relu(x)), [x])
        y = ad.parameter(rng.uniform(0.3, 2.0, size=6))
        for op in (ad.add, ad.mul):
            gradcheck(lambda: sum_all(op(x, y)), [x, y])
        # the fused gate ops: Kumaraswamy sample, concrete mask, beta draw,
        # DBB keep probabilities and the two KL terms
        for name in FUSED_GATES:
            build, _, leaves = fused_gate_case(name, rng)
            gradcheck(gate_case_loss(build, rng), leaves)
        a = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.normal(size=(3, 2)))
        gradcheck(lambda: sum_all(ad.matmul(a, b)), [a, b])
        # conv activations are batch-innermost (C, H, W, B)
        cx = ad.parameter(rng.normal(size=(2, 2, 6, 6)).transpose(1, 2, 3, 0))
        cw = ad.parameter(rng.normal(size=(3, 2, 3, 3)))
        cb = ad.parameter(rng.normal(size=3))
        gradcheck(lambda: sum_all(ad.conv2d(cx, cw, cb)), [cx, cw, cb])
        gradcheck(lambda: sum_all(ad.maxpool2x2(cx)), [cx])
        gradcheck(lambda: sum_all(ad.global_avg_pool(cx)), [cx])
        logits = ad.parameter(rng.normal(size=(3, 4)))
        gradcheck(lambda: ad.softmax_cross_entropy(logits, [0, 3, 1]), [logits])

        data_x = rng.normal(size=(4, 6))
        data_y = np.array([0, 1, 2, 0])
        for mode, seed in (("bb", 1), ("dbb", 2)):
            net = build_mlp((6, 5, 3), seed=seed)
            interior_gates(net, d.make_rng(seed + 90), mode)
            cfg = TrainConfig(weight_decay=1e-3, kl_scale=2.0, tau=0.8,
                              per_layer_kl_multipliers=(2.0, 1.0))
            params = net.parameters() + net.variational_parameters()

            def loss():
                out, _ = elbo_loss(net, (data_x, data_y), 40, cfg, d.make_rng(33))
                return out

            gradcheck(loss, params, rtol=1e-4, atol=1e-7)


# -------------------------------------------------------------------------
# 6. planted sparsity recovered by stage-1 fine-tuning
# -------------------------------------------------------------------------


def test_criterion_6_planted_sparsity(planted_bb):
    with criterion(6, "BB fine-tune prunes the 16 noise features, keeps the 4 signals (>=2/3 seeds)"):
        successes = 0
        for seed in (0, 1, 2):
            ds, net = planted_bb(seed)
            sig = np.array(ds.meta["signal_idx"])
            noise = np.setdiff1d(np.arange(20), sig)
            e_pi = net.gates()[0].expected_pi()
            if (e_pi[noise] < 1e-3).all() and (e_pi[sig] >= 1e-3).all():
                successes += 1
        assert successes >= 2, f"only {successes}/3 seeds recovered the planted support"


# -------------------------------------------------------------------------
# 7 & 11. two-stage pipeline: dominance and gate correlation structure
# -------------------------------------------------------------------------


def test_criterion_7_two_stage_dominance(two_stage):
    with criterion(7, "per-input kept sets within stage-1 sets; runtime FLOPs <= static (exact)"):
        _, test, stage1, stage2 = two_stage
        threshold = 1e-3
        stats = runtime_prune_stats(stage2, test, threshold)
        # stage-1 keep decision re-evaluated on the frozen posterior
        _, masks = forward_eval(stage2, test.images, return_masks=True)
        for g, mask in zip(stage2.gates(), masks):
            e_pi = g.expected_pi()
            static_kept = e_pi >= threshold
            per_input = mask >= threshold
            assert (per_input <= static_kept[None, :]).all()
            assert (mask <= (1 - g.eps) * e_pi[None, :] + 1e-15).all()
        assert stats.mean_flops <= stats.static_flops
        assert (stats.flops_per_input <= stats.static_flops).all()


def test_criterion_11_correlation_structure(two_stage):
    with criterion(11, "within-class gate correlation exceeds cross-class at the last gated layer"):
        _, test, _, stage2 = two_stage
        masks = gate_masks(stage2, test.images)
        within, cross = within_cross_gate_correlation(masks[-1], test.labels)
        assert within > cross, f"within {within:.3f} vs cross {cross:.3f}"
        off_diag = class_average_gate_correlation(masks, test.labels)[-1][0, 1]
        assert off_diag < 1.0


# -------------------------------------------------------------------------
# 8. desk-scale real-data pipeline
# -------------------------------------------------------------------------


MNIST_NAMES = (
    ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
)


def _find_mnist():
    root = os.environ.get("BETADROP_MNIST_DIR", os.path.join("data", "mnist"))
    for img, lab in MNIST_NAMES:
        ip, lp = os.path.join(root, img), os.path.join(root, lab)
        if os.path.exists(ip) and os.path.exists(lp):
            return ip, lp
    return None


def _desk_scale_run(train, test, dims, pretrain_epochs, finetune_epochs, lr_v, seed=0):
    """Shared pipeline: pretrain once, sweep kl_scale, return the BB reports."""
    base = build_mlp(dims, seed=seed)
    cfg = TrainConfig(batch_size=100, lr_variational=lr_v, seed=seed)
    pretrain(base, train, cfg, epochs=pretrain_epochs)
    return [
        run_stages(copy.deepcopy(base), train, test,
                   replace(cfg, kl_scale=scale, seed=derive_seed(seed, i)), finetune_epochs).report
        for i, scale in enumerate((1.0, 2.0, 4.0, 6.0, 8.0))
    ]


def _check_desk_scale(rows):
    scale1 = rows[0]
    assert scale1.error_pct <= 2.5, f"pruned error {scale1.error_pct:.2f}% exceeds 2.5%"
    assert scale1.speedup >= 2.0, f"speedup {scale1.speedup:.2f} below 2x"
    speedups = [r.speedup for r in rows]
    inversions = sum(1 for a, b in zip(speedups, speedups[1:]) if b < a)
    assert inversions <= 1, f"speedups {speedups} invert more than once"


def test_criterion_8_mnist_desk_scale():
    desc = "MNIST 10k LeNet-500-300: error <= 2.5%, speedup >= 2x, monotone sweep"
    with criterion(8, desc):
        paths = _find_mnist()
        if paths is None:
            pytest.skip(
                "MNIST IDX files not found (no network in this environment); "
                "set BETADROP_MNIST_DIR or place the train pair under data/mnist/ "
                "to run this criterion"
            )
        full = load_idx(*paths)
        perm = d.make_rng(0).permutation(len(full))
        train = full.subset(perm[:10_000])
        test = full.subset(perm[10_000:12_000])
        rows = _desk_scale_run(
            train, test, (784, 500, 300, 10),
            pretrain_epochs=20, finetune_epochs=30, lr_v=0.01,
        )
        _check_desk_scale(rows)


def test_criterion_8a_digits_desk_scale():
    desc = "bundled-digits analogue: error <= 2.5%, speedup >= 2x, monotone sweep"
    with criterion("8a", desc):
        sklearn = pytest.importorskip("sklearn.datasets")
        raw = sklearn.load_digits()
        ds = Dataset(
            raw.images.reshape(len(raw.target), -1) / 16.0,
            raw.target.astype(np.int64),
        )
        train, test = ds.split(0.2, seed=0)
        rows = _desk_scale_run(
            train, test, (64, 500, 300, 10),
            pretrain_epochs=20, finetune_epochs=30, lr_v=0.04,
        )
        _check_desk_scale(rows)


# -------------------------------------------------------------------------
# 9. shrink equivalence on both builders
# -------------------------------------------------------------------------


def test_criterion_9_shrink_equivalence():
    with criterion(9, "shrunk logits equal masked logits within 1e-9 on both builders"):
        rng = d.make_rng(99)
        for build, in_shape in (
            (build_lenet_500_300, (784,)),
            (build_lenet5_caffe, (1, 28, 28)),
        ):
            net = build(seed=4)
            for g in net.gates():
                g.a_raw.value = g.a_raw.value + rng.normal(0, 0.4, g.k)
            keeps = [
                np.sort(rng.choice(g.k, size=max(1, g.k // 3), replace=False))
                for g in net.gates()
            ]
            small = shrink(net, keeps)
            x = rng.random((100, *in_shape))
            ref = keep_set_forward(net, x, keeps)
            got = forward_eval(small, x)
            assert np.abs(got - ref).max() < 1e-9, build.__name__
            # same predictions, exactly
            assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1))


# -------------------------------------------------------------------------
# 10. determinism and persistence
# -------------------------------------------------------------------------


def test_criterion_10_determinism_and_persistence(tmp_path):
    with criterion(10, "bit-identical loss sequences; checkpoint round trip bit-exact"):
        ds = synthetic_planted_sparsity(400, 10, 3, seed=0)
        seqs = []
        nets = []
        for _ in range(2):
            net = build_mlp((10, 8, 2), seed=6)
            cfg = TrainConfig(batch_size=50, lr_variational=0.02, seed=6)
            losses = pretrain(net, ds, cfg, epochs=2)
            losses += finetune_bb(net, ds, cfg, epochs=3)
            seqs.append(losses)
            nets.append(net)
        assert seqs[0] == seqs[1]
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(nets[0], p1)
        loaded = load_checkpoint(p1)
        x = ds.images[:16]
        assert np.array_equal(forward_eval(nets[0], x), forward_eval(loaded, x))
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
