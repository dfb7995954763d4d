"""Shared test utilities: finite-difference and complex-step gradient
oracles, the Kumaraswamy density, a per-pair Pearson correlation, assertions,
IDX writing, and checkpoint manifest edits."""

import json
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from betadrop import autodiff as ad
from betadrop import gates, layers
from betadrop.checkpoint import save_checkpoint
from betadrop.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from betadrop.distributions import (
    EULER_GAMMA,
    KUMARASWAMY_BASE_FLOOR,
    LOGIT_EPS,
    make_rng,
    open_unit_uniform,
)
from betadrop.errors import DomainError


def numeric_grad(f, node, h=1e-5):
    """Central finite differences of scalar-valued f() w.r.t. node.value."""
    flat = node.value.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f())
        flat[i] = orig - h
        fm = float(f())
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(node.value.shape)


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7, label=""):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    bad = err > atol + rtol * denom
    assert not bad.any(), (
        f"{label}: {bad.sum()} of {bad.size} gradient entries disagree; "
        f"worst abs err {err.max():.3e}, rel "
        f"{(err / np.maximum(denom, 1e-300)).max():.3e}"
    )


def sum_all(a):
    """Scalar node holding the sum of every entry of ``a``: the objective the
    op tests differentiate."""
    return ad.fused(np.float64(a.value.sum()), (a,), lambda g: [np.full(a.value.shape, g)])


@contextmanager
def share_workers(n):
    """Within the block, every op that runs shares (the tiled evaluation pass,
    and the conv, pooling, large-product and Adam shares of a training step)
    runs them on a pool of ``n`` threads, whatever the number of CPUs.  Yields
    a list that gets one entry per call that ran shares."""
    asks = []
    with ThreadPoolExecutor(n) as pool, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_share_pool", lambda pid: asks.append(pid) or pool)
        yield asks


def forced_mask_forward(net, x, masks):
    """Logits node of the training layer walk with gate ``k``'s mask fixed
    to ``masks[k]`` ((K,) or (B, K)) instead of sampled: no noise, no KL."""

    def forced(k, gate, bsz, gate_input):
        return ad.constant(np.broadcast_to(np.asarray(masks[k], dtype=np.float64), (bsz, gate.k)))

    return layers._walk(net, x, forced, layers._graph_conv)


def keep_set_forward(net, x, keep_sets):
    """Evaluation logits with gate ``k``'s expected mask zeroed outside
    ``keep_sets[k]``: the reference that :func:`betadrop.layers.shrink`
    must reproduce."""

    def kept_mask(k, gate, bsz, gate_input):
        mask = gate.expected_mask(gate_input().value if gate.mode == gates.MODE_DBB else None)
        kept = np.zeros_like(mask)
        sel = (Ellipsis, np.asarray(keep_sets[k], dtype=np.intp))
        kept[sel] = mask[sel]
        return ad.constant(np.broadcast_to(kept, (bsz, gate.k)))

    with ad.no_grad():
        return layers._walk(net, x, kept_mask, layers._graph_conv).value


def pearson_oracle(rows, i, j):
    """The Pearson correlation of rows i and j of ``rows``, one pair at a time,
    or None when either row's entries are all equal."""
    if not (rows[i].max() > rows[i].min() and rows[j].max() > rows[j].min()):
        return None
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    return float(centered[i] @ centered[j] / (norms[i] * norms[j]))


def interior_gates(net, rng, mode):
    """Enable ``net``'s gates in ``mode`` and move their arrays off the
    symmetric init, so clamp and relu kinks stay away from finite-difference
    steps.  Each gate draws five arrays from ``rng`` in either mode.  The
    raws move before the gates enter ``mode``, as a DBB gate's are frozen."""
    draws = [[rng.normal(mean, spread, g.k) for mean, spread in
              ((0, 0.3), (0, 0.3), (0.6, 0.1), (0.3, 0.05), (0, 0.1))] for g in net.gates()]
    for g, (a, b, *_) in zip(net.gates(), draws):
        g.a_raw.value = g.a_raw.value + a
        g.b_raw.value = g.b_raw.value + b
    net.set_gate_mode(mode)
    for g, (_, _, gamma, eta, kappa) in zip(net.gates(), draws):
        if g.mode == gates.MODE_DBB:
            g.gamma.value, g.eta.value = gamma, eta
            g.kappa_raw.value = g.kappa_raw.value + kappa
    return net


def gradcheck(build_loss, params, h=1e-5, rtol=1e-4, atol=1e-7):
    """Check backward() gradients of every param against central differences.

    ``build_loss`` must rebuild the graph from the params' current values and
    return the scalar loss node (any sampling inside must be frozen).
    """
    loss = build_loss()
    ad.zero_gradients(params)
    ad.backward(loss)
    analytic = [p.grad.copy() for p in params]
    for p, g in zip(params, analytic):
        num = numeric_grad(lambda: build_loss().value, p, h=h)
        assert_grads_close(g, num, rtol=rtol, atol=atol, label=f"param {p.shape}")


def complex_step_grads(f, leaves, h=1e-30):
    """Gradient of the real scalar ``f(*leaves)`` with respect to each leaf.

    Complex step: df/dx_j = Im f(x + i h e_j) / h, which has no subtraction
    and so is exact to rounding when ``f`` is analytic along the step.  The
    reference formulas below keep that property: clamps and floors compare
    real parts and return a constant at and beyond the bound.
    """
    leaves = [np.asarray(x, dtype=np.float64) for x in leaves]
    grads = []
    for i, x in enumerate(leaves):
        grad = np.empty(x.shape)
        for j in np.ndindex(x.shape):
            z = [np.asarray(leaf, dtype=complex) for leaf in leaves]
            z[i][j] += 1j * h
            grad[j] = np.imag(f(*z)) / h
        grads.append(grad)
    return grads


def _clamp(x, lo, hi):
    return np.where(x.real <= lo, lo, np.where(x.real >= hi, hi, x))


def _softplus(x):
    pos = x.real > 0
    return np.where(pos, x, 0.0) + np.log1p(np.exp(np.where(pos, -x, x)))


def _sigmoid(x):
    pos = x.real > 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def ref_sample_pi(u, a_raw, b_raw):
    """Kumaraswamy sample (1 - u^(1/b))^(1/a), base floored, a and b softplus'd."""
    base = 1.0 - u ** (1.0 / _softplus(b_raw))
    base = np.where(base.real <= KUMARASWAMY_BASE_FLOOR, KUMARASWAMY_BASE_FLOOR, base)
    return base ** (1.0 / _softplus(a_raw))


def ref_concrete_mask(probs, u, tau, logit_eps):
    """sigmoid((logit clamp(probs) + logit u) / tau)."""
    p = _clamp(probs, logit_eps, 1.0 - logit_eps)
    return _sigmoid((np.log(p) - np.log(1.0 - p) + np.log(u) - np.log(1.0 - u)) / tau)


def ref_beta_sample(noise, eta, kappa_raw):
    return eta + _softplus(kappa_raw) * noise


def ref_dbb_phi(x, pi, gamma, beta, eps, sigma_floor):
    """pi * clamp(gamma * (x - mean) / max(std, floor) + beta, eps, 1 - eps)."""
    centered = x - x.mean(axis=0)
    sigma = np.sqrt((centered * centered).mean(axis=0) + 1e-12)
    sigma = np.where(sigma.real <= sigma_floor, sigma_floor, sigma)
    return _clamp(gamma * centered / sigma + beta, eps, 1.0 - eps) * pi


def ref_kl_bb(a_raw, b_raw, alpha_over_k):
    a, b = _softplus(a_raw), _softplus(b_raw)
    term1 = (a - alpha_over_k) / a * -(EULER_GAMMA + special.digamma(b) + 1.0 / b)
    return np.sum(term1 + np.log(a) + np.log(b) - np.log(alpha_over_k) + 1.0 / b - 1.0)


def ref_kl_beta_gaussian(eta, kappa_raw, rho_var):
    kappa_sq = _softplus(kappa_raw) ** 2
    return np.sum(0.5 * (-np.log(kappa_sq) + (kappa_sq + eta * eta) / rho_var
                         + np.log(rho_var) - 1.0))


# The fused gate builders, one case per shape they take.
FUSED_GATES = (
    "sample_pi",
    "concrete_mask_shared",
    "concrete_mask_per_example",
    "beta_sample",
    "dbb_phi",
    "kl_bb",
    "kl_beta_gaussian",
)


def fused_gate_case(name, rng, scale=1.0, boundary=False, k=5, bsz=4):
    """One fused gate builder on random in-domain inputs.

    Returns ``(build, ref, leaves)``: ``build()`` makes the builder's node
    from the current values of the parameter nodes ``leaves``, with any
    sampling frozen, and ``ref(*leaf_values)`` is its reference formula from
    this module.  Raw gate parameters are normal with spread ``scale``.
    With ``boundary`` the inputs also reach every clamp: a Kumaraswamy ``b``
    of 1e20 (the base floor fires), probabilities at and beyond the logit
    bounds, gate factors clamped at both ``eps`` and ``1 - eps``, and a
    constant gate-input column (the standard-deviation floor fires).
    """
    # Built by hand with every array a parameter, so each builder's whole
    # gradient is checked.  The raws' builders run on a BB gate: a DBB gate
    # makes its raws read-only, so it holds constant copies, as the
    # program's DBB gates hold constant raws.
    bb = gates.GateState(ad.parameter(rng.normal(1.0, scale, k)),
                         ad.parameter(rng.normal(0.5, scale, k)))
    gate = gates.GateState(
        ad.constant(bb.a_raw.value.copy()), ad.constant(bb.b_raw.value.copy()),
        gamma=ad.parameter(rng.normal(0.2, 0.1, k)),
        eta=ad.parameter(rng.normal(0.4, 0.1 * scale, k)),
        kappa_raw=ad.parameter(rng.normal(-2.0, scale, k)),
    )
    seed = int(rng.integers(2**31))
    if name == "sample_pi":
        if boundary:
            bb.b_raw.value[0] = 1e20
        u = open_unit_uniform(make_rng(seed), k)
        return (lambda: gates.sample_pi_node(bb, make_rng(seed)),
                lambda a_raw, b_raw: ref_sample_pi(u, a_raw, b_raw),
                [bb.a_raw, bb.b_raw])
    if name.startswith("concrete_mask"):
        shape = (k,) if name.endswith("shared") else (bsz, k)
        probs = rng.uniform(0.05, 0.95, shape)
        if boundary:
            probs.reshape(-1)[:4] = (1e-9, LOGIT_EPS, 1.0 - LOGIT_EPS, 1.0 - 1e-9)
        probs = ad.parameter(probs)
        u = open_unit_uniform(make_rng(seed), (bsz, k))
        return (lambda: gates.concrete_mask_node(probs, u, 0.7),
                lambda p: ref_concrete_mask(p, u, 0.7, LOGIT_EPS),
                [probs])
    if name == "beta_sample":
        noise = make_rng(seed).standard_normal(k)
        return (lambda: gates.beta_sample_node(gate, make_rng(seed)),
                lambda eta, kappa_raw: ref_beta_sample(noise, eta, kappa_raw),
                [gate.eta, gate.kappa_raw])
    if name == "dbb_phi":
        x = rng.normal(0.0, scale, (bsz, k))
        pi = rng.uniform(0.1, 0.9, k)
        beta = rng.normal(0.5, 0.1, k)
        if boundary:
            x[:, 0] = 1.5
            beta[1:3] = (-2.0, 3.0)
        x, pi, beta = ad.parameter(x), ad.parameter(pi), ad.parameter(beta)
        return (lambda: gates.dbb_phi_node(gate, x, pi, beta),
                lambda *v: ref_dbb_phi(*v, gate.eps, gates.SIGMA_FLOOR),
                [x, pi, gate.gamma, beta])
    if name == "kl_bb":  # a DBB gate's KL is a stored constant
        if boundary:
            bb.b_raw.value[0] = 1e20
        return (lambda: gates.kl_bb_node(bb),
                lambda a_raw, b_raw: ref_kl_bb(a_raw, b_raw, bb.alpha_over_k),
                [bb.a_raw, bb.b_raw])
    rho_var = float(np.sqrt(5.0))
    return (lambda: gates.kl_beta_gaussian_node(gate, rho_var),
            lambda eta, kappa_raw: ref_kl_beta_gaussian(eta, kappa_raw, rho_var),
            [gate.eta, gate.kappa_raw])


def gate_case_loss(build, rng):
    """``build`` and a loss builder sum(c * node) with fixed random weights c."""
    coeffs = ad.constant(rng.normal(size=build().shape))
    return lambda: sum_all(ad.mul(build(), coeffs))


def conv2d_oracle(x, w):
    """Direct six-nested-loop unpadded stride-1 cross-correlation for (C,H,W) x (O,C,k,k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    ho, wo = h - k + 1, wd - k + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for y in range(ho):
            for xx in range(wo):
                acc = 0.0
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            acc += x[c, y + i, xx + j] * w[o, c, i, j]
                out[o, y, xx] = acc
    return out


def conv2d_grad_oracle(x, w, g):
    """Nested-loop (dx, dw) of sum(g * conv2d(x, w)) for (B,C,H,W) x (O,C,k,k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    _, _, ho, wo = g.shape
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for b in range(bsz):
        for o in range(c_out):
            for y in range(ho):
                for xx in range(wo):
                    go = g[b, o, y, xx]
                    for c in range(c_in):
                        for i in range(k):
                            for j in range(k):
                                dw[o, c, i, j] += go * x[b, c, y + i, xx + j]
                                dx[b, c, y + i, xx + j] += go * w[o, c, i, j]
    return dx, dw


def maxpool2x2_oracle(x, g):
    """Loop (out, dx) of 2x2 stride-2 max pooling with upstream gradient g.

    Each window's first maximum in row-major order takes the output value and
    the whole gradient; a NaN counts as greater than any number.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(g.shape)
    dx = np.zeros_like(x)
    for idx in np.ndindex(*g.shape):
        *lead, r, c = idx
        best = None
        for i in range(2):
            for j in range(2):
                pos = (*lead, 2 * r + i, 2 * c + j)
                if best is None or x[pos] > x[best] or (
                    np.isnan(x[pos]) and not np.isnan(x[best])
                ):
                    best = pos
        out[idx] = x[best]
        dx[best] = g[idx]
    return out, dx


def matmul_oracle(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


# One polyline per glyph class, in a [-1, 1]^2 frame with y up.
GLYPH_STROKES = (
    ((-0.6, 0.0), (0.6, 0.0)),  # bar
    ((0.0, -0.7), (0.0, 0.7)),  # post
    ((-0.5, -0.7), (0.5, 0.7)),  # slash
    ((-0.5, 0.6), (0.5, 0.6), (-0.5, -0.6), (0.5, -0.6)),  # Z
    ((-0.5, 0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, -0.5), (-0.5, 0.5)),  # box
)


def glyph_images(n, seed, side=28, stroke=0.08, noise=0.05):
    """``n`` seeded procedural side x side glyphs in [0, 1] and their labels.

    Each image draws its class's polyline from :data:`GLYPH_STROKES` through
    a random rotation, scale and shift, with a Gaussian stroke profile about
    one pixel wide, and adds Gaussian pixel noise.  Nothing is downloaded.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(GLYPH_STROKES), size=n)
    coords = (np.arange(side) - (side - 1) / 2.0) / (side / 2.0)
    px, py = np.meshgrid(coords, -coords)
    pix = np.stack([px.ravel(), py.ravel()], axis=1)  # (side*side, 2)
    images = np.empty((n, side * side))
    for m, cls in enumerate(labels):
        theta = rng.uniform(-0.3, 0.3)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        pts = np.asarray(GLYPH_STROKES[cls]) @ (rot * rng.uniform(0.8, 1.1)).T
        pts += rng.uniform(-0.15, 0.15, size=2)
        dist = np.full(len(pix), np.inf)
        for a, b in zip(pts[:-1], pts[1:]):
            t = np.clip((pix - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
            dist = np.minimum(dist, np.linalg.norm(pix - a - t[:, None] * (b - a), axis=1))
        images[m] = np.exp(-0.5 * (dist / stroke) ** 2)
    images += rng.normal(0.0, noise, size=images.shape)
    return np.clip(images, 0.0, 1.0).reshape(n, side, side), labels.astype(np.int64)


# Manifest edits that give a value of the wrong type, and the text that the
# CheckpointError must name.
WRONG_TYPED_MANIFESTS = {
    "shape-string": (
        lambda m: m["layers"][0].update(shape="4x3"),
        "shape of layer 0 must be a list, got '4x3'",
    ),
    "shape-entry-float": (
        lambda m: m["layers"][0].update(shape=[m["layers"][0]["shape"][0], 2.5]),
        "shape of layer 0 must be a non-negative integer, got 2.5",
    ),
    "shape-rank": (
        lambda m: m["layers"][0].update(shape=m["layers"][0]["shape"] + [1, 1]),
        "shape of layer 0 must hold 2 extents for a dense layer",
    ),
    "layers-number": (
        lambda m: m.update(layers=5),
        "layers must be a list, got 5",
    ),
    "kind-number": (
        lambda m: m["layers"][0].update(kind=5),
        "kind of layer 0 must be one of ('dense', 'conv'), got 5",
    ),
    # the fixtures are dense nets: layer 0 becomes a 1x1 conv with as many weights
    "conv-gate-string": (
        lambda m: m["layers"].__setitem__(0, {
            "kind": "conv", "shape": m["layers"][0]["shape"][::-1] + [1, 1],
            "gate": {**m["layers"][0]["gate"], "momentum": "fast"}}),
        "momentum of layer 0's gate must be a finite number, got 'fast'",
    ),
    "alpha-over-k-string": (
        lambda m: m["layers"][0]["gate"].update(alpha_over_k="x"),
        "alpha_over_k of layer 0's gate must be a finite number, got 'x'",
    ),
    "input-shape-string": (
        lambda m: m["meta"].update(input_shape="abcd"),
        "input_shape must be a list, got 'abcd'",
    ),
    # the meta fields that stages read
    "meta-list": (
        lambda m: m.update(meta=[]),
        "meta must be an object, got []",
    ),
    "flops-orig-string": (
        lambda m: m["meta"].update(flops_orig="x"),
        "flops_orig must be a finite number, got 'x'",
    ),
    "speedup-string": (
        lambda m: m["meta"].update(speedup="fast"),
        "speedup must be a finite number, got 'fast'",
    ),
    "memory-pct-nan": (
        lambda m: m["meta"].update(memory_pct=float("nan")),
        "memory_pct must be a finite number, got nan",
    ),
    "stage-number": (
        lambda m: m["meta"].update(stage=5),
        "stage must be a string, got 5",
    ),
    "arch-null": (
        lambda m: m["meta"].update(arch=None),
        "arch must be a string, got None",
    ),
}


def to_format_version_1(manifest) -> None:
    """Turn a manifest into its format-version-1 form, which also stored each
    layer's activation and each conv layer's pool, stride and padding."""
    manifest["format_version"] = 1
    for entry in manifest["layers"]:
        entry["activation"] = "relu"
        if entry["kind"] == "conv":
            entry.update(pool=True, stride=1, padding=0)
    manifest["layers"][-1]["activation"] = None


def to_format_version_2(manifest) -> None:
    """Turn a manifest into its format-version-2 form, which listed every
    array's name, shape and offset and the payload length instead of each
    layer's weight shape."""
    arrays, offset = [], 0
    for i, entry in enumerate(manifest["layers"]):
        shape = entry.pop("shape")
        named = [("w", shape), ("b", [shape[1] if entry["kind"] == "dense" else shape[0]])]
        if entry["gate"] is not None:
            named += [(f"gate.{name}", shape[:1]) for name in
                      ("a_raw", "b_raw", "gamma", "eta", "kappa_raw", "run_mean", "run_std")]
        for name, extents in named:
            arrays.append({"name": f"L{i}.{name}", "shape": extents, "offset": offset})
            offset += int(np.prod(extents))
    manifest.update(format_version=2, arrays=arrays, payload_len=offset)


def to_format_version_3(manifest) -> None:
    """Turn a DBB network's manifest into its format-version-3 form, whose
    gates also held a ``stats_initialized`` flag.  Format 3 stored seven
    arrays per gate, as format 6 does for a DBB gate, so the payload fits."""
    manifest["format_version"] = 3
    for entry in manifest["layers"]:
        if entry["gate"] is not None:
            entry["gate"]["stats_initialized"] = True


def to_format_version_4(manifest) -> None:
    """Turn a manifest into its format-version-4 form, whose gates also held a
    ``sigma_floor``.  Format 4 stored the payload as format 6 does."""
    manifest["format_version"] = 4
    for entry in manifest["layers"]:
        if entry["gate"] is not None:
            entry["gate"]["sigma_floor"] = 0.001


def to_format_version_5(manifest) -> None:
    """Give a manifest format version 5.  Format 5 also held a boolean switch
    saying whether the gates act, and stored the payload as format 6 does;
    the loader refuses the version before it reads any other key."""
    manifest["format_version"] = 5


def edit_manifest(path, edit) -> None:
    """Rewrite a checkpoint's manifest line in place; the payload is untouched."""
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    manifest = json.loads(blob[:nl])
    edit(manifest)
    path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + blob[nl:])


def _lenet5_reading(input_shape):
    """Write a lenet5_caffe checkpoint whose manifest states ``input_shape``."""
    def write(path):
        save_checkpoint(layers.build_lenet5_caffe(seed=0), path)
        edit_manifest(path, lambda m: m["meta"].update(input_shape=input_shape))
    return write


def _unbuilt(*kinds):
    """Write a checkpoint of layers that no Network accepts, for a [1, 6, 6]
    input: ``save_checkpoint`` reads only ``layers``, ``gate_mode`` and
    ``meta``.  A "conv" is 4 3x3 filters on 1 channel,
    giving 4 x 2 x 2 pooled values; a "dense<n>" maps n inputs to 2 outputs."""
    def write(path):
        stack = [layers.ConvLayer(np.ones((4, 1, 3, 3)), np.zeros(4)) if kind == "conv"
                 else layers.DenseLayer(np.ones((int(kind[5:]), 2)), np.zeros(2))
                 for kind in kinds]
        save_checkpoint(SimpleNamespace(layers=stack, gate_mode=None,
                                        meta={"input_shape": [1, 6, 6]}), path)
    return write


# Checkpoints whose layers do not fit together, each with the text that its
# CheckpointError must hold.  On a lenet5_caffe the two 5x5 convs each need
# an even output extent for the 2x2 pooling.
UNFIT_CHECKPOINTS = {
    "input-shape-empty": (_lenet5_reading([]), "input_shape must list one or more positive"),
    "input-shape-1x30x30": (_lenet5_reading([1, 30, 30]), "conv layer 1 outputs 9x9 maps"),
    "input-shape-1x29x29": (_lenet5_reading([1, 29, 29]), "conv layer 0 outputs 25x25 maps"),
    "input-shape-3x28x28": (_lenet5_reading([3, 28, 28]), "needs 3 input channels"),
    "input-shape-784": (_lenet5_reading([784]), "needs input_shape [C, H, W], got [784]"),
    "no-layers": (_unbuilt(), "then one or more dense layers, got []"),
    "conv-last": (_unbuilt("conv"), "then one or more dense layers, got ['conv']"),
    "dense-before-conv": (_unbuilt("dense36", "conv"), "got ['dense', 'conv']"),
    "dense-width": (_unbuilt("conv", "dense15"), "dense layer 1 has 15 rows for 16 inputs"),
}


def kumaraswamy_log_pdf(x, a, b):
    """log [ a b x^(a-1) (1 - x^a)^(b-1) ] for x in (0, 1): the Kumaraswamy
    density behind the quadrature and Monte Carlo oracles."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all((x > 0.0) & (x < 1.0)) and np.all(a > 0.0) and np.all(b > 0.0)):
        raise DomainError("x must lie in (0, 1) and a, b must be positive")
    xa = x**a
    return np.log(a) + np.log(b) + (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-xa)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write an IDX pair (images as uint8; float inputs in [0,1] are rescaled)."""
    images = np.asarray(images)
    if images.dtype != np.uint8:
        images = np.round(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
