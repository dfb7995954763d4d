"""Shared test utilities: finite-difference and complex-step gradient
oracles, assertions, and checkpoint manifest edits."""

import json

import numpy as np
from scipy import special

from betadrop import autodiff as ad
from betadrop import gates
from betadrop.distributions import (
    EULER_GAMMA,
    KUMARASWAMY_BASE_FLOOR,
    LOGIT_EPS,
    make_rng,
    open_unit_uniform,
)


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
    gate = gates.GateState.create(k, mode=gates.MODE_DBB)
    gate.a_raw.value = rng.normal(1.0, scale, k)
    gate.b_raw.value = rng.normal(0.5, scale, k)
    gate.gamma.value = rng.normal(0.2, 0.1, k)
    gate.eta.value = rng.normal(0.4, 0.1 * scale, k)
    gate.kappa_raw.value = rng.normal(-2.0, scale, k)
    seed = int(rng.integers(2**31))
    if name == "sample_pi":
        if boundary:
            gate.b_raw.value[0] = 1e20
        u = open_unit_uniform(make_rng(seed), k)
        return (lambda: gates.sample_pi_node(gate, make_rng(seed)),
                lambda a_raw, b_raw: ref_sample_pi(u, a_raw, b_raw),
                [gate.a_raw, gate.b_raw])
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
                lambda *v: ref_dbb_phi(*v, gate.eps, gate.sigma_floor),
                [x, pi, gate.gamma, beta])
    if name == "kl_bb":
        if boundary:
            gate.b_raw.value[0] = 1e20
        return (lambda: gates.kl_bb_node(gate),
                lambda a_raw, b_raw: ref_kl_bb(a_raw, b_raw, gate.alpha_over_k),
                [gate.a_raw, gate.b_raw])
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
        lambda m: m["arrays"][0].update(shape="4x3"),
        "shape of 'L0.w' must be a list, got '4x3'",
    ),
    "payload-len-string": (
        lambda m: m.update(payload_len="abc"),
        "payload_len must be a non-negative integer, got 'abc'",
    ),
    "offset-null": (
        lambda m: m["arrays"][1].update(offset=None),
        "offset of 'L0.b' must be a non-negative integer, got None",
    ),
    "layers-number": (
        lambda m: m.update(layers=5),
        "layers must be a list, got 5",
    ),
    "kind-number": (
        lambda m: m["layers"][0].update(kind=5),
        "kind of layer 0 must be one of ('dense', 'conv'), got 5",
    ),
    # the fixtures are dense nets: this turns layer 0 into a conv entry
    "conv-gate-string": (
        lambda m: (m["layers"][0].pop("input_select"), m["layers"][0].update(kind="conv"),
                   m["layers"][0]["gate"].update(momentum="fast")),
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
    "gates-enabled-string": (
        lambda m: m.update(gates_enabled="no"),
        "gates_enabled must be true or false, got 'no'",
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


def edit_manifest(path, edit) -> None:
    """Rewrite a checkpoint's manifest line in place; the payload is untouched."""
    blob = path.read_bytes()
    nl = blob.index(b"\n")
    manifest = json.loads(blob[:nl])
    edit(manifest)
    path.write_bytes(json.dumps(manifest, separators=(",", ":")).encode() + blob[nl:])
