"""Shared test utilities: finite-difference gradient oracles and assertions."""

import numpy as np

from betadrop import autodiff as ad


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


def conv2d_oracle(x, w, stride=1, padding=0):
    """Direct six-nested-loop cross-correlation for (C,H,W) x (O,C,k,k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    xp = np.zeros((c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, padding : padding + h, padding : padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for y in range(ho):
            for xx in range(wo):
                acc = 0.0
                for c in range(c_in):
                    for i in range(k):
                        for j in range(k):
                            acc += xp[c, y * stride + i, xx * stride + j] * w[o, c, i, j]
                out[o, y, xx] = acc
    return out


def conv2d_grad_oracle(x, w, g, stride=1, padding=0):
    """Nested-loop (dx, dw) of sum(g * conv2d(x, w)) for (B,C,H,W) x (O,C,k,k)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    _, _, ho, wo = g.shape
    xp = np.zeros((bsz, c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(bsz):
        for o in range(c_out):
            for y in range(ho):
                for xx in range(wo):
                    go = g[b, o, y, xx]
                    for c in range(c_in):
                        for i in range(k):
                            for j in range(k):
                                r, s = y * stride + i, xx * stride + j
                                dw[o, c, i, j] += go * xp[b, c, r, s]
                                dxp[b, c, r, s] += go * w[o, c, i, j]
    return dxp[:, :, padding : padding + h, padding : padding + wd], dw


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
