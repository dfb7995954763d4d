"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are C-contiguous ``numpy`` float64 arrays ("tensors"); a :class:`Node`
wraps one tensor together with its gradient and the local backward rule that
links it to its parents.  Graphs are built eagerly by the op functions below
and differentiated with :func:`backward`.

Broadcasting is deliberately restricted: binary elementwise ops accept equal
shapes or a scalar (shape ``()``) against a tensor.  The few mixed-rank
products the models need are dedicated ops (`add_rowwise`, `mul_rowwise`,
`scale_channels`, `add_channel_bias`) so that shape errors stay loud.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .errors import ContractError, DimensionError

__all__ = [
    "Node",
    "as_tensor",
    "constant",
    "parameter",
    "backward",
    "zero_gradients",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "scale",
    "add_const",
    "power",
    "power_const",
    "log",
    "exp",
    "sqrt",
    "relu",
    "sigmoid",
    "softplus",
    "digamma",
    "clamp",
    "matmul",
    "sum_all",
    "mean_axis0",
    "add_rowwise",
    "mul_rowwise",
    "scale_channels",
    "add_channel_bias",
    "reshape",
    "gather_cols",
    "conv2d",
    "maxpool2x2",
    "global_avg_pool",
    "softmax_cross_entropy",
]


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (0-d stays 0-d)."""
    return np.asarray(x, dtype=np.float64, order="C")


class Node:
    """One value in the computation graph.

    ``value`` is immutable once consumed by a downstream op (trainers may
    rewrite leaf values between steps).  ``grad`` has the same shape as
    ``value`` and accumulates across :func:`backward` calls on leaves.
    """

    __array_ufunc__ = None  # keep numpy from capturing operator overloads
    __slots__ = ("value", "grad", "_parents", "_backward_fn")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    # Operator sugar; floats are wrapped as scalar constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        if isinstance(other, Node):
            return power(self, other)
        return power_const(self, float(other))

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self._parents})"


def constant(x) -> Node:
    """Leaf node that merely carries data (gradient is still recorded)."""
    return Node(x)


# Parameters and constants are both leaves; the distinction is who reads
# .grad afterwards.
parameter = constant


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(np.float64(x))


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Populate gradients of every node reachable from ``loss``.

    ``loss`` must be scalar.  Interior-node gradients are recomputed from
    scratch; leaf gradients accumulate across calls (callers zero them
    between optimization steps).
    """
    if loss.value.shape != ():
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.value.shape}"
        )
    order = _topo_order(loss)
    for node in order:
        if node._parents:
            node.grad = np.zeros_like(node.value)
    if loss._parents:
        loss.grad = np.ones_like(loss.value)
    else:
        loss.grad = loss.grad + 1.0
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def zero_gradients(nodes) -> None:
    for n in nodes:
        n.zero_grad()


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _binary_shapes(a: Node, b: Node, opname: str):
    """Return (shape, a_is_scalar, b_is_scalar) under restricted broadcasting."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return sa, False, False
    if sa == ():
        return sb, True, False
    if sb == ():
        return sa, False, True
    raise DimensionError(f"{opname}: incompatible shapes {sa} and {sb}")


def _reduce_to(grad: np.ndarray, scalar: bool) -> np.ndarray:
    return np.asarray(grad.sum()) if scalar else grad


def add(a: Node, b: Node) -> Node:
    _, asc, bsc = _binary_shapes(a, b, "add")
    out = Node(a.value + b.value, (a, b))

    def bw(g):
        a.grad += _reduce_to(g, asc)
        b.grad += _reduce_to(g, bsc)

    out._backward_fn = bw
    return out


def sub(a: Node, b: Node) -> Node:
    _, asc, bsc = _binary_shapes(a, b, "sub")
    out = Node(a.value - b.value, (a, b))

    def bw(g):
        a.grad += _reduce_to(g, asc)
        b.grad -= _reduce_to(g, bsc)

    out._backward_fn = bw
    return out


def mul(a: Node, b: Node) -> Node:
    _, asc, bsc = _binary_shapes(a, b, "mul")
    out = Node(a.value * b.value, (a, b))

    def bw(g):
        a.grad += _reduce_to(g * b.value, asc)
        b.grad += _reduce_to(g * a.value, bsc)

    out._backward_fn = bw
    return out


def div(a: Node, b: Node) -> Node:
    _, asc, bsc = _binary_shapes(a, b, "div")
    out = Node(a.value / b.value, (a, b))

    def bw(g):
        a.grad += _reduce_to(g / b.value, asc)
        b.grad -= _reduce_to(g * a.value / (b.value * b.value), bsc)

    out._backward_fn = bw
    return out


def neg(a: Node) -> Node:
    return scale(a, -1.0)


def scale(a: Node, c: float) -> Node:
    """Multiply by a python float (no node is created for the constant)."""
    c = float(c)
    out = Node(a.value * c, (a,))

    def bw(g):
        a.grad += g * c

    out._backward_fn = bw
    return out


def add_const(a: Node, c: float) -> Node:
    out = Node(a.value + float(c), (a,))

    def bw(g):
        a.grad += g

    out._backward_fn = bw
    return out


def power(a: Node, b: Node) -> Node:
    """General power a**b.  Gradient w.r.t. b requires a > 0."""
    _, asc, bsc = _binary_shapes(a, b, "power")
    val = a.value**b.value
    out = Node(val, (a, b))

    def bw(g):
        a.grad += _reduce_to(g * b.value * a.value ** (b.value - 1.0), asc)
        b.grad += _reduce_to(g * val * np.log(a.value), bsc)

    out._backward_fn = bw
    return out


def power_const(a: Node, c: float) -> Node:
    c = float(c)
    out = Node(a.value**c, (a,))

    def bw(g):
        a.grad += g * c * a.value ** (c - 1.0)

    out._backward_fn = bw
    return out


def log(a: Node) -> Node:
    out = Node(np.log(a.value), (a,))

    def bw(g):
        a.grad += g / a.value

    out._backward_fn = bw
    return out


def exp(a: Node) -> Node:
    val = np.exp(a.value)
    out = Node(val, (a,))

    def bw(g):
        a.grad += g * val

    out._backward_fn = bw
    return out


def sqrt(a: Node) -> Node:
    val = np.sqrt(a.value)
    out = Node(val, (a,))

    def bw(g):
        a.grad += g * 0.5 / val

    out._backward_fn = bw
    return out


def relu(a: Node) -> Node:
    mask = a.value > 0.0
    out = Node(np.where(mask, a.value, 0.0), (a,))

    def bw(g):
        a.grad += g * mask

    out._backward_fn = bw
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Node) -> Node:
    val = _sigmoid(np.atleast_1d(a.value)).reshape(a.value.shape)
    out = Node(val, (a,))

    def bw(g):
        a.grad += g * val * (1.0 - val)

    out._backward_fn = bw
    return out


def softplus(a: Node) -> Node:
    val = np.logaddexp(0.0, a.value)
    out = Node(val, (a,))

    def bw(g):
        a.grad += g * _sigmoid(np.atleast_1d(a.value)).reshape(a.value.shape)

    out._backward_fn = bw
    return out


def digamma(a: Node) -> Node:
    out = Node(special.digamma(a.value), (a,))

    def bw(g):
        a.grad += g * special.polygamma(1, a.value)

    out._backward_fn = bw
    return out


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Clip to [lo, hi]; subgradient is 0 at and outside the bounds."""
    lo, hi = float(lo), float(hi)
    val = np.clip(a.value, lo, hi)
    inside = (a.value > lo) & (a.value < hi)
    out = Node(val, (a,))

    def bw(g):
        a.grad += g * inside

    out._backward_fn = bw
    return out


# ---------------------------------------------------------------------------
# linear algebra / reductions / structured broadcasting
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: incompatible shapes {a.value.shape} and {b.value.shape}"
        )
    out = Node(a.value @ b.value, (a, b))

    def bw(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._backward_fn = bw
    return out


def sum_all(a: Node) -> Node:
    out = Node(np.float64(a.value.sum()), (a,))

    def bw(g):
        a.grad += g * np.ones_like(a.value)

    out._backward_fn = bw
    return out


def mean_axis0(a: Node) -> Node:
    """(B, ...) -> (...): mean over the leading axis."""
    if a.value.ndim < 1:
        raise DimensionError("mean_axis0 requires at least 1 dimension")
    n = a.value.shape[0]
    out = Node(a.value.mean(axis=0), (a,))

    def bw(g):
        a.grad += np.broadcast_to(g / n, a.value.shape)

    out._backward_fn = bw
    return out


def add_rowwise(x: Node, v: Node) -> Node:
    """(B, K) + (K,): add a vector to every row."""
    if x.value.ndim != 2 or v.value.shape != (x.value.shape[1],):
        raise DimensionError(
            f"add_rowwise: incompatible shapes {x.value.shape} and {v.value.shape}"
        )
    out = Node(x.value + v.value[None, :], (x, v))

    def bw(g):
        x.grad += g
        v.grad += g.sum(axis=0)

    out._backward_fn = bw
    return out


def mul_rowwise(x: Node, v: Node) -> Node:
    """(B, K) * (K,): scale every row elementwise."""
    if x.value.ndim != 2 or v.value.shape != (x.value.shape[1],):
        raise DimensionError(
            f"mul_rowwise: incompatible shapes {x.value.shape} and {v.value.shape}"
        )
    out = Node(x.value * v.value[None, :], (x, v))

    def bw(g):
        x.grad += g * v.value[None, :]
        v.grad += (g * x.value).sum(axis=0)

    out._backward_fn = bw
    return out


def scale_channels(x: Node, s: Node) -> Node:
    """(B, C, H, W) * (B, C): one multiplier per example and channel."""
    if x.value.ndim != 4 or s.value.shape != x.value.shape[:2]:
        raise DimensionError(
            f"scale_channels: incompatible shapes {x.value.shape} and {s.value.shape}"
        )
    out = Node(x.value * s.value[:, :, None, None], (x, s))

    def bw(g):
        x.grad += g * s.value[:, :, None, None]
        s.grad += (g * x.value).sum(axis=(2, 3))

    out._backward_fn = bw
    return out


def add_channel_bias(x: Node, b: Node) -> Node:
    """(B, C, H, W) + (C,): per-channel bias."""
    if x.value.ndim != 4 or b.value.shape != (x.value.shape[1],):
        raise DimensionError(
            f"add_channel_bias: incompatible shapes {x.value.shape} and {b.value.shape}"
        )
    out = Node(x.value + b.value[None, :, None, None], (x, b))

    def bw(g):
        x.grad += g
        b.grad += g.sum(axis=(0, 2, 3))

    out._backward_fn = bw
    return out


def reshape(a: Node, shape) -> Node:
    shape = tuple(int(s) for s in shape)
    out = Node(a.value.reshape(shape), (a,))

    def bw(g):
        a.grad += g.reshape(a.value.shape)

    out._backward_fn = bw
    return out


def gather_cols(x: Node, idx) -> Node:
    """(B, K) -> (B, len(idx)): select columns; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    if x.value.ndim != 2:
        raise DimensionError(f"gather_cols expects a 2-D input, got {x.value.shape}")
    out = Node(x.value[:, idx], (x,))

    def bw(g):
        np.add.at(x.grad, (slice(None), idx), g)

    out._backward_fn = bw
    return out


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------


def conv2d(x: Node, w: Node, stride: int = 1, padding: int = 0) -> Node:
    """Cross-correlation of (B, C, H, W) or (C, H, W) input with (O, C, k, k).

    Output spatial extent is floor((H + 2p - k) / stride) + 1.

    im2col as GEMM, with P = ho*wo output positions and ``wmat`` the kernel
    as (O, C*k*k): the padded input's k x k windows are gathered into
    ``cols`` (B, P, C*k*k), and the forward is the batched
    ``wmat @ cols[b].T``, which writes (B, O, P) = NCHW directly.  Backward
    lays the output gradient out as ``gmat`` (O, B*P).  The weight gradient
    is the single GEMM ``gmat @ cols`` over (B*P, C*k*k).  The column
    gradient ``wmat.T @ gmat`` comes out as (C, k, k, B, ho, wo), so col2im
    adds one contiguous (C, B, ho, wo) slab per kernel tap into a
    (C, B, Hp, Wp) buffer, which is transposed back to NCHW once.
    """
    if stride < 1:
        raise DimensionError(f"conv2d: stride must be >= 1, got {stride}")
    single = x.value.ndim == 3
    xv = x.value[None] if single else x.value
    if xv.ndim != 4 or w.value.ndim != 4 or xv.shape[1] != w.value.shape[1]:
        raise DimensionError(
            f"conv2d: incompatible shapes {x.value.shape} and {w.value.shape}"
        )
    bsz, cin, h, wd = xv.shape
    cout, _, k, k2 = w.value.shape
    if k != k2:
        raise DimensionError(f"conv2d: kernel must be square, got {w.value.shape}")
    if k > h + 2 * padding or k > wd + 2 * padding:
        raise DimensionError(
            f"conv2d: kernel {k}x{k} larger than padded input "
            f"{h + 2 * padding}x{wd + 2 * padding}"
        )
    xp = np.pad(xv, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2], xp.shape[3]
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1

    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    # cols[b, p, c*k*k + i*k + j]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        bsz, ho * wo, cin * k * k
    )
    wmat = w.value.reshape(cout, cin * k * k)
    val = (wmat @ cols.transpose(0, 2, 1)).reshape(bsz, cout, ho, wo)
    out = Node(val[0] if single else val, (x, w))

    def bw(g):
        gv = g[None] if single else g
        gmat = np.ascontiguousarray(gv.transpose(1, 0, 2, 3)).reshape(cout, bsz * ho * wo)
        w.grad += (gmat @ cols.reshape(bsz * ho * wo, cin * k * k)).reshape(w.value.shape)
        dcols = (wmat.T @ gmat).reshape(cin, k, k, bsz, ho, wo)
        dxp = np.zeros((cin, bsz, hp, wp))
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[
                    :, i, j
                ]
        dx = dxp.transpose(1, 0, 2, 3)[:, :, padding : hp - padding, padding : wp - padding]
        x.grad += dx[0] if single else dx

    out._backward_fn = bw
    return out


def _later_wins(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Where ``later`` replaces ``earlier`` as the argmax: greater, or NaN over a number."""
    return (later > earlier) | (np.isnan(later) & ~np.isnan(earlier))


def maxpool2x2(x: Node) -> Node:
    """2x2 max pooling with stride 2 on the trailing two axes.

    The four strided quadrant views ``x[..., i::2, j::2]`` are compared in a
    tournament (top pair, bottom pair, then top winner against bottom
    winner) in which a later position wins only when strictly greater, or
    NaN against a number.  So each window's output value and its whole
    gradient belong to the first argmax in row-major order, as with
    ``numpy.argmax``: ties go to the earliest position and a NaN wins its
    window.  The winner is kept as an int8 code ``2*i + j``; backward adds
    the gradient into each quadrant view where the code matches.
    """
    shp = x.value.shape
    if len(shp) < 2 or shp[-1] % 2 or shp[-2] % 2:
        raise DimensionError(f"maxpool2x2 requires even trailing extents, got {shp}")
    q00, q01, q10, q11 = (x.value[..., i::2, j::2] for i in (0, 1) for j in (0, 1))
    top_right = _later_wins(q01, q00)
    top = np.where(top_right, q01, q00)
    bottom_right = _later_wins(q11, q10)
    bottom = np.where(bottom_right, q11, q10)
    lower = _later_wins(bottom, top)
    arg = np.where(lower, bottom_right.view(np.int8) + 2, top_right.view(np.int8))
    out = Node(np.where(lower, bottom, top), (x,))

    def bw(g):
        for code, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            x.grad[..., i::2, j::2] += np.where(arg == code, g, 0.0)

    out._backward_fn = bw
    return out


def global_avg_pool(x: Node) -> Node:
    """(B, C, H, W) -> (B, C) or (C, H, W) -> (C,): per-channel spatial mean."""
    if x.value.ndim not in (3, 4):
        raise DimensionError(f"global_avg_pool expects 3-D or 4-D input, got {x.value.shape}")
    area = x.value.shape[-1] * x.value.shape[-2]
    out = Node(x.value.mean(axis=(-2, -1)), (x,))

    def bw(g):
        x.grad += np.broadcast_to((g / area)[..., None, None], x.value.shape)

    out._backward_fn = bw
    return out


def softmax_cross_entropy(logits: Node, labels) -> Node:
    """Mean over the batch of -log softmax(logits)[label]."""
    labels = np.asarray(labels, dtype=np.intp)
    if logits.value.ndim != 2:
        raise DimensionError(
            f"softmax_cross_entropy expects (B, C) logits, got {logits.value.shape}"
        )
    bsz, ncls = logits.value.shape
    if labels.shape != (bsz,):
        raise DimensionError(
            f"softmax_cross_entropy: {bsz} rows but labels shape {labels.shape}"
        )
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= ncls:
        raise IndexError(f"labels must lie in [0, {ncls})")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    out = Node(np.float64(-logp[np.arange(bsz), labels].mean()), (logits,))

    def bw(g):
        sm = np.exp(logp)
        sm[np.arange(bsz), labels] -= 1.0
        logits.grad += g * sm / bsz

    out._backward_fn = bw
    return out
