"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are C-contiguous ``numpy`` float64 arrays ("tensors"); a :class:`Node`
wraps one tensor together with its gradient and the local backward rule that
links it to its parents.  Graphs are built eagerly by the op functions below
and differentiated with :func:`backward`.  A leaf is a :func:`parameter`,
whose gradient backward accumulates, or a :func:`constant`, which takes none,
so ops skip input gradients nobody reads.  The first gradient contribution to
a node is stored as is and later ones are added out of place, so no node gets
a zero-filled buffer.  Inside :func:`no_grad` the same ops build unlinked
nodes: no parents, no backward closure, nothing kept alive (evaluation mode).
Evaluation runs a conv layer through :func:`conv2d_pool_means` instead: it
builds the conv output one cache-sized tile of output rows and examples at a
time and keeps only the pooled map and the channel means.  Its example shares
run on one thread per CPU, with the same bits for any number of threads.

The ops are elementwise (`add`, `mul`, `relu`), dense-layer products
(`matmul`, `add_rowwise`, `gather_cols`), the conv stack (`conv2d`,
`maxpool2x2`, `scale_channels`, `global_avg_pool`, `flatten`) and
`softmax_cross_entropy`.  :func:`fused` makes one node of a closed form
computed in numpy with a hand-written backward; the dropout gates in
:mod:`betadrop.gates` and the training loss (NLL, weighted KL and weight
decay) are built that way.  Conv activations are batch-innermost,
(C, H, W, B), so the copies around the conv GEMMs and the pooling windows
move runs of B values; `flatten` turns them into the (B, C*H*W) rows of a
dense layer, and per-example channel quantities (gate masks, channel means)
stay (B, C).

There is no broadcasting: binary elementwise ops accept equal shapes only.
The few mixed-rank products the models need are dedicated ops
(`add_rowwise`, `scale_channels`) so that shape errors stay loud.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError

__all__ = [
    "Node",
    "as_tensor",
    "constant",
    "parameter",
    "backward",
    "zero_gradients",
    "add",
    "mul",
    "relu",
    "fused",
    "matmul",
    "add_rowwise",
    "gather_cols",
    "conv2d",
    "maxpool2x2",
    "scale_channels",
    "global_avg_pool",
    "flatten",
    "softmax_cross_entropy",
]


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (0-d stays 0-d)."""
    return np.asarray(x, dtype=np.float64, order="C")


# Whether new nodes record their parents and backward closure; see no_grad.
_grad_enabled = True


@contextmanager
def no_grad():
    """Build nodes without graph links for the duration of the block.

    Not in ``__all__``: that list names the tensor API whose calls return
    nodes, and the benchmark tracer wraps each of its names as an op.
    """
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Node:
    """One value in the computation graph.

    ``value`` is immutable once consumed by a downstream op (trainers may
    rewrite leaf values between steps).  ``grad`` has the same shape as
    ``value``, reads as zeros until a gradient reaches the node, and
    accumulates across :func:`backward` calls on leaves.  ``needs_grad`` is
    False on a :func:`constant`, which is also how a stage holds a value
    fixed (the frozen posterior of DBB fine-tuning).
    """

    __array_ufunc__ = None  # numpy arithmetic on a Node raises, not an object array
    __slots__ = ("value", "_grad", "_parents", "_backward_fn", "needs_grad")

    def __init__(self, value, parents=(), backward_fn=None):
        self.value = as_tensor(value)
        self._grad = None
        self.needs_grad = True
        # Under no_grad the closure is dropped with everything it captured.
        self._parents = tuple(parents) if _grad_enabled else ()
        self._backward_fn = backward_fn if _grad_enabled else None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self._grad = None

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={not self._parents})"


def constant(x) -> Node:
    """Leaf that merely carries data: it takes no gradient, so its ``grad``
    stays zeros and ops skip the work of computing one for it."""
    node = Node(x)
    node.needs_grad = False
    return node


def parameter(x) -> Node:
    """Leaf whose gradient :func:`backward` accumulates."""
    return Node(x)


def _acc(node: Node, g: np.ndarray) -> None:
    """Add the gradient contribution ``g`` to ``node``; a constant takes none.

    The first contribution is stored as is and later ones are added out of
    place, so a stored array is never written again and may be shared.
    """
    if node.needs_grad:  # asarray: a 0-d sum is a numpy scalar
        node._grad = np.asarray(g if node._grad is None else node._grad + g)


def _pass(node: Node, g: np.ndarray) -> None:
    """Pass on the output gradient itself, or a view of it.  A leaf gets its
    own writable copy, so an in-place write to its grad changes no other."""
    _acc(node, g if node._parents else np.array(g))


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
            node._grad = None
    if loss._parents:
        loss.grad = np.ones_like(loss.value)
    else:
        _acc(loss, np.ones_like(loss.value))
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


def zero_gradients(nodes) -> None:
    for n in nodes:
        n.zero_grad()


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _check_same_shape(a: Node, b: Node, opname: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{opname}: incompatible shapes {a.value.shape} and {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "add")

    def bw(g):
        _pass(a, g)
        _pass(b, g)

    return Node(a.value + b.value, (a, b), bw)


def mul(a: Node, b: Node) -> Node:
    _check_same_shape(a, b, "mul")

    def bw(g):
        _acc(a, g * b.value)
        _acc(b, g * a.value)

    return Node(a.value * b.value, (a, b), bw)


def relu(a: Node) -> Node:
    """max(x, 0) with NaN mapped to 0 and -0.0 to +0.0; subgradient 0 at 0."""

    def bw(g):
        _acc(a, g * (a.value > 0.0))

    # fmax gives np.where(x > 0, x, 0.0) bit for bit at a quarter of the cost
    return Node(np.fmax(a.value, 0.0), (a,), bw)


def fused(value, parents, vjp) -> Node:
    """One node for a closed form evaluated in numpy.

    ``value`` is the form's result and ``vjp(g)`` maps the output gradient
    to one gradient per parent, in order, each of its parent's shape, or
    None for a parent that takes none.  A parent that is a constant gets
    nothing, so ``vjp`` may skip the work for it; when no parent takes a
    gradient the node is built as a :func:`constant`.
    """
    if not any(p.needs_grad for p in parents):
        return constant(value)

    def bw(g):
        for p, gp in zip(parents, vjp(g)):
            if gp is not None:
                _acc(p, gp)

    return Node(value, parents, bw)


# ---------------------------------------------------------------------------
# linear algebra / reductions / structured broadcasting
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: incompatible shapes {a.value.shape} and {b.value.shape}"
        )

    def bw(g):
        if a.needs_grad:
            _acc(a, g @ b.value.T)
        _acc(b, a.value.T @ g)

    return Node(a.value @ b.value, (a, b), bw)


def add_rowwise(x: Node, v: Node) -> Node:
    """(B, K) + (K,): add a vector to every row."""
    if x.value.ndim != 2 or v.value.shape != (x.value.shape[1],):
        raise DimensionError(
            f"add_rowwise: incompatible shapes {x.value.shape} and {v.value.shape}"
        )

    def bw(g):
        _pass(x, g)
        _acc(v, g.sum(axis=0))

    return Node(x.value + v.value[None, :], (x, v), bw)


def gather_cols(x: Node, idx) -> Node:
    """(B, K) -> (B, len(idx)): select columns; backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.intp)
    if x.value.ndim != 2:
        raise DimensionError(f"gather_cols expects a 2-D input, got {x.value.shape}")

    def bw(g):
        if x.needs_grad:
            dx = np.zeros_like(x.value)
            np.add.at(dx, (slice(None), idx), g)
            _acc(x, dx)

    return Node(x.value[:, idx], (x,), bw)


# ---------------------------------------------------------------------------
# convolution / pooling, on batch-innermost (C, H, W, B) activations
# ---------------------------------------------------------------------------

# Byte budget of one tile of im2col columns and its GEMM output under
# no_grad: about an L2 cache.
_COLS_BLOCK_BYTES = 2 << 20


def _even_part(n: int, most: int) -> int:
    """The size of the fewest equal parts of at most ``most`` (at least 1) that cover ``n``."""
    return -(-n // -(-n // max(1, most)))


def _conv_windows(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray):
    """The checked input's k x k windows, (C, ho, wo, B, k, k), and the kernel as (O, C*k*k)."""
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[0] != wv.shape[1] or bv.shape != wv.shape[:1]:
        raise DimensionError(f"conv2d: incompatible shapes {xv.shape}, {wv.shape} and {bv.shape}")
    k = wv.shape[2]
    if wv.shape[3] != k:
        raise DimensionError(f"conv2d: kernel must be square, got {wv.shape}")
    if k > xv.shape[1] or k > xv.shape[2]:
        raise DimensionError(f"conv2d: kernel {k}x{k} larger than input {xv.shape[1:3]}")
    return sliding_window_view(xv, (k, k), axis=(1, 2)), wv.reshape(len(wv), -1)


def _columns(win: np.ndarray, rows: slice, examples: slice) -> np.ndarray:
    """im2col of some output rows and examples: cols[c*k*k + i*k + j, (r*wo + s)*n + e]."""
    tile = win[:, rows, :, examples].transpose(0, 4, 5, 1, 2, 3)
    return np.ascontiguousarray(tile).reshape(win.shape[0] * win.shape[4] ** 2, -1)


def conv2d(x: Node, w: Node, b: Node) -> Node:
    """Unpadded stride-1 cross-correlation of a (C, H, W, B) input with
    (O, C, k, k), plus (O,) bias, giving (O, H - k + 1, W - k + 1, B).

    im2col as GEMM, batch innermost: the input's k x k windows are copied
    into ``cols`` (C*k*k, N) in runs of B values, N = ho*wo*B, and with the
    kernel as ``wmat`` (O, C*k*k) the output is ``wmat @ cols``, already
    (O, ho, wo, B), plus the bias.  The graph keeps ``cols`` for backward;
    evaluation runs :func:`conv2d_pool_means` instead, which never builds
    the whole output.  Backward reads the output gradient as ``gmat``
    (O, N): dW = ``gmat @ cols.T``, db = ``gmat.sum(1)`` and, unless ``x``
    is a constant, the column gradient ``wmat.T @ gmat`` (C, k, k, ho, wo, B)
    is added back one kernel tap at a time into a (C, H, W, B) buffer
    (col2im), in runs of wo*B values.
    """
    xv, wv = x.value, w.value
    win, wmat = _conv_windows(xv, wv, b.value)
    cin, ho, wo, bsz, k, _ = win.shape
    cols = _columns(win, slice(None), slice(None))
    val = (wmat @ cols).reshape(len(wv), ho, wo, bsz)
    val += b.value[:, None, None, None]

    def bw(g):
        gmat = g.reshape(len(wv), ho * wo * bsz)
        _acc(w, (gmat @ cols.T).reshape(wv.shape))
        _acc(b, gmat.sum(axis=1))
        if x.needs_grad:
            dcols = (wmat.T @ gmat).reshape(cin, k, k, ho, wo, bsz)
            dx = np.zeros(xv.shape)
            for i, j in np.ndindex(k, k):
                dx[:, i:i + ho, j:j + wo] += dcols[:, i, j]
            _acc(x, dx)

    return Node(val, (x, w, b), bw)


def conv2d_pool_means(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arrays ``maxpool2x2(conv2d(x, w, b))`` and (B, C) channel means of
    the conv output, in one pass that never builds that output (not in
    ``__all__``: no node).  Tiles of 2k output rows x an even share of the
    examples (so none is tiny) hold columns and a GEMM result of about
    ``_COLS_BLOCK_BYTES``, an L2 cache; in cache, a tile gets its bias, adds
    its channel sums and writes the 2x2 max of its row pairs.  A tile's GEMM
    can round a column apart from the whole GEMM's: the pooled map is the
    graph's bit for bit on the LeNet shapes the tests pin, elsewhere within
    about 1e-15 of its largest value; the means are ``global_avg_pool``'s to
    rounding, bit for bit when one tile holds the map.  A share of the
    examples walks its row pairs in order and writes only its own slices, so
    the shares run on :func:`_share_pool` with the same bits for any count.
    """
    win, wmat = _conv_windows(x, w, b)
    cin, ho, wo, bsz, k, _ = win.shape
    cout = len(wmat)
    if ho % 2 or wo % 2:
        raise DimensionError(f"2x2 pooling needs even conv extents, got {ho}x{wo}")
    pooled = np.empty((cout, ho // 2, wo // 2, bsz))
    sums = np.zeros((cout, bsz))
    ncols = _COLS_BLOCK_BYTES // (8 * (cin * k * k + cout))
    nex = _even_part(bsz, ncols // (2 * wo))  # examples per tile
    npairs = _even_part(ho // 2, ncols // (2 * wo * nex))  # output row pairs per tile

    def share(b0):
        for p0 in range(0, ho // 2, npairs):
            out = pooled[:, p0:p0 + npairs, :, b0:b0 + nex]
            tile = wmat @ _columns(win, slice(2 * p0, 2 * p0 + 2 * npairs), slice(b0, b0 + nex))
            tile = tile.reshape(cout, 2 * out.shape[1], wo, out.shape[3])
            tile += b[:, None, None, None]
            sums[:, b0:b0 + nex] += tile.sum(axis=(1, 2))
            np.maximum(tile[:, 0::2, 0::2], tile[:, 0::2, 1::2], out=out)
            np.maximum(out, np.maximum(tile[:, 1::2, 0::2], tile[:, 1::2, 1::2]), out=out)

    if nex < bsz:  # a forked child makes its own pool; list waits and raises
        list(_share_pool(os.getpid()).map(share, range(0, bsz, nex)))
    else:
        share(0)
    return pooled, (sums / (ho * wo)).T


@functools.cache
def _share_pool(pid: int):
    """Process ``pid``'s threads for :func:`conv2d_pool_means`, one per CPU it may use."""
    from concurrent.futures import ThreadPoolExecutor

    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ThreadPoolExecutor(n or 1)


def _later_wins(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Where ``later`` replaces ``earlier`` as the argmax: greater, or NaN over a number."""
    return (later > earlier) | (np.isnan(later) & ~np.isnan(earlier))


def maxpool2x2(x: Node) -> Node:
    """2x2 max pooling with stride 2 over axes 1 and 2 of a (C, H, W, B) input.

    The value is an ``np.maximum`` chain over the four strided quadrant views
    ``x[:, i::2, j::2]``, each made of contiguous runs of B values: the top
    pair, the bottom pair, then the two pair maxima.  Each window's whole
    gradient belongs to its first argmax in row-major order, as with
    ``numpy.argmax``: ties go to the earliest position and a NaN wins its
    window.  That winner is found only for an input that takes a gradient,
    by the same tournament in which a later position wins only when strictly
    greater (``np.greater``), or, when the output holds a NaN, also as a NaN
    against a number.  Backward scatters the gradient into a zeroed buffer
    at the winners' flat offsets.
    """
    shp = x.value.shape
    if len(shp) != 4 or shp[1] % 2 or shp[2] % 2:
        raise DimensionError(f"maxpool2x2 needs a (C, H, W, B) input, H and W even, got {shp}")
    q00, q01, q10, q11 = (x.value[:, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    top, bottom = np.maximum(q00, q01), np.maximum(q10, q11)
    if not (_grad_enabled and x.needs_grad):  # no winners to find: top may hold the value
        return Node(np.maximum(top, bottom, out=top), (x,))
    out = np.maximum(top, bottom)
    later = _later_wins if np.isnan(out).any() else np.greater
    lower = later(bottom, top)  # winner row
    right = later(q01, q00)
    right ^= lower & (later(q11, q10) ^ right)  # winner column, of the winning pair

    def bw(g):
        # flat offset of each winner: its row and column in the window, plus
        # the offset of the window's top-left entry
        c, h, w, bsz = shp
        idx = lower * np.intp(w)
        idx += right
        idx *= bsz
        idx += (np.arange(0, c * h * w * bsz, h * w * bsz)[:, None, None, None]
                + np.arange(0, h * w * bsz, 2 * w * bsz)[:, None, None]
                + np.arange(0, w * bsz, 2 * bsz)[:, None] + np.arange(bsz))
        dx = np.zeros(shp)
        dx.reshape(-1)[idx.reshape(-1)] = g.reshape(-1)
        _acc(x, dx)

    return Node(out, (x,), bw)


def scale_channels(x: Node, s: Node) -> Node:
    """(C, H, W, B) * (B, C): one multiplier per example and channel."""
    if x.value.ndim != 4 or s.value.shape != (x.value.shape[3], x.value.shape[0]):
        raise DimensionError(
            f"scale_channels: incompatible shapes {x.value.shape} and {s.value.shape}"
        )
    sv = np.ascontiguousarray(s.value.T)[:, None, None, :]

    def bw(g):
        _acc(x, g * sv)
        _acc(s, (g * x.value).sum(axis=(1, 2)).T)

    return Node(x.value * sv, (x, s), bw)


def global_avg_pool(x: Node) -> Node:
    """(C, H, W, B) -> (B, C): per-example channel means over the spatial extent."""
    if x.value.ndim != 4:
        raise DimensionError(f"global_avg_pool expects a 4-D input, got {x.value.shape}")
    area = x.value.shape[1] * x.value.shape[2]

    def bw(g):
        _pass(x, np.broadcast_to((g.T / area)[:, None, None, :], x.value.shape))

    return Node(x.value.mean(axis=(1, 2)).T, (x,), bw)


def flatten(x: Node) -> Node:
    """(C, H, W, B) -> (B, C*H*W): each example's row in (C, H, W) order."""
    if x.value.ndim != 4:
        raise DimensionError(f"flatten expects a 4-D input, got {x.value.shape}")
    shp = x.value.shape

    def bw(g):
        _pass(x, g.T.reshape(shp))

    return Node(x.value.reshape(-1, shp[3]).T, (x,), bw)


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
        raise DimensionError(f"labels must lie in [0, {ncls}) for {ncls} outputs")
    z = logits.value - logits.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse

    def bw(g):
        sm = np.exp(logp)
        sm[np.arange(bsz), labels] -= 1.0
        _acc(logits, g * sm / bsz)

    return Node(np.float64(-logp[np.arange(bsz), labels].mean()), (logits,), bw)
