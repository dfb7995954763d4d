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
time and keeps only the pooled map and the channel means.

Betadrop owns its threads.  On import it pins numpy's bundled OpenBLAS to one
thread, and the heavy ops run shares on :func:`_share_pool`, one thread per
CPU: the tiled pass's example shares, and in training `conv2d`, `maxpool2x2`,
the two products of `matmul` and `scale_channels` backward, and (through
:func:`run_elementwise`) the Adam update of a large array.  Each op shares
only above a size taken from its shapes, and a share writes only its own
slice of outputs that the caller allocated, so the bits are those of the
unsplit op for any number of threads.

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
# threads
# ---------------------------------------------------------------------------


def _pin_blas() -> bool:
    """Pin numpy's bundled OpenBLAS to one thread, for the whole process;
    False, and nothing done, where that library or its setter is missing."""
    import ctypes
    import glob

    here = os.path.dirname(np.__file__)
    for lib in sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas64_*"))
                      + glob.glob(os.path.join(here, ".dylibs", "*openblas64_*"))):
        try:
            setter = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return True
    return False


# With the BLAS on one thread, only the shares below use more than one core,
# and a GEMM's bits do not depend on the machine's thread settings.
_pin_blas()

# Multiply-adds from which a GEMM, or a pair of them, is worth two threads.
_SHARE_WORK = 1 << 24
# Elements from which an elementwise update or a pooling op is worth two threads.
_SHARE_ELEMS = 1 << 18


@functools.cache
def _share_pool(pid: int):
    """Process ``pid``'s threads, one per CPU it may use, for the shares of
    :func:`conv2d_pool_means` and of the training ops (see :func:`_run_shares`)."""
    from concurrent.futures import ThreadPoolExecutor

    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ThreadPoolExecutor(n or 1)


def _halves(n: int, big: bool) -> list[slice]:
    """``range(n)`` as two slices when ``big`` (and ``n`` > 1), else as one."""
    h = (n + 1) // 2
    return [slice(0, h), slice(h, n)] if big and n > 1 else [slice(0, n)]


def _column_halves(rows: int, cols: int, work: int) -> list[slice]:
    """A GEMM's (rows, cols) output columns as two slices, split at a multiple
    of 64, where the halves keep its bits, else as one.  Each column then
    meets OpenBLAS's kernels in the same blocks as in the whole GEMM (blocks
    of 8 columns in 0.3.31's SkylakeX kernel), ``_SHARE_WORK`` multiply-adds
    keep the halves far above the small-matrix kernels, and 2 rows keep numpy
    off GEMV.  A half packs only its own columns, so the split adds no work."""
    h = -(-cols // 128) * 64
    if work >= _SHARE_WORK and rows >= 2 and h < cols:
        return [slice(0, h), slice(h, cols)]
    return [slice(0, cols)]


def _row_halves(rows: int, cols: int, work: int) -> bool:
    """Whether a GEMM with a (rows, cols) output and ``work`` multiply-adds
    keeps its bits in two halves of its rows.  Each half must take the whole
    GEMM's OpenBLAS path and kernel blocks: ``_SHARE_WORK`` keeps the halves
    far above the small-matrix kernels (about 1e6 multiply-adds), 4 rows
    keep 2 in each half (numpy hands 1 row to GEMV), and ``cols`` a multiple
    of 16 leaves no partial block of columns, where a half's last rows could
    meet a different kernel than the whole GEMM's."""
    return work >= _SHARE_WORK and rows >= 4 and cols % 16 == 0


def _run_shares(fn, parts) -> None:
    """Call ``fn(part)`` for every part: on the calling thread when there is
    one, else each as a share on :func:`_share_pool`.  A share writes only
    its own slice of outputs that the caller allocated, so the bits do not
    depend on the number of threads or their order.  Returns when all are
    done; a share's error reaches the caller."""
    if len(parts) > 1:
        from concurrent.futures import wait

        pool = _share_pool(os.getpid())  # a forked child makes its own
        shares = [pool.submit(fn, part) for part in parts]
        wait(shares)
        for share in shares:
            share.result()
    else:
        for part in parts:
            fn(part)


def run_elementwise(fn, *arrays: np.ndarray) -> None:
    """Call ``fn(*arrays)`` on equal-sized arrays, once here; from
    ``_SHARE_ELEMS`` values on, as two shares instead, each on one half of
    the arrays' flat elements, so arrays written to must be contiguous (not
    in ``__all__``: no node)."""
    if arrays[0].size < _SHARE_ELEMS:
        fn(*arrays)
    else:
        flat = [a.reshape(-1) for a in arrays]
        _run_shares(lambda r: fn(*(a[r] for a in flat)), _halves(arrays[0].size, True))


def _run_tasks(tasks: list, big: bool) -> None:
    """Call every one of ``tasks``: as shares when ``big``, else in turn here."""
    if big:
        _run_shares(lambda task: task(), tasks)
    else:
        for task in tasks:
            task()


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
        # two products, each whole: a GEMM split any finer changes its bits
        ga, gb = np.empty(a.value.shape), np.empty(b.value.shape)
        tasks = [lambda: np.matmul(a.value.T, g, out=gb)]
        if a.needs_grad:
            tasks.append(lambda: np.matmul(g, b.value.T, out=ga))
        _run_tasks(tasks, a.value.size * b.value.shape[1] >= _SHARE_WORK)
        if a.needs_grad:
            _acc(a, ga)
        _acc(b, gb)

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

    When each GEMM has at least ``_SHARE_WORK`` multiply-adds, the copy into
    ``cols`` runs in two shares of the output rows, and backward runs dW with
    db as one task, beside the column gradient and col2im.  dW stays one
    GEMM, since a split of it changes its bits.  The product with its bias
    runs in halves of its columns where :func:`_column_halves` allows, and
    the column gradient with its col2im in halves of the input channels
    where :func:`_row_halves` finds that halves of its rows keep the bits.
    """
    xv, wv = x.value, w.value
    win, wmat = _conv_windows(xv, wv, b.value)
    cin, ho, wo, bsz, k, _ = win.shape
    cout, n = len(wv), ho * wo * bsz
    work = cout * wmat.shape[1] * n  # multiply-adds of each of the three GEMMs
    big = work >= _SHARE_WORK
    cols = np.empty((cin * k * k, n))
    taps = cols.reshape(cin, k, k, ho, wo, bsz)
    _run_shares(lambda r: np.copyto(taps[:, :, :, r], win[:, r].transpose(0, 4, 5, 1, 2, 3)),
                _halves(ho, big))
    val = np.empty((cout, ho, wo, bsz))
    vmat = val.reshape(cout, n)

    def product(c):
        np.matmul(wmat, cols[:, c], out=vmat[:, c])
        vmat[:, c] += b.value[:, None]

    _run_shares(product, _column_halves(cout, n, work))

    def bw(g):
        gmat = g.reshape(cout, n)
        dw, db = np.empty(wmat.shape), np.empty(cout)

        def params():
            np.matmul(gmat, cols.T, out=dw)
            np.sum(gmat, axis=1, out=db)

        tasks = [params]
        if x.needs_grad:
            dx = np.zeros(xv.shape)
            dcols = np.empty(cols.shape)
            dtaps = dcols.reshape(cin, k, k, ho, wo, bsz)

            def col2im(c):
                rows = slice(c.start * k * k, c.stop * k * k)
                np.matmul(wmat[:, rows].T, gmat, out=dcols[rows])
                for i, j in np.ndindex(k, k):
                    dx[c, i:i + ho, j:j + wo] += dtaps[c, i, j]

            tasks += [functools.partial(col2im, c)
                      for c in _halves(cin, _row_halves(cin * k * k, n, work))]
        _run_tasks(tasks, big)
        _acc(w, dw.reshape(wv.shape))
        _acc(b, db)
        if x.needs_grad:
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

    _run_shares(share, range(0, bsz, nex))
    return pooled, (sums / (ho * wo)).T


def _later_wins(later: np.ndarray, earlier: np.ndarray, out=None) -> np.ndarray:
    """Where ``later`` replaces ``earlier`` as the argmax: greater, or NaN over a number."""
    out = np.greater(later, earlier, out=out)
    out |= np.isnan(later) & ~np.isnan(earlier)
    return out


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
    at the winners' flat offsets.  An input of at least ``_SHARE_ELEMS``
    values is pooled, and its gradient scattered, in two shares of its
    channels; each share asks about NaNs in its own output only.
    """
    shp = x.value.shape
    if len(shp) != 4 or shp[1] % 2 or shp[2] % 2:
        raise DimensionError(f"maxpool2x2 needs a (C, H, W, B) input, H and W even, got {shp}")
    c, h, w, bsz = shp
    parts = _halves(c, x.value.size >= _SHARE_ELEMS)
    winners = _grad_enabled and x.needs_grad  # else there are none to find
    out = np.empty((c, h // 2, w // 2, bsz))
    top, bottom = np.empty(out.shape), np.empty(out.shape)
    lower, right = np.empty(out.shape, dtype=bool), np.empty(out.shape, dtype=bool)

    def pool(cs):
        q00, q01, q10, q11 = (x.value[cs, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        np.maximum(q00, q01, out=top[cs])
        np.maximum(q10, q11, out=bottom[cs])
        np.maximum(top[cs], bottom[cs], out=out[cs])
        if winners:
            later = _later_wins if np.isnan(out[cs]).any() else np.greater
            later(bottom[cs], top[cs], out=lower[cs])  # winner row
            r = later(q01, q00, out=right[cs])
            r ^= lower[cs] & (later(q11, q10) ^ r)  # winner column, of the winning pair

    _run_shares(pool, parts)
    if not winners:
        return Node(out, (x,))

    def bw(g):
        dx = np.zeros(shp)
        idx = np.empty(out.shape, dtype=np.intp)

        def scatter(cs):
            # flat offset of each winner in its channels' block: its row and
            # column in the window, plus the offset of the window's top-left entry
            i = np.multiply(lower[cs], np.intp(w), out=idx[cs])
            i += right[cs]
            i *= bsz
            i += np.arange(0, (cs.stop - cs.start) * h * w * bsz, h * w * bsz)[:, None, None, None]
            i += np.arange(0, h * w * bsz, 2 * w * bsz)[:, None, None]
            i += np.arange(0, w * bsz, 2 * bsz)[:, None]
            i += np.arange(bsz)
            dx[cs].reshape(-1)[i.reshape(-1)] = g[cs].reshape(-1)

        _run_shares(scatter, parts)
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
        gx, gxs, gs = np.empty(x.value.shape), np.empty(x.value.shape), np.empty(s.value.shape[::-1])
        _run_tasks([lambda: np.multiply(g, sv, out=gx),
                    lambda: np.sum(np.multiply(g, x.value, out=gxs), axis=(1, 2), out=gs)],
                   x.value.size >= _SHARE_ELEMS)
        _acc(x, gx)
        _acc(s, gs.T)

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
