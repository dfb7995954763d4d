"""Masked dense/conv layers, network builders, and physical shrinking.

Dense gates mask the layer *input* units; conv gates mask the *output
channels*, shared across all spatial positions of a channel.  Training passes
and evaluation passes share one layer walk and differ in its policy: training
builds an autodiff graph with sampled relaxed masks, evaluation runs under
:func:`~betadrop.autodiff.no_grad` with the deterministic expected masks and
runs each conv layer as one tiled pass that keeps only the pooled map and the
channel means.  Conv activations are batch-innermost, (C, H, W, B); weights,
gate inputs and masks, and the flattened dense input keep per-example layouts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .distributions import make_rng
from .errors import ContractError, DimensionError, PruneCollapseError
from .gates import MODE_BB, MODE_DBB, GateState, training_mask
from .gates import concrete_mask_node  # noqa: F401  (perfbench/check_smoke.py reads it here)

RHO_VAR_DEFAULT = math.sqrt(5.0)


class DenseLayer:
    """A dense layer; relu follows it unless it is the network's last layer."""

    kind = "dense"

    def __init__(self, w, b, gate: GateState | None = None,
                 input_select: np.ndarray | None = None):
        self.w = ad.parameter(w)  # (in, out)
        self.b = ad.parameter(b)  # (out,)
        self.gate = gate
        self.input_select = None if input_select is None else np.asarray(input_select, dtype=np.intp)

    @property
    def in_dim(self) -> int:
        return self.w.value.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.value.shape[1]


class ConvLayer:
    """An unpadded stride-1 conv, then 2x2 max pooling, relu and the channel mask."""

    kind = "conv"

    def __init__(self, w, b, gate: GateState | None = None):
        self.w = ad.parameter(w)  # (out, in, k, k)
        self.b = ad.parameter(b)  # (out,)
        self.gate = gate

    @property
    def in_channels(self) -> int:
        return self.w.value.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w.value.shape[0]

    @property
    def kernel(self) -> int:
        return self.w.value.shape[2]


class Network:
    """An ordered stack of layers plus gate bookkeeping.

    ``meta["input_shape"]`` lists the shape of one input example: [D] for a
    dense net, [C, H, W] for a conv net.  Building one runs :func:`unit_map`,
    so a network whose layers do not fit raises ContractError and is never
    built.  The map is not kept, as callers may still drop a gate.
    """

    def __init__(self, layers, meta: dict | None = None):
        self.layers = list(layers)
        self.meta = dict(meta or {})
        unit_map(self)
        self.gate_mode  # reading it checks that the gates share one mode

    def parameters(self) -> list[Node]:
        out = []
        for layer in self.layers:
            out.extend([layer.w, layer.b])
        return out

    def weight_nodes(self) -> list[Node]:
        return [layer.w for layer in self.layers]

    def gates(self) -> list[GateState]:
        return [layer.gate for layer in self.layers if layer.gate is not None]

    def gated_layers(self) -> list[tuple[int, GateState]]:
        return [(i, l.gate) for i, l in enumerate(self.layers) if l.gate is not None]

    @property
    def gate_mode(self) -> str | None:
        """The mode of every gate, or None without gates; gates in different
        modes raise ContractError."""
        modes = {g.mode for g in self.gates()}
        if len(modes) > 1:
            raise ContractError(f"a network's gates must share one mode, got {sorted(modes)}")
        return modes.pop() if modes else None

    def set_gate_mode(self, mode: str | None, **options) -> None:
        """Add, change or drop the gates, which act exactly when the network
        holds them.  None drops every gate.  MODE_BB gives a network without
        gates a fresh BB gate per layer, ``GateState.create(width, **options)``,
        on a conv layer's output channels and a dense layer's input units, and
        leaves a BB network as it is.  MODE_DBB enters DBB on each BB gate
        (:meth:`GateState.enter_dbb`).  Anything else raises ContractError:
        ``options`` for any other change, DBB without gates, and DBB back to BB."""
        current = self.gate_mode
        if mode is None and not options:
            for layer in self.layers:
                layer.gate = None
        elif mode == MODE_BB and current is None:
            for layer in self.layers:
                width = layer.out_channels if layer.kind == "conv" else layer.in_dim
                layer.gate = GateState.create(width, **options)
        elif mode == MODE_DBB and current is not None and not options:
            for g in self.gates():
                g.enter_dbb()
        elif options or mode != MODE_BB or current == MODE_DBB:
            raise ContractError(
                f"gates cannot enter mode {mode!r}{' with options' if options else ''} from "
                f"mode {current!r}: new BB gates take options, and DBB is entered from BB")

    def variational_parameters(self) -> list[Node]:
        return [n for g in self.gates() for n in g.trainable_nodes()]


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _walk(net: Network, x: np.ndarray, gate_mask, conv_block) -> Node:
    """The one layer walk behind :func:`forward_train` and :func:`forward_eval`.

    The policy is two functions.  ``gate_mask(gate_index, gate, batch_size,
    gate_input)`` returns the (batch_size, K) mask node to apply, and calls
    ``gate_input()`` only when it reads the gate's (B, K) input node (the
    dense input, or the conv output's channel means).  ``conv_block(h,
    layer)`` returns a conv layer's pooled conv output and its gate's
    ``gate_input``: :func:`_graph_conv` in training, :func:`_tiled_conv` in
    evaluation.  The walk checks only that a batch axis holds at least one
    example, each of as many values as ``net.meta["input_shape"]`` (a shrunk
    first layer's ``input_select`` indexes into them): building the network
    checked that its layers fit.  A dense net reads each example flat.  A
    conv net reshapes it to that (C, H, W) shape, so flat, (B, H, W) and
    (B, C, H, W) inputs all work, and moves the batch innermost,
    (C, H, W, B), once; ``flatten`` gives the dense head rows in per-example
    (C, H, W) order.

    A conv layer runs conv, 2x2 max pooling, relu, then the channel mask,
    on a map a quarter the size of the conv output.  This gives the
    values of the textbook order conv, mask, relu, pool bit for bit:
    a mask entry is one number >= 0 per (example, channel), and rounding is
    monotone, so the max commutes with the relu and with the scaling.  The
    DBB gate input is still the channel mean of the full-size conv output.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = net.meta["input_shape"]
    if x.ndim == 0 or math.prod(x.shape[1:]) != math.prod(shape):
        raise DimensionError(
            f"network expects {math.prod(shape)} inputs per example "
            f"(input_shape {shape}), got {x.shape}"
        )
    if len(x) == 0:
        raise ContractError("a forward pass needs at least one example")
    if net.layers[0].kind == "conv":
        x = x.reshape(len(x), *shape).transpose(1, 2, 3, 0)
    else:
        x = x.reshape(len(x), math.prod(shape))
    h: Node = ad.constant(x)
    gate_idx = 0
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        gated = layer.gate is not None
        if layer.kind == "dense":
            if h.value.ndim == 4:
                h = ad.flatten(h)
            if layer.input_select is not None:
                h = ad.gather_cols(h, layer.input_select)
            if gated:  # the policy calls gate_input before h is rebound
                h = ad.mul(gate_mask(gate_idx, layer.gate, len(h.value), lambda: h), h)
            h = ad.add_rowwise(ad.matmul(h, layer.w), layer.b)
            if i != last:
                h = ad.relu(h)
        else:
            h, gate_input = conv_block(h, layer)
            h = ad.relu(h)
            if gated:
                h = ad.scale_channels(h, gate_mask(gate_idx, layer.gate, h.value.shape[3],
                                                   gate_input))
        gate_idx += gated
    return h


def _graph_conv(h: Node, layer: ConvLayer):
    """Conv and 2x2 max pooling as graph ops, with the conv output's channel means."""
    conv = ad.conv2d(h, layer.w, layer.b)
    return ad.maxpool2x2(conv), lambda: ad.global_avg_pool(conv)


def _tiled_conv(h: Node, layer: ConvLayer):
    """The same in the one tiled pass of :func:`~betadrop.autodiff.conv2d_pool_means`."""
    pooled, means = ad.conv2d_pool_means(h.value, layer.w.value, layer.b.value)
    return ad.constant(pooled), lambda: ad.constant(means)


def forward_train(net: Network, x: np.ndarray, rng, tau: float = 0.1,
                  rho_var: float = RHO_VAR_DEFAULT) -> tuple[Node, list[Node]]:
    """Stochastic training pass.

    Returns the logits node and one KL node per gated layer (in layer
    order).  A network without gates gets a plain forward and an empty KL
    list.
    """
    kl_terms: list[Node] = []

    def sampled_mask(k: int, gate: GateState, bsz: int, gate_input) -> Node:
        mask, kl = training_mask(gate, rng, bsz, gate_input, tau, rho_var)
        kl_terms.append(kl)
        return mask

    return _walk(net, x, sampled_mask, _graph_conv), kl_terms


def forward_eval(net: Network, x: np.ndarray, return_masks: bool = False):
    """Deterministic evaluation pass with expected masks, built under no_grad.

    With ``return_masks`` also returns, per gated layer, the (batch, K) mask it
    applied, uncopied and read-only; a BB gate's is one row broadcast.
    """
    masks: list[np.ndarray] = []

    def expected_mask(k: int, gate: GateState, bsz: int, gate_input) -> Node:
        x_in = gate_input().value if gate.mode == MODE_DBB else None
        mask = np.broadcast_to(gate.expected_mask(x_in), (bsz, gate.k))
        if return_masks:
            masks.append(mask)
        return ad.constant(mask)

    with ad.no_grad():
        logits = _walk(net, x, expected_mask, _tiled_conv).value
    return (logits, masks) if return_masks else logits


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _init_dense(rng, fan_in: int, fan_out: int, relu_gain: bool) -> np.ndarray:
    std = math.sqrt((2.0 if relu_gain else 1.0) / fan_in)
    return rng.normal(0.0, std, size=(fan_in, fan_out))


def _init_conv(rng, c_out: int, c_in: int, k: int) -> np.ndarray:
    std = math.sqrt(2.0 / (c_in * k * k))
    return rng.normal(0.0, std, size=(c_out, c_in, k, k))


def build_lenet_500_300(seed: int = 0, **gate_options) -> Network:
    """784-500-300-10 dense classifier; gates on the input and both hidden inputs.

    ``gate_options`` are :class:`GateState` scalar fields, set on every gate.
    """
    net = build_mlp((784, 500, 300, 10), seed, **gate_options)
    net.meta = {"arch": "lenet_500_300", "input_shape": [784]}
    return net


def build_lenet5_caffe(seed: int = 0, **gate_options) -> Network:
    """20/50-channel 5x5 conv stack + 800-500-10 dense head, gated 20-50-800-500."""
    rng = make_rng(seed)
    layers = [
        ConvLayer(_init_conv(rng, 20, 1, 5), np.zeros(20)),
        ConvLayer(_init_conv(rng, 50, 20, 5), np.zeros(50)),
        DenseLayer(_init_dense(rng, 800, 500, True), np.zeros(500)),
        DenseLayer(_init_dense(rng, 500, 10, False), np.zeros(10)),
    ]
    net = Network(layers, meta={"arch": "lenet5_caffe", "input_shape": [1, 28, 28]})
    net.set_gate_mode(MODE_BB, **gate_options)
    return net


def build_mlp(dims, seed: int = 0, **gate_options) -> Network:
    """Generic gated MLP for fixtures and custom runs; gates every layer input."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or min(dims) < 1:
        raise DimensionError(f"mlp dims must be two or more positive widths, got {list(dims)}")
    rng = make_rng(seed)
    layers = [DenseLayer(_init_dense(rng, dims[i], dims[i + 1], relu_gain=i < len(dims) - 2),
                         np.zeros(dims[i + 1]))
              for i in range(len(dims) - 1)]
    net = Network(layers, meta={"arch": "mlp", "dims": list(dims), "input_shape": [dims[0]]})
    net.set_gate_mode(MODE_BB, **gate_options)
    return net


# ---------------------------------------------------------------------------
# physical shrinking
# ---------------------------------------------------------------------------


class LayerUnits(NamedTuple):
    """One layer's entry in :func:`unit_map`."""

    in_units: int  # input channels (conv) or rows (dense)
    out_units: int  # output channels or columns
    in_gate: int | None  # the gate whose keep set holds the kept inputs
    out_gate: int | None  # the gate whose keep set holds the kept outputs
    macs: int  # multiply-accumulates per kept (input, output) pair
    weights: int  # weights per kept pair
    width: int  # values per example the layer reads (a dense input_select picks from them)
    source: np.ndarray | None  # dense after a conv: per row, the conv channel it reads


def unit_map(net: Network) -> list[LayerUnits]:
    """Per layer, the producer unit behind each input unit and the cost per kept pair.

    A conv gate keeps output channels and a dense gate input rows.  A conv
    layer's input channel c is channel c of the conv before it, so that
    conv's gate keeps it; a dense layer's columns are kept by the gate of
    the dense layer after it (only dense layers follow a dense layer).  A
    dense layer reads the ``width`` values its producer emits, through its
    ``input_select``: the raw input (``meta["input_shape"]`` values), a
    dense layer's columns, or a conv layer's pooled map flattened in
    (C, H, W) order, whose value p belongs to channel p // (H*W).  Raw
    values and dense columns have no producer gate (``source`` None).  A
    conv pair costs k^2 * H_out * W_out multiply-accumulates and k^2
    weights, a dense pair one of each.

    The same walk is the one check that the layers fit; :class:`Network`
    runs it when built.  It raises ContractError unless ``input_shape`` is
    a non-empty list of positive ints ([C, H, W] if there is a conv); the
    layers are convs, then one or more dense layers, with positive weight
    extents; each conv reads its producer's channels through a square kernel
    and gives even extents of at least 2 for the pooling; each dense layer
    reads all ``width`` values, or ``in_dim`` strictly increasing ones in
    [0, width) through its ``input_select``; and each gate masks its units.
    """
    shape = net.meta.get("input_shape")
    if not (isinstance(shape, list) and shape and all(type(n) is int and n > 0 for n in shape)):
        raise ContractError(f"input_shape must list one or more positive ints, got {shape!r}")
    kinds = [layer.kind for layer in net.layers]
    n_conv = kinds.count("conv")
    if kinds[:n_conv] != ["conv"] * n_conv or n_conv == len(kinds):
        raise ContractError(f"a network is conv layers, then one or more dense layers, got {kinds}")
    if n_conv and len(shape) != 3:
        raise ContractError(f"a conv network needs input_shape [C, H, W], got {shape}")
    channels, h, w = shape if n_conv else (None,) * 3
    gate_of = {li: gi for gi, (li, _) in enumerate(net.gated_layers())}
    width, hw = math.prod(shape), None  # hw: values per channel of a conv producer
    units: list[LayerUnits] = []
    for i, layer in enumerate(net.layers):
        wshape = layer.w.value.shape
        if min(wshape) < 1:
            raise ContractError(f"layer {i} has an empty weight of shape {wshape}")
        if layer.kind == "conv":
            k = layer.kernel
            if wshape[1:] != (channels, k, k):
                raise ContractError(f"conv layer {i} of shape {wshape} needs {channels} input "
                                    "channels and a square kernel")
            h, w = h - k + 1, w - k + 1
            if min(h, w) < 2 or h % 2 or w % 2:
                raise ContractError(f"conv layer {i} outputs {h}x{w} maps, which 2x2 pooling "
                                    "cannot take")
            masked = channels = layer.out_channels
            units.append(LayerUnits(layer.in_channels, channels,
                                    units[-1].out_gate if units else None, gate_of.get(i),
                                    k * k * h * w, k * k, width, None))
            h, w = h // 2, w // 2
            width, hw = channels * h * w, h * w
        else:
            select = layer.input_select
            if select is None and layer.in_dim != width:
                raise ContractError(f"dense layer {i} has {layer.in_dim} rows for {width} inputs")
            if select is not None and (select.shape != (layer.in_dim,) or select[0] < 0
                                       or select[-1] >= width or (np.diff(select) <= 0).any()):
                raise ContractError(f"input_select of layer {i} must hold {layer.in_dim} "
                                    f"increasing indices below {width}")
            source = None if hw is None else (
                np.arange(layer.in_dim) if select is None else select) // hw
            units.append(LayerUnits(layer.in_dim, layer.out_dim, gate_of.get(i),
                                    gate_of.get(i + 1), 1, 1, width, source))
            masked, width, hw = layer.in_dim, layer.out_dim, None
        if layer.gate is not None and layer.gate.k != masked:
            raise ContractError(f"the gate of layer {i} is {layer.gate.k} wide, not {masked}")
    return units


def shrink(net: Network, keep_sets, fold_masks: bool = False) -> Network:
    """Physically remove pruned units and return the smaller network.

    ``keep_sets`` holds one index array per gated layer (layer order), of
    distinct integers in [0, K), or a ContractError is raised; an ungated
    layer keeps all its units.  A conv layer keeps its
    kept output channels and the input channels its producer kept.  Every
    dense layer is narrowed by one rule: its rows are its own keep set,
    intersected with what the shrunk producer emits.  The raw input emits
    every value, a conv layer the values of its kept channels (by
    :func:`unit_map`), and a dense producer has its columns cut to exactly
    the rows used.  The layer's ``input_select`` then indexes the used
    values among the emitted ones, or is None when it uses them all.

    With ``fold_masks`` the input-independent expected masks of the
    surviving units are folded into the weights and the gates are dropped,
    leaving pure dense/conv arithmetic (only valid for BB-mode gates: the
    input-dependent factor of a DBB gate cannot be folded).
    """
    keeps = [np.asarray(k) for k in keep_sets]
    gated = net.gated_layers()
    if len(keeps) != len(gated):
        raise ContractError(f"expected {len(gated)} keep sets, got {len(keeps)}")
    for i, ((li, gate), keep) in enumerate(zip(gated, keeps)):
        if keep.size == 0:
            raise PruneCollapseError(f"pruning removes every unit of layer {li}")
        if keep.ndim != 1 or keep.dtype.kind not in "iu":
            raise ContractError(f"the keep set of layer {li} must be a 1-D integer array")
        keep = keeps[i] = np.sort(keep).astype(np.intp)
        if keep[0] < 0 or keep[-1] >= gate.k or (keep[1:] == keep[:-1]).any():
            raise ContractError(
                f"the keep set of layer {li} must hold distinct indices in [0, {gate.k})"
            )
    if fold_masks and net.gate_mode == MODE_DBB:
        raise ContractError("fold_masks requires all gates in BB mode")

    keep_of_layer = {li: keep for (li, _), keep in zip(gated, keeps)}

    new_layers: list = []
    channels: np.ndarray | None = None  # the producing conv layer's kept channels
    for i, (layer, u) in enumerate(zip(net.layers, unit_map(net))):
        own = keep_of_layer.get(i)
        gate = layer.gate
        if layer.kind == "conv":
            out_keep = np.arange(layer.out_channels) if own is None else own
            w = layer.w.value
            if channels is not None:
                w = w[:, channels]
            w = w[out_keep].copy()
            b = layer.b.value[out_keep].copy()
            gate = gate.subset(out_keep) if gate is not None else None
            if fold_masks and gate is not None:
                m = gate.expected_pi()
                w *= m[:, None, None, None]
                b *= m
                gate = None
            new_layers.append(ConvLayer(w, b, gate=gate))
            channels = out_keep
            continue
        rows = np.arange(layer.in_dim) if own is None else own
        if u.source is not None:  # a conv producer emits only the values of its kept channels
            rows = rows[np.isin(u.source[rows], channels)]
        if rows.size == 0:
            raise PruneCollapseError(f"pruning removes every input of layer {i}")
        used = rows if layer.input_select is None else layer.input_select[rows]
        prev = new_layers[-1] if new_layers else None
        if prev is None:  # the raw input emits every value
            select = None if used.size == u.width else used
        elif prev.kind == "dense":  # the producer emits only what is used
            prev.w = ad.parameter(prev.w.value[:, used].copy())
            prev.b = ad.parameter(prev.b.value[used].copy())
            select = None
        else:  # value p is offset p % hw of channel p // hw, and the kept channels stay
            hw = u.width // net.layers[i - 1].out_channels
            select = (None if used.size == channels.size * hw
                      else np.searchsorted(channels, u.source[rows]) * hw + used % hw)
        w = layer.w.value[rows]
        gate = gate.subset(rows) if gate is not None else None
        if fold_masks and gate is not None:
            w = w * gate.expected_pi()[:, None]
            gate = None
        new_layers.append(DenseLayer(w, layer.b.value.copy(), gate=gate, input_select=select))

    return Network(new_layers, meta=dict(net.meta))
