"""Masked dense/conv layers, network builders, and physical shrinking.

Dense gates mask the layer *input* units; conv gates mask the *output
channels*, shared across all spatial positions of a channel.  Training passes
and evaluation passes share one layer walk and differ in the mask policy:
training builds an autodiff graph with sampled relaxed masks, evaluation runs
the same ops under :func:`~betadrop.autodiff.no_grad` with the deterministic
expected masks.  Conv activations are channel-major, (C, B, H, W); weights,
gate inputs and masks, and the flattened dense input keep per-example layouts.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .distributions import LOGIT_EPS, make_rng, open_unit_uniform
from .errors import ContractError, DimensionError, PruneCollapseError
from .gates import (
    MODE_DBB,
    GateState,
    beta_sample_node,
    concrete_mask_node,
    dbb_phi_node,
    kl_bb_node,
    kl_beta_gaussian_node,
    sample_pi_node,
)

RHO_VAR_DEFAULT = math.sqrt(5.0)


class DenseLayer:
    """A dense layer; relu follows it unless it is the network's last layer."""

    kind = "dense"

    def __init__(self, w, b, gate: GateState | None = None,
                 input_select: np.ndarray | None = None):
        self.w = w if isinstance(w, Node) else ad.parameter(w)  # (in, out)
        self.b = b if isinstance(b, Node) else ad.parameter(b)  # (out,)
        self.gate = gate
        self.input_select = None if input_select is None else np.asarray(input_select, dtype=np.intp)
        if gate is not None and gate.k != self.in_dim:
            raise DimensionError(
                f"gate width {gate.k} does not match dense input width {self.in_dim}"
            )

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
        self.w = w if isinstance(w, Node) else ad.parameter(w)  # (out, in, k, k)
        self.b = b if isinstance(b, Node) else ad.parameter(b)  # (out,)
        self.gate = gate
        if gate is not None and gate.k != self.out_channels:
            raise DimensionError(
                f"gate width {gate.k} does not match conv output channels {self.out_channels}"
            )

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
    """An ordered stack of layers plus gate bookkeeping."""

    def __init__(self, layers, gates_enabled: bool = False, meta: dict | None = None):
        self.layers = list(layers)
        self.gates_enabled = gates_enabled
        self.meta = dict(meta or {})

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

    def set_gate_mode(self, mode: str) -> None:
        for g in self.gates():
            g.mode = mode

    def variational_parameters(self) -> list[Node]:
        out = []
        for g in self.gates():
            out.extend(g.trainable_nodes())
        return out

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self.parameters())


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _walk(net: Network, x: np.ndarray, gate_mask) -> Node:
    """The one layer walk behind :func:`forward_train` and :func:`forward_eval`.

    ``gate_mask(gate_index, gate, batch_size, gate_input)`` is the mask
    policy: it returns the (batch_size, K) mask node to apply.  It calls
    ``gate_input()`` only when it reads the gate's (B, K) input node (the
    dense input itself, or the channel means of the conv output), so a
    policy that needs just the batch size builds no channel means.
    When ``net.meta`` has an ``input_shape``, each example must hold that
    many values; a shrunk first layer's ``input_select`` indexes into them.
    A conv net's examples are reshaped to that (C, H, W) shape, so flat,
    (B, H, W) and (B, C, H, W) inputs all work, and made channel-major once;
    ``flatten`` gives the dense head rows in per-example (C, H, W) order.

    A conv layer runs conv, 2x2 max pooling, relu, then the channel mask,
    on a map a quarter the size of the conv output.  This gives the
    values of the textbook order conv, mask, relu, pool bit for bit:
    a mask entry is one number >= 0 per (example, channel), and rounding is
    monotone, so the max commutes with the relu and with the scaling.  The
    DBB gate input is still the channel mean of the full-size conv output.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = net.meta.get("input_shape")
    if shape and math.prod(x.shape[1:]) != math.prod(shape):
        raise DimensionError(
            f"network expects {math.prod(shape)} inputs per example "
            f"(input_shape {list(shape)}), got {x.shape}"
        )
    if net.layers and net.layers[0].kind == "conv":
        x = x.reshape(len(x), *(shape or x.shape[1:])).swapaxes(0, 1)
    elif x.ndim > 2:
        x = x.reshape(len(x), -1)
    h: Node = ad.constant(x)
    gate_idx = 0
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        gated = net.gates_enabled and layer.gate is not None
        # the policy calls gate_input before h is rebound, so it reads this layer's node
        if layer.kind == "dense":
            if h.value.ndim == 4:
                h = ad.flatten(h)
            if layer.input_select is not None:
                h = ad.gather_cols(h, layer.input_select)
            if h.value.shape[1:] != (layer.in_dim,):
                raise DimensionError(
                    f"dense layer expects {layer.in_dim} inputs per example, got {h.value.shape}"
                )
            if gated:
                h = ad.mul(gate_mask(gate_idx, layer.gate, len(h.value), lambda: h), h)
            h = ad.add_rowwise(ad.matmul(h, layer.w), layer.b)
            if i != last:
                h = ad.relu(h)
        else:
            h = ad.conv2d(h, layer.w, layer.b)
            if gated:
                mask = gate_mask(gate_idx, layer.gate, h.value.shape[1],
                                 lambda: ad.global_avg_pool(h))
            h = ad.maxpool2x2(h)  # rebinding h frees the full-size map under no_grad
            h = ad.relu(h)
            if gated:
                h = ad.scale_channels(h, mask)
        gate_idx += gated
    return h


def forward_train(net: Network, x: np.ndarray, rng, tau: float = 0.1,
                  rho_var: float = RHO_VAR_DEFAULT, logit_eps: float = LOGIT_EPS,
                  force_masks: dict | None = None) -> tuple[Node, list[Node]]:
    """Stochastic training pass.

    Returns the logits node and one KL node per gated layer (in layer
    order).  When the network's gates are disabled the pass is a plain
    forward and the KL list is empty.  ``force_masks`` (gate index -> mask
    array of shape (K,) or (B, K)) replaces sampling for the named gates;
    used by equivalence tests.
    """
    if net.gates_enabled and not net.gates():
        raise ContractError("gates are enabled but the network has none")
    kl_terms: list[Node] = []

    def sampled_mask(k: int, gate: GateState, bsz: int, gate_input) -> Node:
        if force_masks is not None and k in force_masks:
            forced = np.asarray(force_masks[k], dtype=np.float64)
            return ad.constant(np.broadcast_to(forced, (bsz, forced.shape[-1])))
        pi = sample_pi_node(gate, rng)
        kl = kl_bb_node(gate)
        if gate.mode == MODE_DBB:
            beta = beta_sample_node(gate, rng)
            x_in = gate_input()
            probs = dbb_phi_node(gate, x_in, pi, beta)
            gate.update_running_stats(x_in.value)
            kl = ad.add(kl, kl_beta_gaussian_node(gate, rho_var))
        else:
            probs = pi
        kl_terms.append(kl)
        u = open_unit_uniform(rng, (bsz, gate.k))
        return concrete_mask_node(probs, u, tau, logit_eps)

    return _walk(net, x, sampled_mask), kl_terms


def forward_eval(net: Network, x: np.ndarray, return_gate_info: bool = False,
                 keep_sets=None):
    """Deterministic evaluation pass with expected masks, built under no_grad.

    With ``return_gate_info`` also returns, per gated layer, the gate input
    and the applied expected mask (both per example).  ``keep_sets`` (one
    index array per gate) forces the masks of all other units to zero: the
    reference semantics that :func:`shrink` must reproduce.
    """
    gate_info: list[tuple[np.ndarray, np.ndarray]] = []

    def expected_mask(k: int, gate: GateState, bsz: int, gate_input) -> Node:
        x_in = gate_input().value if gate.mode == MODE_DBB or return_gate_info else None
        mask = gate.expected_mask(x_in)
        if keep_sets is not None:
            sel = (Ellipsis, np.asarray(keep_sets[k], dtype=np.intp))
            kept = np.zeros_like(mask)
            kept[sel] = mask[sel]
            mask = kept
        mask = np.broadcast_to(mask, (bsz, gate.k))
        if return_gate_info:
            gate_info.append((x_in.copy(), mask.copy()))
        return ad.constant(mask)

    with ad.no_grad():
        logits = _walk(net, x, expected_mask).value
    return (logits, gate_info) if return_gate_info else logits


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
    rng = make_rng(seed)
    dims = (784, 500, 300, 10)
    layers = []
    for i in range(3):
        fan_in, fan_out = dims[i], dims[i + 1]
        layers.append(
            DenseLayer(
                _init_dense(rng, fan_in, fan_out, relu_gain=i < 2),
                np.zeros(fan_out),
                gate=GateState.create(fan_in, **gate_options),
            )
        )
    return Network(layers, meta={"arch": "lenet_500_300", "input_shape": [784]})


def build_lenet5_caffe(seed: int = 0, **gate_options) -> Network:
    """20/50-channel 5x5 conv stack + 800-500-10 dense head, gated 20-50-800-500."""
    rng = make_rng(seed)
    g = lambda k: GateState.create(k, **gate_options)
    layers = [
        ConvLayer(_init_conv(rng, 20, 1, 5), np.zeros(20), gate=g(20)),
        ConvLayer(_init_conv(rng, 50, 20, 5), np.zeros(50), gate=g(50)),
        DenseLayer(_init_dense(rng, 800, 500, True), np.zeros(500), gate=g(800)),
        DenseLayer(_init_dense(rng, 500, 10, False), np.zeros(10), gate=g(500)),
    ]
    return Network(layers, meta={"arch": "lenet5_caffe", "input_shape": [1, 28, 28]})


def build_mlp(dims, seed: int = 0, gated: bool = True, **gate_options) -> Network:
    """Generic gated MLP for fixtures and custom runs; gates every layer input."""
    dims = tuple(int(d) for d in dims)
    rng = make_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        layers.append(
            DenseLayer(
                _init_dense(rng, dims[i], dims[i + 1], relu_gain=i < len(dims) - 2),
                np.zeros(dims[i + 1]),
                gate=GateState.create(dims[i], **gate_options) if gated else None,
            )
        )
    return Network(layers, meta={"arch": "mlp", "dims": list(dims), "input_shape": [dims[0]]})


# ---------------------------------------------------------------------------
# physical shrinking
# ---------------------------------------------------------------------------


def conv_extents(net: Network) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
    """Per leading conv layer, its output's (H, W) before and after its own pooling."""
    shape = net.meta.get("input_shape")
    out: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    if not shape or len(shape) != 3:
        if any(l.kind == "conv" for l in net.layers):
            raise ContractError(
                "conv networks need meta['input_shape'] = [C, H, W] for "
                "spatial accounting"
            )
        return out
    h, w = int(shape[1]), int(shape[2])
    for i, layer in enumerate(net.layers):
        if layer.kind != "conv":
            break
        conv = (h - layer.kernel + 1, w - layer.kernel + 1)
        h, w = conv[0] // 2, conv[1] // 2
        out[i] = (conv, (h, w))
    return out


def _input_width(net: Network, layer: DenseLayer) -> int:
    """Values per example of the raw input that a first dense layer reads."""
    shape = net.meta.get("input_shape")
    if shape:
        return math.prod(shape)
    if layer.input_select is None:
        return layer.in_dim
    raise ContractError("a first layer with an input_select needs meta['input_shape'] to shrink")


def shrink(net: Network, keep_sets, fold_masks: bool = False) -> Network:
    """Physically remove pruned units and return the smaller network.

    ``keep_sets`` holds one sorted index array per gated layer (layer
    order); an ungated layer keeps all its units.  A conv layer keeps its
    kept output channels and the input channels its producer kept.  Every
    dense layer is narrowed by one rule: its rows are its own keep set,
    intersected with what the shrunk producer emits.  The raw input emits
    every value, a conv layer its kept channels times the pooled area, and
    a dense producer has its columns cut to exactly the rows used.  The
    layer's ``input_select`` then indexes the used values among the
    emitted ones, or is None when it uses them all.

    With ``fold_masks`` the input-independent expected masks of the
    surviving units are folded into the weights and the gates are dropped,
    leaving pure dense/conv arithmetic (only valid for BB-mode gates: the
    input-dependent factor of a DBB gate cannot be folded).
    """
    keeps = [np.sort(np.asarray(k, dtype=np.intp)) for k in keep_sets]
    gated = net.gated_layers()
    if len(keeps) != len(gated):
        raise ContractError(
            f"expected {len(gated)} keep sets, got {len(keeps)}"
        )
    for (li, _), keep in zip(gated, keeps):
        if keep.size == 0:
            raise PruneCollapseError(f"pruning removes every unit of layer {li}")
    if fold_masks and any(g.mode == MODE_DBB for _, g in gated):
        raise ContractError("fold_masks requires all gates in BB mode")

    keep_of_layer = {li: keep for (li, _), keep in zip(gated, keeps)}
    extents = conv_extents(net)

    new_layers: list = []
    channels: np.ndarray | None = None  # the producing conv layer's kept channels
    for i, layer in enumerate(net.layers):
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
        # emitted: the sorted positions of the producer's output that survive
        prev = new_layers[-1] if new_layers else None
        if prev is None:
            emitted = np.arange(_input_width(net, layer))
        elif prev.kind == "conv":  # flat (channel, y, x) positions of the kept channels
            _, (hy, wx) = extents[i - 1]
            emitted = (channels[:, None] * (hy * wx) + np.arange(hy * wx)).reshape(-1)
        else:
            emitted = np.arange(prev.out_dim)
        positions = np.arange(layer.in_dim) if layer.input_select is None else layer.input_select
        rows = np.arange(layer.in_dim) if own is None else own
        rows = rows[np.isin(positions[rows], emitted)]
        if rows.size == 0:
            raise PruneCollapseError(f"pruning removes every input of layer {i}")
        used = positions[rows]
        if prev is not None and prev.kind == "dense":  # the producer emits only what is used
            prev.w = ad.parameter(prev.w.value[:, used].copy())
            prev.b = ad.parameter(prev.b.value[used].copy())
            emitted = used
        w = layer.w.value[rows]
        gate = gate.subset(rows) if gate is not None else None
        if fold_masks and gate is not None:
            w = w * gate.expected_pi()[:, None]
            gate = None
        new_layers.append(
            DenseLayer(w, layer.b.value.copy(), gate=gate,
                       input_select=None if used.size == emitted.size
                       else np.searchsorted(emitted, used))
        )

    still_gated = any(l.gate is not None for l in new_layers)
    return Network(new_layers, gates_enabled=net.gates_enabled and still_gated,
                   meta=dict(net.meta))
