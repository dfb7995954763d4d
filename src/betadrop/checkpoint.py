"""Self-describing binary checkpoints for networks.

File layout: one line of compact JSON (the manifest: format version, network
structure, array names/shapes/offsets, total payload length) terminated by a
single ``\\n``, followed by all arrays concatenated as little-endian IEEE-754
binary64.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import autodiff as ad
from .config import check_json
from .errors import (
    BetadropError,
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .gates import GateState
from .layers import ConvLayer, DenseLayer, Network, unit_map

FORMAT_VERSION = 2

_GATE_SCALARS = ("alpha_over_k", "eps", "mode", "momentum", "sigma_floor", "stats_initialized")
_GATE_PARAMS = ("a_raw", "b_raw", "gamma", "eta", "kappa_raw")
_GATE_ARRAYS = _GATE_PARAMS + ("run_mean", "run_std")
# the JSON kind of each meta field that a stage or the layers read
_META_KINDS = {"arch": "string", "stage": "string", "input_shape": "list",
               "flops_orig": "number", "speedup": "number", "memory_pct": "number"}


def _gate_manifest(gate: GateState) -> dict:
    return {key: getattr(gate, key) for key in _GATE_SCALARS}


def _gate_array_values(gate: GateState) -> list[np.ndarray]:
    return [getattr(gate, name).value for name in _GATE_PARAMS] + [gate.run_mean, gate.run_std]


def save_checkpoint(net: Network, path) -> None:
    layers_manifest = []
    arrays: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(net.layers):
        entry: dict = {"kind": layer.kind}
        if layer.kind == "dense":
            entry["input_select"] = (
                None if layer.input_select is None else [int(v) for v in layer.input_select]
            )
        entry["gate"] = None if layer.gate is None else _gate_manifest(layer.gate)
        layers_manifest.append(entry)
        arrays.append((f"L{i}.w", layer.w.value))
        arrays.append((f"L{i}.b", layer.b.value))
        if layer.gate is not None:
            for name, value in zip(_GATE_ARRAYS, _gate_array_values(layer.gate)):
                arrays.append((f"L{i}.gate.{name}", value))

    offset = 0
    array_manifest = []
    for name, value in arrays:
        array_manifest.append({"name": name, "shape": list(value.shape), "offset": offset})
        offset += value.size
    manifest = {
        "format_version": FORMAT_VERSION,
        "gates_enabled": net.gates_enabled,
        "meta": net.meta,
        "layers": layers_manifest,
        "arrays": array_manifest,
        "payload_len": offset,
    }
    payload = np.concatenate([v.reshape(-1) for _, v in arrays]) if arrays else np.empty(0)
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.astype("<f8").tobytes())


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError("missing manifest terminator")
    try:
        manifest = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        return _network_from(manifest, blob[nl + 1 :])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, BetadropError):  # DimensionError is a ValueError too
            raise
        raise CheckpointError(f"malformed checkpoint manifest: {exc}") from None


def _network_from(manifest: dict, raw: bytes) -> Network:
    declared = check_json(manifest["payload_len"], ["int"], "manifest payload_len",
                          CheckpointError)
    spans = []  # (name, offset, shape)
    for a in check_json(manifest["arrays"], ["list"], "manifest arrays", CheckpointError):
        name = a["name"]
        what = f"manifest shape of {name!r}"
        shape = tuple(check_json(n, ["int"], what, CheckpointError)
                      for n in check_json(a["shape"], ["list"], what, CheckpointError))
        offset = check_json(a["offset"], ["int"], f"manifest offset of {name!r}",
                            CheckpointError)
        spans.append((name, offset, shape))
    extent = sum(math.prod(shape) for _, _, shape in spans)
    ends = [offset + math.prod(shape) for _, offset, shape in spans]
    if extent != declared or (ends and max(ends) != declared):
        raise CheckpointLengthError(
            f"manifest declares {declared} values but arrays span {extent}"
        )
    if len(raw) < 8 * declared:
        raise CheckpointTruncatedError(
            f"payload holds {len(raw)} bytes, manifest declares {8 * declared}"
        )
    if len(raw) != 8 * declared:
        raise CheckpointLengthError(
            f"payload holds {len(raw)} bytes, manifest declares {8 * declared}"
        )
    payload = np.frombuffer(raw, dtype="<f8").astype(np.float64)

    values = {
        name: payload[offset : offset + math.prod(shape)].reshape(shape)
        for name, offset, shape in spans
    }

    for name, value in values.items():
        if not np.isfinite(value).all():
            raise CheckpointError(f"array {name!r} holds a non-finite value")

    layers = []
    for i, entry in enumerate(check_json(manifest["layers"], ["list"], "manifest layers",
                                         CheckpointError)):
        kind = check_json(entry["kind"], ["string"], f"manifest kind of layer {i}",
                          CheckpointError, choices=("dense", "conv"))
        gate = None
        if entry["gate"] is not None:
            gm = entry["gate"]
            arrays = {name: values[f"L{i}.gate.{name}"] for name in _GATE_ARRAYS}
            gate = GateState(
                **{name: ad.parameter(arrays[name]) for name in _GATE_PARAMS},
                run_mean=arrays["run_mean"].copy(),
                run_std=arrays["run_std"].copy(),
                mode=gm["mode"],
                stats_initialized=check_json(
                    gm["stats_initialized"], ["bool"],
                    f"manifest stats_initialized of layer {i}'s gate", CheckpointError),
                **{key: check_json(gm[key], ["number"], f"manifest {key} of layer {i}'s gate",
                                   CheckpointError)
                   for key in ("alpha_over_k", "eps", "momentum", "sigma_floor")},
            )
        w, b = values[f"L{i}.w"], values[f"L{i}.b"]
        if kind == "dense":
            select = entry["input_select"]
            if select is not None:
                what = f"manifest input_select of layer {i}"
                for n in check_json(select, ["list"], what, CheckpointError):
                    check_json(n, ["int"], f"manifest entry of input_select of layer {i}",
                               CheckpointError)
            layers.append(DenseLayer(w, b, gate=gate, input_select=select))
        else:
            layers.append(ConvLayer(w, b, gate=gate))
    gates_enabled = check_json(manifest["gates_enabled"], ["bool"], "manifest gates_enabled",
                               CheckpointError)
    meta = check_json(manifest["meta"], ["object"], "manifest meta", CheckpointError)
    for key, kind in _META_KINDS.items():
        if key in meta:
            check_json(meta[key], [kind], f"manifest {key}", CheckpointError)
    for n in meta.get("input_shape", []):
        check_json(n, ["int"], "manifest entry of input_shape", CheckpointError)
    net = Network(layers, gates_enabled=gates_enabled, meta=meta)
    _check_selects(net)
    return net


def _check_selects(net: Network) -> None:
    """Each dense ``input_select`` holds ``in_dim`` increasing indices into the
    values its producer emits, as :func:`~betadrop.layers.unit_map` counts them.

    A first layer's producer is the raw input, whose width is unknown
    without ``meta["input_shape"]``.
    """
    selected = [i for i, l in enumerate(net.layers)
                if l.kind == "dense" and l.input_select is not None]
    units = unit_map(net) if selected else []
    for i in selected:
        layer, width = net.layers[i], units[i].width
        select = layer.input_select
        bound = math.inf if width is None else width
        if select.size != layer.in_dim or not (np.diff([*select, bound]) > 0).all():
            raise CheckpointError(
                f"manifest input_select of layer {i} must hold {layer.in_dim} increasing "
                f"indices below {bound}, got {select.tolist()}"
            )
