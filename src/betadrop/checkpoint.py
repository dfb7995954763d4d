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
from .errors import (
    BetadropError,
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .gates import GateState
from .layers import ConvLayer, DenseLayer, Network

FORMAT_VERSION = 2

_GATE_SCALARS = ("alpha_over_k", "eps", "mode", "momentum", "sigma_floor", "stats_initialized")
_GATE_PARAMS = ("a_raw", "b_raw", "gamma", "eta", "kappa_raw")
_GATE_ARRAYS = _GATE_PARAMS + ("run_mean", "run_std")


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
    except (TypeError, ValueError) as exc:
        if isinstance(exc, BetadropError):  # DimensionError is a ValueError too
            raise
        raise CheckpointError(f"malformed checkpoint manifest: {exc}") from None


_EXPECTED = {int: "a non-negative integer", float: "a finite number", bool: "true or false",
             list: "a list"}


def _checked(value, kind: type, what: str):
    """A manifest value of the given JSON type, or CheckpointError naming it.

    ``int`` means a non-negative integer and ``float`` any finite number.
    """
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and math.isfinite(value)
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
        ok = ok and (kind is not int or value >= 0)
    if not ok:
        raise CheckpointError(f"manifest {what} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def _one_of(value, choices: tuple, what: str):
    if value not in choices:
        raise CheckpointError(f"manifest {what} must be one of {choices!r}, got {value!r}")
    return value


def _network_from(manifest: dict, raw: bytes) -> Network:
    declared = _checked(manifest["payload_len"], int, "payload_len")
    spans = []  # (name, offset, shape)
    for a in _checked(manifest["arrays"], list, "arrays"):
        name = a["name"]
        shape = tuple(
            _checked(n, int, f"shape of {name!r}")
            for n in _checked(a["shape"], list, f"shape of {name!r}")
        )
        spans.append((name, _checked(a["offset"], int, f"offset of {name!r}"), shape))
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
    for i, entry in enumerate(_checked(manifest["layers"], list, "layers")):
        kind = _one_of(entry["kind"], ("dense", "conv"), f"kind of layer {i}")
        gate = None
        if entry["gate"] is not None:
            gm = entry["gate"]
            arrays = {name: values[f"L{i}.gate.{name}"] for name in _GATE_ARRAYS}
            gate = GateState(
                **{name: ad.parameter(arrays[name]) for name in _GATE_PARAMS},
                run_mean=arrays["run_mean"].copy(),
                run_std=arrays["run_std"].copy(),
                mode=gm["mode"],
                stats_initialized=_checked(
                    gm["stats_initialized"], bool, f"stats_initialized of layer {i}'s gate"
                ),
                **{key: _checked(gm[key], float, f"{key} of layer {i}'s gate")
                   for key in ("alpha_over_k", "eps", "momentum", "sigma_floor")},
            )
        w, b = values[f"L{i}.w"], values[f"L{i}.b"]
        if kind == "dense":
            layers.append(DenseLayer(w, b, gate=gate, input_select=entry["input_select"]))
        else:
            layers.append(ConvLayer(w, b, gate=gate))
    gates_enabled = _checked(manifest["gates_enabled"], bool, "gates_enabled")
    net = Network(layers, gates_enabled=gates_enabled, meta=manifest["meta"])
    for n in _checked(net.meta.get("input_shape", []), list, "input_shape"):
        _checked(n, int, "entry of input_shape")
    return net
