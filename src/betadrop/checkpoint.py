"""Self-describing binary checkpoints for networks.

File layout: one line of compact JSON (the manifest: format version, network
structure, array names/shapes/offsets, total payload length) terminated by a
single ``\\n``, followed by all arrays concatenated as little-endian IEEE-754
binary64.  Round trips are bit-exact.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .errors import (
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)
from .gates import GateState
from .layers import ConvLayer, DenseLayer, Network

FORMAT_VERSION = 1

_GATE_ARRAYS = ("a_raw", "b_raw", "gamma", "eta", "kappa_raw", "run_mean", "run_std")


def _gate_manifest(gate: GateState) -> dict:
    return {
        "alpha_over_k": gate.alpha_over_k,
        "eps": gate.eps,
        "mode": gate.mode,
        "momentum": gate.momentum,
        "sigma_floor": gate.sigma_floor,
        "stats_initialized": gate.stats_initialized,
    }


def _gate_array_values(gate: GateState) -> list[np.ndarray]:
    return [
        gate.a_raw.value,
        gate.b_raw.value,
        gate.gamma.value,
        gate.eta.value,
        gate.kappa_raw.value,
        gate.run_mean,
        gate.run_std,
    ]


def save_checkpoint(net: Network, path) -> None:
    layers_manifest = []
    arrays: list[tuple[str, np.ndarray]] = []
    for i, layer in enumerate(net.layers):
        entry: dict = {"kind": layer.kind, "activation": layer.activation}
        if layer.kind == "dense":
            entry["input_select"] = (
                None if layer.input_select is None else [int(v) for v in layer.input_select]
            )
        else:
            entry["pool"] = layer.pool
            entry["stride"] = layer.stride
            entry["padding"] = layer.padding
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


def _network_from(manifest: dict, raw: bytes) -> Network:
    declared = int(manifest["payload_len"])
    extent = sum(int(np.prod(a["shape"])) for a in manifest["arrays"])
    ends = [
        int(a["offset"]) + int(np.prod(a["shape"])) for a in manifest["arrays"]
    ]
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

    values: dict[str, np.ndarray] = {}
    for a in manifest["arrays"]:
        start = int(a["offset"])
        shape = tuple(int(s) for s in a["shape"])
        values[a["name"]] = payload[start : start + int(np.prod(shape))].reshape(shape)

    for name, value in values.items():
        if not np.isfinite(value).all():
            raise CheckpointError(f"array {name!r} holds a non-finite value")

    layers = []
    for i, entry in enumerate(manifest["layers"]):
        gate = None
        if entry["gate"] is not None:
            gm = entry["gate"]
            gate = GateState(
                a_raw=ad.parameter(values[f"L{i}.gate.a_raw"]),
                b_raw=ad.parameter(values[f"L{i}.gate.b_raw"]),
                gamma=ad.parameter(values[f"L{i}.gate.gamma"]),
                eta=ad.parameter(values[f"L{i}.gate.eta"]),
                kappa_raw=ad.parameter(values[f"L{i}.gate.kappa_raw"]),
                run_mean=values[f"L{i}.gate.run_mean"].copy(),
                run_std=values[f"L{i}.gate.run_std"].copy(),
                alpha_over_k=gm["alpha_over_k"],
                eps=gm["eps"],
                mode=gm["mode"],
                momentum=gm["momentum"],
                sigma_floor=gm["sigma_floor"],
                stats_initialized=gm["stats_initialized"],
            )
        if entry["kind"] == "dense":
            layers.append(
                DenseLayer(
                    values[f"L{i}.w"],
                    values[f"L{i}.b"],
                    gate=gate,
                    activation=entry["activation"],
                    input_select=entry["input_select"],
                )
            )
        else:
            layers.append(
                ConvLayer(
                    values[f"L{i}.w"],
                    values[f"L{i}.b"],
                    gate=gate,
                    activation=entry["activation"],
                    pool=entry["pool"],
                    stride=entry["stride"],
                    padding=entry["padding"],
                )
            )
    return Network(layers, gates_enabled=manifest["gates_enabled"], meta=manifest["meta"])
