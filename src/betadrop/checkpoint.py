"""Self-describing binary checkpoints for networks.

File layout: one line of compact JSON (the manifest: format version,
``meta`` and one entry per layer with its kind, weight ``shape``, gate
mode and scalars, and dense ``input_select``) terminated by a single ``\\n``,
then every layer's arrays as little-endian IEEE-754 binary64: ``w``, ``b``
and the arrays of its gate's mode (:data:`~betadrop.gates.MODE_ARRAYS`).
Gates in different modes and a DBB gate with no input statistics are refused
at save, before the file opens.
The weight's shape is the only stated shape: the bias has the layer's output
width (dense ``shape[1]``, conv ``shape[0]``) and every gate array the gate
width ``shape[0]``.  Round trips are bit-exact.  Gates act exactly when a
layer holds one, so a layer without one (as in a pretrained network) has gate null.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import check_json
from .errors import (
    CheckpointError,
    CheckpointLengthError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ContractError,
)
from .gates import MODE_ARRAYS, MODE_DBB, SCALARS, GateState
from .layers import ConvLayer, DenseLayer, Network

FORMAT_VERSION = 6

_GATE_KEYS = sorted(("mode", *SCALARS))  # a gate's manifest keys, in file order
# the number of weight extents of each layer kind
_RANK = {"dense": 2, "conv": 4}
# the JSON kind of each optional meta field that a stage reads
_META_KINDS = {"arch": "string", "stage": "string",
               "flops_orig": "number", "speedup": "number", "memory_pct": "number"}


def save_checkpoint(net: Network, path) -> None:
    dbb = net.gate_mode == MODE_DBB  # raises ContractError for gates in different modes
    entries = []
    arrays: list[np.ndarray] = []
    for i, layer in enumerate(net.layers):
        entry: dict = {"kind": layer.kind, "shape": list(layer.w.value.shape)}
        if layer.kind == "dense":
            entry["input_select"] = (
                None if layer.input_select is None else [int(v) for v in layer.input_select]
            )
        gate = layer.gate
        entry["gate"] = None if gate is None else {key: getattr(gate, key) for key in _GATE_KEYS}
        entries.append(entry)
        arrays += [layer.w.value, layer.b.value]
        if gate is not None:
            if dbb and gate.run_mean is None:
                raise ContractError(f"the DBB gate of layer {i} holds no input statistics")
            arrays += gate.arrays().values()
    manifest = {
        "format_version": FORMAT_VERSION,
        "meta": net.meta,
        "layers": entries,
    }
    payload = np.concatenate([v.reshape(-1) for v in arrays]) if arrays else np.empty(0)
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
    version = check_json(manifest, ["object"], "manifest", CheckpointError).get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint format version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        return _network_from(manifest, blob[nl + 1 :])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"malformed checkpoint manifest: {exc}") from None


def _network_from(manifest: dict, raw: bytes) -> Network:
    cursor = 0

    def read(name: str, shape: tuple) -> np.ndarray:
        """The next ``shape`` values of the payload, which must all be finite."""
        nonlocal cursor
        count = math.prod(shape)
        end = cursor + 8 * count
        if end > len(raw):
            raise CheckpointTruncatedError(
                f"payload holds {len(raw)} bytes, array {name!r} ends at byte {end}"
            )
        value = np.frombuffer(raw, "<f8", count, cursor).astype(np.float64).reshape(shape)
        if not np.isfinite(value).all():
            raise CheckpointError(f"array {name!r} holds a non-finite value")
        cursor = end
        return value

    layers = []
    for i, entry in enumerate(check_json(manifest["layers"], ["list"], "manifest layers",
                                         CheckpointError)):
        kind = check_json(entry["kind"], ["string"], f"manifest kind of layer {i}",
                          CheckpointError, choices=tuple(_RANK))
        what = f"manifest shape of layer {i}"
        shape = tuple(check_json(n, ["int"], what, CheckpointError)
                      for n in check_json(entry["shape"], ["list"], what, CheckpointError))
        if len(shape) != _RANK[kind]:
            raise CheckpointError(
                f"{what} must hold {_RANK[kind]} extents for a {kind} layer, got {list(shape)}"
            )
        w = read(f"L{i}.w", shape)
        b = read(f"L{i}.b", (shape[1] if kind == "dense" else shape[0],))
        gate = None
        if entry["gate"] is not None:
            gm = entry["gate"]
            mode = check_json(gm["mode"], ["string"], f"manifest mode of layer {i}'s gate",
                              CheckpointError, choices=tuple(MODE_ARRAYS))
            gate = GateState.from_arrays(
                mode, {name: read(f"L{i}.gate.{name}", shape[:1]) for name in MODE_ARRAYS[mode]},
                **{key: check_json(gm[key], ["number"], f"manifest {key} of layer {i}'s gate",
                                   CheckpointError) for key in SCALARS})
        if kind == "dense":
            select = check_json(entry["input_select"], ["null", "list:int"],
                                f"manifest input_select of layer {i}", CheckpointError)
            layers.append(DenseLayer(w, b, gate=gate, input_select=select))
        else:
            layers.append(ConvLayer(w, b, gate=gate))
    if cursor != len(raw):
        raise CheckpointLengthError(
            f"payload holds {len(raw)} bytes, the layers use {cursor}"
        )
    meta = check_json(manifest["meta"], ["object"], "manifest meta", CheckpointError)
    for key, kind in _META_KINDS.items():
        if key in meta:
            check_json(meta[key], [kind], f"manifest {key}", CheckpointError)
    check_json(meta["input_shape"], ["list"], "manifest input_shape", CheckpointError)
    try:
        return Network(layers, meta=meta)
    except ContractError as exc:
        raise CheckpointError(f"checkpoint network does not fit together: {exc}") from None
