"""Model files: versioned JSON with binary weight payloads.

A model file is UTF-8 JSON with top-level fields ``version``, ``nodes``,
``outputs`` and ``constraint_groups``.  Node ids, kinds, inputs, output
shapes, window geometry, constraint groups and outputs are plain JSON.
In version 2, the format written here, each parameter array is stored as
``{"shape": [...], "float64_le": "<base64>"}``: the base64 (RFC 4648,
standard alphabet, padded) encoding of the array's row-major
little-endian float64 bytes.  Weights are binary because a float written
as text costs ~450 ns to parse whatever parser reads it, which made
loading the paper CNN's 53,621 weights the largest fixed cost of a CLI
command; the bytes also round-trip bit-exactly by construction.

Version 1 files, which store each array as
``{"shape": [...], "values": [flat row-major floats]}`` (shortest-repr
decimals, also bit-exact), stay readable; they are never written.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .graph import ConstraintGroup, Graph, GraphError, NodeSpec

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


class ModelFormatError(Exception):
    """Malformed or unsupported model file."""


def _encode_param(value):
    if isinstance(value, np.ndarray):
        raw = value.astype("<f8", copy=False).tobytes()
        return {
            "shape": list(value.shape),
            "float64_le": base64.b64encode(raw).decode("ascii"),
        }
    if isinstance(value, tuple):  # input shape
        return list(value)
    return value


def _decode_payload(node_id, key, payload):
    try:
        raw = base64.b64decode(payload, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ModelFormatError(
            f"node '{node_id}': param '{key}' is not valid base64: {exc}"
        ) from exc
    if len(raw) % 8:
        raise ModelFormatError(
            f"node '{node_id}': param '{key}' holds {len(raw)} bytes, "
            "not a whole number of float64 values"
        )
    return np.frombuffer(raw, dtype="<f8")


def _decode_param(node_id, key, value, version):
    if isinstance(value, dict):
        field = "values" if version == 1 else "float64_le"
        if set(value) != {"shape", field}:
            raise ModelFormatError(
                f"node '{node_id}': param '{key}' must carry 'shape' and "
                f"'{field}' in a version {version} file"
            )
        if version == 1:
            arr = np.asarray(value["values"], dtype=np.float64)
        else:
            arr = _decode_payload(node_id, key, value[field])
        shape = tuple(int(s) for s in _require(
            value["shape"], list, f"node '{node_id}': param '{key}' field 'shape'"))
        if arr.size != int(np.prod(shape)):
            raise ModelFormatError(
                f"node '{node_id}': param '{key}' has {arr.size} values "
                f"for shape {shape}"
            )
        return arr.reshape(shape)
    if isinstance(value, list):
        return tuple(value)
    return value


def _require(value, expected: type, what: str):
    """``value`` if it is of the JSON type ``expected`` (list or dict);
    otherwise ModelFormatError naming ``what``."""
    if not isinstance(value, expected):
        name = "an array" if expected is list else "an object"
        raise ModelFormatError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def graph_to_dict(graph: Graph) -> dict:
    nodes = []
    for node in graph.nodes.values():
        nodes.append(
            {
                "id": node.id,
                "kind": node.kind,
                "inputs": list(node.inputs),
                "output_shape": list(node.output_shape),
                "params": {k: _encode_param(v) for k, v in node.params.items()},
            }
        )
    return {
        "version": FORMAT_VERSION,
        "nodes": nodes,
        "outputs": list(graph.outputs),
        "constraint_groups": [
            {"input": g.input_id, "indices": list(g.indices), "total": g.total}
            for g in graph.constraint_groups
        ],
    }


def graph_from_dict(payload: dict) -> Graph:
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must hold a JSON object at top level")
    version = payload.get("version")
    if version not in READABLE_VERSIONS:
        raise ModelFormatError(
            f"unsupported model format version {version!r}; this build reads "
            f"versions {', '.join(map(str, READABLE_VERSIONS))}"
        )
    for key in ("nodes", "outputs"):
        if key not in payload:
            raise ModelFormatError(f"model file is missing the '{key}' field")

    nodes = []
    for i, entry in enumerate(_require(payload["nodes"], list, "field 'nodes'")):
        _require(entry, dict, f"node entry {i}")
        try:
            node_id = entry["id"]
            kind = entry["kind"]
            where = f"node {node_id!r}: field"
            params = {
                k: _decode_param(node_id, k, v, version)
                for k, v in _require(entry.get("params", {}), dict,
                                     f"{where} 'params'").items()
            }
            node = NodeSpec(
                node_id,
                kind,
                tuple(_require(entry.get("inputs", []), list, f"{where} 'inputs'")),
                tuple(_require(entry["output_shape"], list, f"{where} 'output_shape'")),
                params,
            )
        except ModelFormatError:
            raise
        except KeyError as exc:
            raise ModelFormatError(
                f"node entry {entry.get('id', '?')!r} is missing field {exc}"
            ) from exc
        except (GraphError, ValueError) as exc:
            raise ModelFormatError(str(exc)) from exc
        except TypeError as exc:  # e.g. a shape entry that is a list
            raise ModelFormatError(f"node entry {i}: {exc}") from exc
        nodes.append(node)

    groups = []
    group_entries = _require(payload.get("constraint_groups", []), list,
                             "field 'constraint_groups'")
    for i, entry in enumerate(group_entries):
        try:
            groups.append(
                ConstraintGroup(entry["input"], tuple(entry["indices"]), entry["total"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"constraint group {i} is malformed: {exc}") from exc

    try:
        return Graph(nodes, tuple(_require(payload["outputs"], list, "field 'outputs'")),
                     groups)
    except GraphError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_model(graph: Graph, path) -> None:
    """Write the graph to ``path``; the graph must validate first."""
    graph.require_valid()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=1, allow_nan=False)
        fh.write("\n")


def load_model(path) -> Graph:
    """Read a graph back; ``load(save(g))`` reproduces ``g`` exactly.

    Reads format versions 1 and 2.  Raises ModelFormatError for syntax
    errors (with a location; ``NaN`` and ``Infinity`` are not JSON),
    version mismatches, unknown node kinds, malformed weight payloads
    (naming the node and the param) and graphs that fail validation.
    """
    def reject_constant(token):
        raise ModelFormatError(
            f"{path}: parse error: {token} is not a JSON number "
            "(model files hold finite values only)"
        )

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    graph = graph_from_dict(payload)
    try:
        graph.require_valid()
    except GraphError as exc:
        raise ModelFormatError(str(exc)) from exc
    return graph
