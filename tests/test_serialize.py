"""Model file round-trips and failure modes."""

import base64
import json
import re

import numpy as np
import pytest

from deltalift.graph import GraphBuilder, GraphError, forward
from deltalift.serialize import (
    FORMAT_VERSION,
    ModelFormatError,
    graph_from_dict,
    graph_to_dict,
    load_model,
    save_model,
)
from deltalift.genomics import build_genomics_cnn

from graphgen import random_graph_case


def encode_param_v1(value):
    """The version 1 array encoder: flat row-major decimal lists."""
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "values": value.ravel().tolist()}
    if isinstance(value, tuple):  # input shape
        return list(value)
    return value


def graph_to_dict_v1(graph):
    payload = graph_to_dict(graph)
    payload["version"] = 1
    for entry in payload["nodes"]:
        params = graph.nodes[entry["id"]].params
        entry["params"] = {k: encode_param_v1(v) for k, v in params.items()}
    return payload


def save_model_v1(graph, path):
    """Reference writer for version 1 files, as version 1 builds wrote them."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict_v1(graph), fh, indent=1, allow_nan=False)
        fh.write("\n")


WRITERS = {"v2": save_model, "v1": save_model_v1}


def assert_bit_identical(graph, loaded):
    assert list(loaded.nodes) == list(graph.nodes)
    for nid, node in graph.nodes.items():
        other = loaded.nodes[nid]
        assert node.kind == other.kind
        assert node.inputs == other.inputs
        assert node.output_shape == other.output_shape
        assert set(node.params) == set(other.params)
        for key, value in node.params.items():
            if isinstance(value, np.ndarray):
                assert other.params[key].dtype == np.float64
                assert other.params[key].shape == value.shape
                assert other.params[key].tobytes() == value.tobytes()
            else:
                assert value == other.params[key]
    assert loaded.outputs == graph.outputs
    assert loaded.constraint_groups == graph.constraint_groups


def test_round_trip_bit_identical_weights(tmp_path, rng):
    for i in range(20):
        case = random_graph_case(rng)
        for name, writer in WRITERS.items():
            path = tmp_path / f"model{i}_{name}.json"
            writer(case.graph, path)
            assert_bit_identical(case.graph, load_model(path))


def test_saved_file_is_current_version(tmp_path, rng):
    path = tmp_path / "model.json"
    save_model(random_graph_case(rng).graph, path)
    assert json.loads(path.read_text())["version"] == FORMAT_VERSION == 2


@pytest.mark.parametrize("writer", WRITERS)
def test_paper_cnn_round_trip_bit_identical(tmp_path, rng, writer):
    graph = build_genomics_cnn(seed=5)
    path = tmp_path / "paper_cnn.json"
    WRITERS[writer](graph, path)
    loaded = load_model(path)
    assert len(loaded.constraint_groups) == 200
    assert_bit_identical(graph, loaded)
    x = np.zeros((8, 200, 4))
    x[:, np.arange(200), rng.integers(0, 4, size=(8, 200))] = 1.0
    assert np.array_equal(forward(graph, {"seq": x})["prob"],
                          forward(loaded, {"seq": x})["prob"])


def test_edge_values_round_trip_bytes(tmp_path):
    edge = np.array([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.0])
    b = GraphBuilder()
    x = b.input("x", (6,))
    b.affine("h", x, edge.reshape(1, 6), edge[:1])
    graph = b.build(outputs=["h"])
    for writer in WRITERS.values():
        path = tmp_path / "edge.json"
        writer(graph, path)
        loaded = load_model(path)
        assert loaded.nodes["h"].params["weights"].tobytes() == edge.tobytes()
        assert loaded.nodes["h"].params["bias"].tobytes() == edge[:1].tobytes()


def test_genomics_cnn_round_trip_forward_identical(tmp_path, rng):
    graph = build_genomics_cnn(length=40, pool_width=10, pool_stride=10,
                               dense_units=16, seed=3)
    for name, writer in WRITERS.items():
        path = tmp_path / f"cnn_{name}.json"
        writer(graph, path)
        loaded = load_model(path)
        assert len(loaded.constraint_groups) == 40
        for _ in range(100):
            x = np.zeros((40, 4))
            x[np.arange(40), rng.integers(0, 4, size=40)] = 1.0
            a = forward(graph, {"seq": x})["prob"]
            b = forward(loaded, {"seq": x})["prob"]
            assert np.array_equal(a, b)


def test_unknown_node_kind_named_in_error(tmp_path):
    graph = build_genomics_cnn(length=20, pool_width=3, pool_stride=3,
                               dense_units=8, seed=0)
    payload = graph_to_dict(graph)
    payload["nodes"][0]["kind"] = "quantum"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="quantum"):
        load_model(path)


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(ModelFormatError, match="line 1"):
        load_model(path)


def test_truncated_file_reports_location(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"version": 1, "nodes": [')
    with pytest.raises(ModelFormatError, match="parse error at line"):
        load_model(path)


def test_version_mismatch_explicit(tmp_path, rng):
    case = random_graph_case(rng)
    payload = graph_to_dict(case.graph)
    payload["version"] = FORMAT_VERSION + 7
    path = tmp_path / "future.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def b64(values):
    return base64.b64encode(np.asarray(values).astype("<f8").tobytes()).decode()


def first_affine(payload):
    return next(n for n in payload["nodes"] if n["kind"] == "affine")


def test_wrong_value_count_rejected(tmp_path, rng):
    case = random_graph_case(rng)
    v1 = graph_to_dict_v1(case.graph)
    first_affine(v1)["params"]["weights"]["values"] = [1.0, 2.0]
    v2 = graph_to_dict(case.graph)
    first_affine(v2)["params"]["weights"]["float64_le"] = b64([1.0, 2.0])
    for payload in (v1, v2):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="values"):
            load_model(path)


def with_bad_entry(bad):
    def corrupt(p):
        values = np.zeros(int(np.prod(p["shape"])))
        values[1] = bad
        return {"shape": p["shape"], "float64_le": b64(values)}
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        # characters outside the base64 alphabet
        lambda p: {**p, "float64_le": p["float64_le"][:-8] + "!@#$%^&*"},
        # a newline is outside the alphabet too under strict decoding
        lambda p: {**p, "float64_le": p["float64_le"][:8] + "\n" + p["float64_le"][8:]},
        # 12 bytes: not a whole number of float64 values
        lambda p: {**p, "float64_le": base64.b64encode(bytes(12)).decode()},
        # NaN and inf smuggled in as bytes
        with_bad_entry(np.nan),
        with_bad_entry(np.inf),
        with_bad_entry(-np.inf),
        # a version 1 list inside a version 2 file, alone or next to the bytes
        lambda p: {"shape": p["shape"], "values": [0.0] * int(np.prod(p["shape"]))},
        lambda p: {**p, "values": [0.0] * int(np.prod(p["shape"]))},
    ],
    ids=["non-base64", "newline", "partial-float", "nan", "inf", "-inf",
         "values-list", "both-payloads"],
)
def test_malformed_v2_payload_names_node_and_param(tmp_path, corrupt):
    graph = build_genomics_cnn(length=20, pool_width=3, pool_stride=3,
                               dense_units=8, seed=0)
    payload = graph_to_dict(graph)
    entry = first_affine(payload)
    entry["params"]["bias"] = corrupt(entry["params"]["bias"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert entry["id"] in str(info.value)
    assert "bias" in str(info.value)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "no_nodes.json"
    path.write_text('{"version": 1, "outputs": []}')
    with pytest.raises(ModelFormatError, match="nodes"):
        load_model(path)


def replace_node(payload, index, **fields):
    nodes = list(payload["nodes"])
    nodes[index] = {**nodes[index], **fields}
    return {**payload, "nodes": nodes}


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda p: {**p, "nodes": 5}, "field 'nodes'"),
        (lambda p: {**p, "nodes": ["seq"] + p["nodes"]}, "node entry 0"),
        (lambda p: replace_node(p, 0, output_shape=5), "field 'output_shape'"),
        (lambda p: replace_node(p, 1, inputs=3), "field 'inputs'"),
        (lambda p: replace_node(p, 1, params=[]), "field 'params'"),
        (lambda p: {**p, "outputs": 5}, "field 'outputs'"),
        (lambda p: {**p, "constraint_groups": 5}, "field 'constraint_groups'"),
        (lambda p: replace_node(p, 1, params={
            **p["nodes"][1]["params"],
            "bias": {**p["nodes"][1]["params"]["bias"], "shape": 5}}), "field 'shape'"),
    ],
    ids=["nodes-number", "entry-string", "output-shape-number", "inputs-number",
         "params-list", "outputs-number", "groups-number", "param-shape-number"],
)
def test_wrong_json_structure_names_the_field(tmp_path, edit, field):
    # valid JSON of the wrong structure raised a bare TypeError
    payload = graph_to_dict(build_genomics_cnn(length=20, pool_width=3, pool_stride=3,
                                               dense_units=8, seed=0))
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(edit(payload)))
    with pytest.raises(ModelFormatError, match=re.escape(field)):
        load_model(path)


def paper_cnn_text():
    return json.dumps(graph_to_dict(build_genomics_cnn(seed=0)), indent=1)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_json_constants_rejected(tmp_path, token):
    path = tmp_path / "constant.json"
    text = paper_cnn_text()
    assert '"total": 1.0' in text
    path.write_text(text.replace('"total": 1.0', f'"total": {token}', 1))
    with pytest.raises(ModelFormatError, match=f"{re.escape(token)} is not a JSON number"):
        load_model(path)


def set_conv_shape(payload):
    next(n for n in payload["nodes"] if n["kind"] == "conv1d")["output_shape"] = [185, 20]
    return json.dumps(payload)


def repeat_group_index(payload):
    payload["constraint_groups"][0]["indices"] = [0, 0, 1]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "edit",
    [
        # 1e999 is a JSON number that parses to inf
        lambda payload: json.dumps(payload).replace('"total": 1.0', '"total": 1e999', 1),
        # the paper CNN's conv output is (186, 20)
        set_conv_shape,
        repeat_group_index,
    ],
    ids=["infinite-total", "conv-shape", "repeated-group-index"],
)
def test_file_that_parses_but_fails_validation(tmp_path, edit):
    path = tmp_path / "invalid.json"
    path.write_text(edit(graph_to_dict(build_genomics_cnn(seed=0))))
    parsed = graph_from_dict(json.loads(path.read_text()))
    with pytest.raises(GraphError) as direct:
        parsed.require_valid()
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == str(direct.value)


def node_entry(payload, node_id):
    return next(n for n in payload["nodes"] if n["id"] == node_id)


# One corrupted field each of a saved paper CNN: the node it sits in and
# the edit of that node's entry.  Each crashed ``load_model`` with a
# KeyError, AttributeError or TypeError before every node's parameters
# were checked against its kind.
MUTATIONS = {
    "drop-bias": ("fc1", lambda e: e["params"].pop("bias")),
    "drop-weights": ("fc1", lambda e: e["params"].pop("weights")),
    "drop-filters": ("conv", lambda e: e["params"].pop("filters")),
    "drop-stride": ("conv", lambda e: e["params"].pop("stride")),
    "drop-width": ("pool", lambda e: e["params"].pop("width")),
    "drop-slopes": ("conv_act", lambda e: e["params"].pop("slopes")),
    "drop-shape": ("seq", lambda e: e["params"].pop("shape")),
    "scalar-weights": ("fc1", lambda e: e["params"].update(weights=0.5)),
    "stride-array": ("pool", lambda e: e["params"].update(stride=[2, 2])),
    "width-2.5": ("pool", lambda e: e["params"].update(width=2.5)),
    "negative-dimension": ("seq", lambda e: e["params"].update(
        shape=[-e["params"]["shape"][0], 4])),
    "relu-two-inputs": ("fc1_act", lambda e: e.update(
        kind="relu", inputs=[e["inputs"][0]] * 2, params={})),
    # loaded and ran as a relu, its slopes unread
    "prelu-to-relu": ("fc1_act", lambda e: e.update(kind="relu")),
}


def mutated(payload, name):
    """A copy of the model file ``payload`` with mutation ``name`` applied."""
    node_id, edit = MUTATIONS[name]
    payload = json.loads(json.dumps(payload))
    edit(node_entry(payload, node_id))
    return payload


@pytest.mark.parametrize("name", MUTATIONS)
def test_corrupted_parameter_names_the_node(tmp_path, name):
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(mutated(graph_to_dict(build_genomics_cnn(seed=0)), name)))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert f"node '{MUTATIONS[name][0]}'" in str(info.value)


def test_a_parameter_the_kind_does_not_take_is_refused(tmp_path):
    path = tmp_path / "relu.json"
    cnn = build_genomics_cnn(seed=0)
    assert cnn.nodes["fc1_act"].kind == "prelu"
    path.write_text(json.dumps(mutated(graph_to_dict(cnn), "prelu-to-relu")))
    with pytest.raises(ModelFormatError,
                       match="node 'fc1_act': relu node takes no parameter 'slopes'"):
        load_model(path)
