"""Piecewise-linear decomposition of maxout units along the input path.

``maxout_segments`` returns each piece's share of the path; the scalar
oracle ``_envelope_segments`` below scans one unit at a time and gives
the intervals those shares sum.
"""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift import engine
from deltalift.engine import (
    CROSSING_TOL,
    compute_reference,
    deeplift,
    maxout_segments,
    propagate_multipliers,
)
from deltalift.graph import GraphBuilder, NodeSpec, forward


def maxout_unit(weights, biases):
    """Single maxout layer; weights (pieces, out, in), biases (pieces, out)."""
    weights = np.asarray(weights, dtype=float)
    b = GraphBuilder()
    x = b.input("x", (weights.shape[2],))
    b.maxout("m", x, weights, biases)
    return b.build(outputs=["m"])


def unit_segments(node, x0, x1, unit=0):
    """(piece, t_start, t_end) intervals of one maxout unit along the
    straight path from input x0 to x1, from the scalar oracle."""
    w = node.params["weights"][:, unit, :]
    b = node.params["biases"][:, unit]
    return _envelope_segments(w @ x0 + b, w @ (x1 - x0))


def unit_multipliers(graph, x0, x1, unit=0):
    """Multipliers of input "x" to maxout unit ``unit`` of node "m"."""
    trace = forward(graph, {"x": x1})
    ref = compute_reference(graph, {"x": x0})
    return propagate_multipliers(graph, trace, ref, ("m", unit))["x"]


def envelope_piece_by_sampling(node, x0, x1, unit, n_points=10000):
    """Oracle: dominating piece at dense path samples, by direct evaluation."""
    w = node.params["weights"][:, unit, :]
    b = node.params["biases"][:, unit]
    ts = np.linspace(0.0, 1.0, n_points)
    path = x0[None, :] + ts[:, None] * (x1 - x0)[None, :]
    vals = path @ w.T + b[None, :]  # (n_points, pieces)
    return ts, vals


def segments_piece_at(segments, ts):
    """Piece index the (piece, t_start, t_end) triples assign to each
    path parameter."""
    out = np.empty(len(ts), dtype=int)
    for i, t in enumerate(ts):
        for piece, t_start, t_end in segments:
            if t_start - 1e-12 <= t <= t_end + 1e-12:
                out[i] = piece
                break
    return out


class TestTwoPieceExample:
    # pieces f1(x) = x and f2(x) = 2x - 1 cross at x = 1; the path from
    # reference 0 to input 2 splits evenly between them
    def setup_method(self):
        self.graph = maxout_unit([[[1.0]], [[2.0]]], [[0.0], [-1.0]])
        self.node = self.graph.nodes["m"]

    def test_segments(self):
        segments = unit_segments(self.node, np.zeros(1), np.array([2.0]))
        assert [p for p, _, _ in segments] == [0, 1]
        assert_allclose([t1 - t0 for _, t0, t1 in segments], [0.5, 0.5])
        share = maxout_segments(self.node, np.zeros(1), np.array([2.0]))
        assert share.shape == (1, 1, 2)
        assert_allclose(share[0, 0], [0.5, 0.5])
        assert_allclose(share.sum(), 1.0, atol=1e-12)

    def test_multiplier_and_conservation(self):
        m = unit_multipliers(self.graph, np.zeros(1), np.array([2.0]))
        assert_allclose(m, [1.5])
        tr = forward(self.graph, {"x": np.array([2.0])})
        ref = compute_reference(self.graph, {"x": np.zeros(1)})
        assert_allclose(m @ (tr["x"] - ref["x"]), tr["m"] - ref["m"])
        assert_allclose(tr["m"] - ref["m"], [3.0])

    def test_degenerate_path_single_segment(self):
        segments = unit_segments(self.node, np.array([2.0]), np.array([2.0]))
        # at x = 2 the steeper piece dominates the whole (empty) path
        assert segments == [(1, 0.0, 1.0)]
        share = maxout_segments(self.node, np.array([2.0]), np.array([2.0]))
        assert share[0, 0].tolist() == [0.0, 1.0]


def test_single_piece_reduces_to_affine_rule(rng):
    w = rng.normal(size=(1, 3, 4))
    b = rng.normal(size=(1, 3))
    graph = maxout_unit(w, b)
    node = graph.nodes["m"]
    for unit in range(3):
        x0, x1 = rng.normal(size=4), rng.normal(size=4)
        assert unit_segments(node, x0, x1, unit) == [(0, 0.0, 1.0)]
        assert maxout_segments(node, x0, x1)[0, unit].tolist() == [1.0]
        assert_allclose(unit_multipliers(graph, x0, x1, unit), w[0, unit])


def two_maxout_layers(rng):
    """Maxout layers "m1" (3 pieces) and "m2" (2 pieces) on input "x" of
    size 4, read by a one-unit affine output "o"."""
    b = GraphBuilder()
    h = b.maxout("m1", b.input("x", (4,)), rng.normal(size=(3, 5, 4)),
                 rng.normal(size=(3, 5)))
    h = b.maxout("m2", h, rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 3)))
    b.affine("o", h, rng.normal(size=(1, 3)), np.zeros(1))
    return b.build(outputs=["o"])


def test_sweep_calls_maxout_segments_once_per_maxout_node(rng, monkeypatch):
    # the sweep's maxout rule gets its path shares from maxout_segments,
    # looked up on the module, as the benchmark's tracer wraps it
    graph = two_maxout_layers(rng)
    xs = rng.normal(size=(6, 4))
    expected = deeplift(graph, {"x": xs}, target=("o", 0))
    calls = []

    def counting(node, x0, x1):
        calls.append(node.id)
        return maxout_segments(node, x0, x1)

    monkeypatch.setattr(engine, "maxout_segments", counting)
    report = deeplift(graph, {"x": xs}, target=("o", 0))
    assert sorted(calls) == ["m1", "m2"]
    assert np.array_equal(report.contributions["x"], expected.contributions["x"])
    calls.clear()
    deeplift(graph, {"x": xs[0]}, target=("o", 0))
    assert sorted(calls) == ["m1", "m2"]


def test_piece_coefficients_are_built_once_per_node(rng, monkeypatch):
    # the rule reads one (units*pieces, in) matrix per node, made on
    # first use and kept read-only for the node's life
    builds = []
    build = NodeSpec.__dict__["piece_coefficients"].func

    def counting(node):
        builds.append(node.id)
        return build(node)

    counted = functools.cached_property(counting)
    counted.__set_name__(NodeSpec, "piece_coefficients")
    monkeypatch.setattr(NodeSpec, "piece_coefficients", counted)
    graph = two_maxout_layers(rng)
    xs = rng.normal(size=(6, 4))
    for x in (xs, xs[0], xs[1], xs):
        deeplift(graph, {"x": x}, target=("o", 0))
    assert sorted(builds) == ["m1", "m2"]
    for node in (graph.nodes["m1"], graph.nodes["m2"]):
        coeffs = node.piece_coefficients
        w = node.params["weights"]
        assert np.array_equal(coeffs, w.transpose(1, 0, 2).reshape(-1, w.shape[2]))
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0, 0] = 1.0
    assert sorted(builds) == ["m1", "m2"]


def test_new_weights_get_their_own_piece_coefficients(rng):
    # a node made with other weights, by with_params or replace_params,
    # must not read the coefficients cached on the node it came from
    values0, slopes = rng.normal(size=(2, 40, 4))
    graph = maxout_unit(slopes.T[:, :, None], values0.T)
    node = graph.nodes["m"]
    maxout_segments(node, np.zeros(1), np.ones(1))
    new_values0, new_slopes = rng.normal(size=(2, 40, 4)) * 2.0
    weights, biases = new_slopes.T[:, :, None], new_values0.T
    renewed = graph.replace_params({"m": {"weights": weights, "biases": biases}})
    for new in (node.with_params(weights=weights, biases=biases), renewed.nodes["m"]):
        share = maxout_segments(new, np.zeros(1), np.ones(1))
        for unit in range(40):
            assert np.array_equal(share[0, unit],
                                  oracle_shares(new_values0[unit], new_slopes[unit]))


@pytest.mark.parametrize("n_pieces", [1, 2, 3, 5])
def test_piece_pairs_are_cached_and_read_only(n_pieces):
    i, j = engine._piece_pairs(n_pieces)
    expected = np.triu_indices(n_pieces, 1)
    assert np.array_equal(i, expected[0]) and np.array_equal(j, expected[1])
    assert i.dtype == expected[0].dtype and len(i) == n_pieces * (n_pieces - 1) // 2
    assert engine._piece_pairs(n_pieces)[0] is i
    for index in (i, j):
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index += 1


class TestRandomDecompositions:
    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            pieces = int(rng.integers(2, 6))
            in_dim = int(rng.integers(1, 5))
            w = rng.normal(size=(pieces, 1, in_dim))
            b = rng.normal(size=(pieces, 1))
            graph = maxout_unit(w, b)
            node = graph.nodes["m"]
            x0 = rng.normal(size=in_dim)
            x1 = rng.normal(size=in_dim)
            segments = unit_segments(node, x0, x1)
            ts, vals = envelope_piece_by_sampling(node, x0, x1, 0)
            assigned = segments_piece_at(segments, ts)
            # the assigned piece must attain the envelope at every sample
            attained = vals[np.arange(len(ts)), assigned]
            assert_allclose(attained, vals.max(axis=1), atol=1e-9)
            # and where the margin is clear the identity must match exactly
            top2 = np.sort(vals, axis=1)[:, -2:]
            clear = (top2[:, 1] - top2[:, 0]) > 1e-9
            assert (assigned[clear] == vals[clear].argmax(axis=1)).all()

    def test_fractions_partition_unity(self, rng):
        for _ in range(50):
            pieces = int(rng.integers(1, 7))
            in_dim = int(rng.integers(1, 5))
            graph = maxout_unit(
                rng.normal(size=(pieces, 2, in_dim)), rng.normal(size=(pieces, 2))
            )
            node = graph.nodes["m"]
            for unit in range(2):
                x0, x1 = rng.normal(size=in_dim), rng.normal(size=in_dim)
                share = maxout_segments(node, x0, x1)
                assert share.shape == (1, 2, pieces)
                assert abs(share[0, unit].sum() - 1.0) < 1e-12
                assert (share[0, unit] >= 0).all()
                segments = unit_segments(node, x0, x1, unit)
                fractions = np.zeros(pieces)
                for piece, t0, t1 in segments:
                    fractions[piece] += t1 - t0
                assert np.array_equal(share[0, unit], fractions)
                bounds = [t0 for _, t0, _ in segments]
                assert bounds == sorted(bounds)

    def test_summation_to_delta_residual(self, rng):
        for _ in range(50):
            pieces = int(rng.integers(1, 6))
            in_dim = int(rng.integers(1, 5))
            out_dim = int(rng.integers(1, 4))
            graph = maxout_unit(
                rng.normal(size=(pieces, out_dim, in_dim)),
                rng.normal(size=(pieces, out_dim)),
            )
            x0 = rng.normal(size=in_dim)
            x1 = rng.normal(size=in_dim)
            for unit in range(out_dim):
                report = deeplift(graph, {"x": x1}, {"x": x0},
                                  target=("m", unit))
                assert report.residual < 1e-9


# ---------------------------------------------------------------------------
# The vectorized shares against a scalar oracle that scans one envelope at
# a time.


def _envelope_segments(values0, slopes):
    """Upper envelope of lines value0_i + slope_i * t over t in [0, 1].

    The exact pairwise crossing roots inside (CROSSING_TOL,
    1 - CROSSING_TOL) cut [0, 1] into intervals.  The dominating piece of
    each interval is read off at its midpoint, with exact-value ties
    broken by larger slope and then by lowest index, so degenerate ties
    at an interval start resolve to the piece that dominates just after
    it.  Returns one (piece, t_start, t_end) triple per interval, with
    increasing boundaries.
    """
    n = len(values0)
    cuts = set()
    for i in range(n):
        for j in range(i + 1, n):
            dslope = slopes[j] - slopes[i]
            if dslope == 0.0:
                continue
            cross = (values0[i] - values0[j]) / dslope
            if CROSSING_TOL < cross < 1.0 - CROSSING_TOL:
                cuts.add(float(cross))

    bounds = [0.0] + sorted(cuts) + [1.0]
    segments = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (t0 + t1)
        vals = values0 + slopes * mid
        tied = np.flatnonzero(vals == vals.max())
        segments.append((int(tied[np.argmax(slopes[tied])]), t0, t1))
    return segments


def oracle_shares(values0, slopes):
    """Each piece's summed interval length, in path order."""
    shares = np.zeros(len(values0))
    for piece, t0, t1 in _envelope_segments(values0, slopes):
        shares[piece] += t1 - t0
    return shares


def line_units(values0, slopes):
    """A one-input maxout node whose unit u, on the path from x0 = 0 to
    x1 = 1, has the lines values0[u] + slopes[u] * t: biases values0 and
    weights slopes, both (units, pieces)."""
    values0, slopes = np.asarray(values0, float), np.asarray(slopes, float)
    return maxout_unit(slopes.T[:, :, None], values0.T).nodes["m"]


def assert_shares_match_oracle(values0, slopes):
    """Rows of (values0, slopes) as the units of one node, in one call,
    each against the oracle: bit-identical shares."""
    share = maxout_segments(line_units(values0, slopes), np.zeros(1), np.ones(1))
    assert share.shape == (1,) + values0.shape
    for unit, (v0, s) in enumerate(zip(values0, slopes)):
        assert np.array_equal(share[0, unit], oracle_shares(v0, s)), unit
    return share[0]


class TestMaxoutShares:
    def test_random_units_match_oracle(self):
        rng = np.random.default_rng(6006)
        n_multi = 0
        for n_pieces in range(1, 7):
            values0 = rng.normal(size=(400, n_pieces))
            slopes = rng.normal(size=(400, n_pieces)) * 2.0
            share = assert_shares_match_oracle(values0, slopes)
            n_multi += int(((share > 0).sum(axis=-1) >= 3).sum())
        # 2,400 units, and many of them cross more than once on [0, 1]
        assert n_multi >= 100

    def test_maxout_layer_units_match_oracle(self, rng):
        # values and slopes formed by a maxout layer on a batch of inputs
        w = rng.normal(size=(4, 8, 5))
        b = rng.normal(size=(4, 8))
        x0, x1 = rng.normal(size=5), rng.normal(size=(3, 5))
        share = maxout_segments(maxout_unit(w, b).nodes["m"], x0, x1)
        assert share.shape == (3, 8, 4)
        for row in range(3):
            for unit in range(8):
                expected = oracle_shares(w[:, unit] @ x0 + b[:, unit],
                                         w[:, unit] @ (x1[row] - x0))
                assert_allclose(share[row, unit], expected, rtol=0, atol=1e-12)

    def test_single_reference_row_pairs_with_every_input_row(self, rng):
        node = maxout_unit(rng.normal(size=(4, 6, 3)), rng.normal(size=(4, 6))).nodes["m"]
        x0, x1 = rng.normal(size=3), rng.normal(size=(5, 3))
        got = maxout_segments(node, x0, x1)
        expected = maxout_segments(node, np.tile(x0, (5, 1)), x1)
        assert got.shape == expected.shape == (5, 6, 4)
        assert_allclose(got, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("values0, slopes, pieces", [
        # parallel pieces: the higher line wins throughout
        ([0.0, 1.0], [1.0, 1.0], [1]),
        # identical pieces: the lowest index wins
        ([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [0]),
        # a tie at t = 0 goes to the piece dominating just after it
        ([0.0, 0.0], [1.0, 2.0], [1]),
        # slopes below the values' rounding tie at every midpoint: the
        # larger slope wins, then the lower index
        ([1e20, 1e20, 1e20], [1.0, 2.0, 2.0], [1]),
        # a crossing within CROSSING_TOL of 1 is dropped
        ([0.0, 1.0 - 0.5 * CROSSING_TOL], [1.0, 0.0], [1]),
        # crossings within CROSSING_TOL of each other stay apart
        ([0.0, 0.5, 1.0 + CROSSING_TOL], [1.0, 0.0, -1.0], [0, 2]),
        # x1 == x0: every slope 0, the piece on top at the reference
        ([0.3, 0.9, -0.2], [0.0, 0.0, 0.0], [1]),
        # a single piece is one segment
        ([1.5], [-2.0], [0]),
    ], ids=["parallel", "identical", "tie-at-0", "tie-below-rounding", "crossing-near-1",
            "close-crossings", "x1-equals-x0", "one-piece"])
    def test_degenerate_units_match_oracle(self, values0, slopes, pieces):
        share = assert_shares_match_oracle(np.array([values0]), np.array([slopes]))
        assert np.flatnonzero(share[0]).tolist() == pieces
        assert abs(share[0].sum() - 1.0) < 1e-15

    def test_sliver_between_close_crossings_goes_to_the_piece_on_top(self):
        # the flat piece tops the other two only on [0.5 - tol/4, 0.5 + tol/4]
        share = assert_shares_match_oracle(
            np.array([[0.0, 0.5 + 0.25 * CROSSING_TOL, 1.0]]), np.array([[1.0, 0.0, -1.0]]))
        assert_allclose(share[0], [0.5 - 0.25 * CROSSING_TOL, 0.5 * CROSSING_TOL,
                                   0.5 - 0.25 * CROSSING_TOL], rtol=1e-3, atol=0)
