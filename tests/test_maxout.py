"""Piecewise-linear decomposition of maxout units along the input path."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from deltalift.engine import (
    CROSSING_TOL,
    compute_reference,
    deeplift,
    local_multipliers_maxout,
    maxout_segments,
    path_envelope,
)
from deltalift.graph import GraphBuilder, forward


def maxout_unit(weights, biases):
    """Single maxout layer; weights (pieces, out, in), biases (pieces, out)."""
    weights = np.asarray(weights, dtype=float)
    b = GraphBuilder()
    x = b.input("x", (weights.shape[2],))
    b.maxout("m", x, weights, biases)
    return b.build(outputs=["m"])


def envelope_piece_by_sampling(node, x0, x1, unit, n_points=10000):
    """Oracle: dominating piece at dense path samples, by direct evaluation."""
    w = node.params["weights"][:, unit, :]
    b = node.params["biases"][:, unit]
    ts = np.linspace(0.0, 1.0, n_points)
    path = x0[None, :] + ts[:, None] * (x1 - x0)[None, :]
    vals = path @ w.T + b[None, :]  # (n_points, pieces)
    return ts, vals


def segments_piece_at(decomp, ts):
    """Piece index the decomposition assigns to each path parameter."""
    out = np.empty(len(ts), dtype=int)
    for i, t in enumerate(ts):
        for seg in decomp.segments:
            if seg.t_start - 1e-12 <= t <= seg.t_end + 1e-12:
                out[i] = seg.piece
                break
    return out


class TestTwoPieceExample:
    # pieces f1(x) = x and f2(x) = 2x - 1 cross at x = 1; the path from
    # reference 0 to input 2 splits evenly between them
    def setup_method(self):
        self.graph = maxout_unit([[[1.0]], [[2.0]]], [[0.0], [-1.0]])
        self.node = self.graph.nodes["m"]

    def test_segments(self):
        dec = maxout_segments(self.node, np.zeros(1), np.array([2.0]))
        assert [s.piece for s in dec.segments] == [0, 1]
        assert_allclose([s.fraction for s in dec.segments], [0.5, 0.5])
        assert_allclose(dec.fractions.sum(), 1.0, atol=1e-12)

    def test_multiplier_and_conservation(self):
        dec = maxout_segments(self.node, np.zeros(1), np.array([2.0]))
        m = local_multipliers_maxout(self.node, dec)
        assert_allclose(m, [1.5])
        tr = forward(self.graph, {"x": np.array([2.0])})
        ref = compute_reference(self.graph, {"x": np.zeros(1)})
        assert_allclose(m @ (tr["x"] - ref["x"]), tr["m"] - ref["m"])
        assert_allclose(tr["m"] - ref["m"], [3.0])

    def test_degenerate_path_single_segment(self):
        dec = maxout_segments(self.node, np.array([2.0]), np.array([2.0]))
        assert len(dec.segments) == 1
        assert dec.segments[0].fraction == 1.0
        # at x = 2 the steeper piece dominates
        assert dec.segments[0].piece == 1


def test_single_piece_reduces_to_affine_rule(rng):
    w = rng.normal(size=(1, 3, 4))
    b = rng.normal(size=(1, 3))
    graph = maxout_unit(w, b)
    node = graph.nodes["m"]
    for unit in range(3):
        dec = maxout_segments(node, rng.normal(size=4), rng.normal(size=4),
                              unit=unit)
        assert len(dec.segments) == 1
        assert dec.segments[0].fraction == 1.0
        assert_allclose(local_multipliers_maxout(node, dec), w[0, unit])


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
            dec = maxout_segments(node, x0, x1)
            ts, vals = envelope_piece_by_sampling(node, x0, x1, 0)
            assigned = segments_piece_at(dec, ts)
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
                dec = maxout_segments(node, rng.normal(size=in_dim),
                                      rng.normal(size=in_dim), unit=unit)
                assert abs(dec.fractions.sum() - 1.0) < 1e-12
                assert (dec.fractions >= 0).all()
                bounds = [s.t_start for s in dec.segments]
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
# The vectorized envelope kernel against a scalar oracle that scans one
# envelope at a time.


def _envelope_segments(values0, slopes):
    """Upper envelope of lines value0_i + slope_i * t over t in [0, 1].

    Candidate boundaries are the exact pairwise crossing roots; crossings
    closer than CROSSING_TOL merge.  The dominating piece of each
    interval is read off at its midpoint, with exact-value ties broken by
    larger slope and then by lowest index, so degenerate ties at an
    interval start resolve to the piece that dominates just after it.
    Returns (piece, t_start, t_end) triples with increasing boundaries.
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

    bounds = [0.0]
    for cross in sorted(cuts):
        if cross - bounds[-1] > CROSSING_TOL:
            bounds.append(cross)
    bounds.append(1.0)

    segments = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (t0 + t1)
        vals = values0 + slopes * mid
        tied = np.flatnonzero(vals == vals.max())
        piece = int(tied[np.argmax(slopes[tied])])
        if segments and segments[-1][0] == piece:
            prev_piece, prev_t0, _ = segments[-1]
            segments[-1] = (prev_piece, prev_t0, t1)
        else:
            segments.append((piece, t0, t1))
    return segments


def kernel_triples(bounds, pieces):
    """(piece, t_start, t_end) triples of one row of ``path_envelope``."""
    return [(int(p), float(t0), float(t1))
            for p, t0, t1 in zip(pieces, bounds[:-1], bounds[1:]) if p >= 0]


def assert_kernel_matches_oracle(values0, slopes):
    """Rows of (values0, slopes) through the kernel in one call, each
    against the oracle: the same pieces and bit-identical bounds."""
    bounds, pieces = path_envelope(values0, slopes)
    n_pieces = values0.shape[-1]
    assert bounds.shape == values0.shape[:-1] + (n_pieces * (n_pieces - 1) // 2 + 2,)
    assert pieces.shape == bounds.shape[:-1] + (bounds.shape[-1] - 1,)
    for row in np.ndindex(values0.shape[:-1]):
        got = kernel_triples(bounds[row], pieces[row])
        expected = _envelope_segments(values0[row], slopes[row])
        assert [p for p, _, _ in got] == [p for p, _, _ in expected], row
        # bit-identical bounds, not approximately equal
        assert [t for _, t0, t1 in got for t in (t0, t1)] == \
            [t for _, t0, t1 in expected for t in (t0, t1)], row
        # padding after the last segment has length exactly 0
        assert (bounds[row][len(got):] == 1.0).all()
        assert (pieces[row][len(got):] == -1).all()


class TestPathEnvelopeKernel:
    def test_random_units_match_oracle(self):
        rng = np.random.default_rng(6006)
        n_multi = 0
        for n_pieces in range(1, 7):
            values0 = rng.normal(size=(400, n_pieces))
            slopes = rng.normal(size=(400, n_pieces)) * 2.0
            assert_kernel_matches_oracle(values0, slopes)
            bounds, pieces = path_envelope(values0, slopes)
            n_multi += int(((pieces >= 0).sum(axis=-1) >= 3).sum())
        # 2,400 units, and many of them cross more than once on [0, 1]
        assert n_multi >= 100

    def test_maxout_layer_units_match_oracle(self, rng):
        # values and slopes formed the way a maxout layer forms them
        w = rng.normal(size=(4, 8, 5))
        b = rng.normal(size=(4, 8))
        x0, x1 = rng.normal(size=5), rng.normal(size=(3, 5))
        values0 = (w @ x0 + b).T
        slopes = np.einsum("puk,rk->rup", w, x1 - x0)
        assert_kernel_matches_oracle(np.broadcast_to(values0, slopes.shape), slopes)

    def test_broadcast_values_match_expanded(self, rng):
        values0 = rng.normal(size=(1, 6, 4))
        slopes = rng.normal(size=(5, 6, 4))
        got = path_envelope(values0, slopes)
        expected = path_envelope(np.broadcast_to(values0, slopes.shape).copy(), slopes)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)

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
        # two crossings within CROSSING_TOL of each other merge
        ([0.0, 0.5, 1.0 + CROSSING_TOL], [1.0, 0.0, -1.0], [2, 0]),
        # x1 == x0: every slope 0, the piece on top at the reference
        ([0.3, 0.9, -0.2], [0.0, 0.0, 0.0], [1]),
        # a single piece is one segment
        ([1.5], [-2.0], [0]),
    ], ids=["parallel", "identical", "tie-at-0", "tie-below-rounding", "crossing-near-1",
            "close-crossings", "x1-equals-x0", "one-piece"])
    def test_degenerate_units_match_oracle(self, values0, slopes, pieces):
        values0, slopes = np.array([values0]), np.array([slopes])
        assert_kernel_matches_oracle(values0, slopes)
        bounds, got = path_envelope(values0, slopes)
        assert [p for p in got[0] if p >= 0] == pieces
