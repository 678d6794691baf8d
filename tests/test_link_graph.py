"""Tests for the directed link-weighted graph model (Section III.F)."""

import numpy as np
import pytest
from hypothesis import given

from repro.errors import InvalidGraphError
from repro.graph.link_graph import LinkWeightedDigraph

from conftest import robust_digraphs


@pytest.fixture
def tri() -> LinkWeightedDigraph:
    """Asymmetric triangle: 0->1 (1), 1->0 (2), 1->2 (3), 2->0 (4), 0->2 (9)."""
    return LinkWeightedDigraph(
        3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 0, 4.0), (0, 2, 9.0)]
    )


class TestConstruction:
    def test_counts(self, tri):
        assert tri.n == 3 and tri.num_arcs == 5

    def test_duplicate_arc_rejected(self):
        with pytest.raises(InvalidGraphError, match="duplicate"):
            LinkWeightedDigraph(2, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError, match="self-loop"):
            LinkWeightedDigraph(2, [(0, 0, 1.0)])

    def test_infinite_weight_rejected(self):
        with pytest.raises(InvalidGraphError, match="invalid weight"):
            LinkWeightedDigraph(2, [(0, 1, float("inf"))])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidGraphError, match="invalid weight"):
            LinkWeightedDigraph(2, [(0, 1, -1.0)])

    def test_from_cost_matrix_roundtrip(self, tri):
        clone = LinkWeightedDigraph.from_cost_matrix(tri.cost_matrix())
        assert clone == tri

    def test_from_cost_matrix_requires_square(self):
        with pytest.raises(InvalidGraphError, match="square"):
            LinkWeightedDigraph.from_cost_matrix(np.zeros((2, 3)))

    def test_from_undirected_symmetric(self):
        g = LinkWeightedDigraph.from_undirected(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.arc_weight(0, 1) == g.arc_weight(1, 0) == 2.0
        assert g.num_arcs == 4

    def test_from_node_weighted(self, small_graph):
        dg = LinkWeightedDigraph.from_node_weighted(small_graph)
        # arc u -> v carries the tail's node cost
        for u, v, w in dg.arc_iter():
            assert w == pytest.approx(float(small_graph.costs[u]))


class TestQueries:
    def test_arc_weight_and_absence(self, tri):
        assert tri.arc_weight(0, 1) == 1.0
        assert tri.arc_weight(2, 1) == float("inf")
        assert tri.has_arc(1, 2) and not tri.has_arc(2, 1)

    def test_out_neighbors(self, tri):
        heads, wts = tri.out_neighbors(0)
        assert heads.tolist() == [1, 2]
        assert wts.tolist() == [1.0, 9.0]

    def test_cost_row_convention(self, tri):
        row = tri.cost_row(1)
        assert row[1] == 0.0  # diagonal
        assert row[0] == 2.0 and row[2] == 3.0

    def test_path_cost_counts_all_arcs(self, tri):
        assert tri.path_cost([0, 1, 2, 0]) == 1.0 + 3.0 + 4.0

    def test_path_cost_missing_arc(self, tri):
        with pytest.raises(InvalidGraphError, match="missing arc"):
            tri.path_cost([2, 1])

    def test_relay_cost_excludes_first_hop(self, tri):
        assert tri.relay_cost([0, 1, 2, 0]) == pytest.approx(3.0 + 4.0)
        assert tri.relay_cost([0, 1]) == 0.0
        assert tri.relay_cost([0]) == 0.0


class TestTransforms:
    def test_reverse_is_involution(self, tri):
        assert tri.reverse().reverse() is tri

    def test_reverse_arcs(self, tri):
        rev = tri.reverse()
        assert rev.arc_weight(1, 0) == tri.arc_weight(0, 1)
        assert rev.num_arcs == tri.num_arcs

    def test_with_node_removed(self, tri):
        g2 = tri.with_node_removed(1)
        assert g2.num_arcs == 2  # only 0->2 and 2->0 survive
        assert not g2.has_arc(0, 1) and not g2.has_arc(1, 2)

    def test_with_nodes_removed(self, tri):
        g2 = tri.with_nodes_removed([1, 2])
        assert g2.num_arcs == 0

    def test_with_declaration_replaces_row_only(self, tri):
        row = np.full(3, np.inf)
        row[2] = 5.0
        g2 = tri.with_declaration(0, row)
        assert g2.arc_weight(0, 2) == 5.0
        assert not g2.has_arc(0, 1)  # dropped by the declaration
        assert g2.arc_weight(1, 0) == 2.0  # incoming arcs untouched

    def test_with_declaration_negative_rejected(self, tri):
        row = np.full(3, np.inf)
        row[1] = -1.0
        with pytest.raises(InvalidGraphError, match="negative"):
            tri.with_declaration(0, row)

    def test_scipy_csr_preserves_zero_arcs(self):
        g = LinkWeightedDigraph(2, [(0, 1, 0.0)])
        mat = g.to_scipy_csr()
        assert mat.nnz == 1  # the zero-weight arc is an explicit 0

    def test_to_networkx(self, tri):
        nx_g = tri.to_networkx()
        assert nx_g.number_of_edges() == tri.num_arcs
        assert nx_g[0][1]["weight"] == 1.0


class TestProperties:
    @given(robust_digraphs(max_nodes=12))
    def test_cost_matrix_roundtrip(self, dg):
        assert LinkWeightedDigraph.from_cost_matrix(dg.cost_matrix()) == dg

    @given(robust_digraphs(max_nodes=12))
    def test_reverse_preserves_weights(self, dg):
        rev = dg.reverse()
        for u, v, w in dg.arc_iter():
            assert rev.arc_weight(v, u) == w
