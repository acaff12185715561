"""Tests for decision → cluster construction (both clustering modes)."""

import pytest

from repro._util import derive_rng
from repro.resolve import (
    Clustering,
    PairDecision,
    ResolutionError,
    cluster,
    correlation_cluster,
    transitive_closure,
)


def _yes(a, b, score=1.0):
    return PairDecision(left=a, right=b, match=True, score=score)


def _no(a, b, score=1.0):
    return PairDecision(left=a, right=b, match=False, score=score)


ELEMENTS = ("a", "b", "c", "d", "e", "f")


class TestPairDecision:
    def test_self_pair_rejected(self):
        with pytest.raises(ResolutionError):
            PairDecision(left="a", right="a", match=True)

    @pytest.mark.parametrize("score", [-0.1, 1.5])
    def test_score_outside_unit_interval_rejected(self, score):
        with pytest.raises(ResolutionError):
            PairDecision(left="a", right="b", match=True, score=score)

    def test_key_is_orientation_free(self):
        assert _yes("b", "a").key == _yes("a", "b").key == ("a", "b")


class TestClustering:
    def test_canonical_form_ignores_construction_order(self):
        one = Clustering.from_clusters([["b", "a"], ["c"]])
        two = Clustering.from_clusters([("c",), ("a", "b")])
        assert one == two
        assert one.clusters == (("a", "b"), ("c",))

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ResolutionError):
            Clustering.from_clusters([["a", "b"], ["b", "c"]])

    def test_assignments_use_min_member_ids(self):
        clustering = Clustering.from_clusters([["b", "a"], ["c"]])
        assert clustering.assignments() == {"a": "a", "b": "a", "c": "c"}
        assert clustering.cluster_of("b") == ("a", "b")
        with pytest.raises(KeyError):
            clustering.cluster_of("ghost")

    def test_size_histogram(self):
        clustering = Clustering.from_clusters([["a", "b"], ["c"], ["d"]])
        assert clustering.size_histogram() == {1: 2, 2: 1}


class TestTransitiveClosure:
    def test_positive_chain_merges(self):
        decisions = [_yes("a", "b"), _yes("b", "c"), _no("d", "e")]
        clustering = transitive_closure(ELEMENTS, decisions)
        assert clustering.clusters == (
            ("a", "b", "c"), ("d",), ("e",), ("f",),
        )

    @pytest.mark.parametrize("order_seed", range(5))
    def test_decision_order_never_matters(self, order_seed):
        decisions = [
            _yes("a", "b"), _yes("b", "c"), _yes("d", "e"),
            _no("c", "d"), _no("a", "f"),
        ]
        reference = transitive_closure(ELEMENTS, decisions)
        rng = derive_rng(77, "tc-order", order_seed)
        shuffled = list(decisions)
        rng.shuffle(shuffled)
        assert transitive_closure(ELEMENTS, shuffled) == reference

    def test_must_link_merges_without_decisions(self):
        clustering = transitive_closure(
            ELEMENTS, [], must_link=[("a", "f")]
        )
        assert clustering.cluster_of("a") == ("a", "f")

    def test_cannot_link_blocks_the_merge(self):
        decisions = [_yes("a", "b"), _yes("b", "c")]
        clustering = transitive_closure(
            ELEMENTS, decisions, cannot_link=[("a", "c")]
        )
        # One of the two merges is vetoed; a and c never co-cluster.
        assignments = clustering.assignments()
        assert assignments["a"] != assignments["c"]

    def test_contradictory_constraints_raise(self):
        with pytest.raises(ResolutionError):
            transitive_closure(
                ELEMENTS, [], must_link=[("a", "b")], cannot_link=[("b", "a")]
            )


class TestCorrelationCluster:
    def test_low_agreement_merge_vetoed(self):
        # One positive vs two negatives on the same pair: agreement 1/3.
        decisions = [_yes("a", "b"), _no("a", "b"), _no("b", "a")]
        clustering = correlation_cluster(
            ("a", "b"), decisions, min_agreement=0.5
        )
        assert clustering.clusters == (("a",), ("b",))

    def test_agreeing_evidence_merges(self):
        decisions = [_yes("a", "b"), _yes("a", "b"), _no("a", "b")]
        clustering = correlation_cluster(
            ("a", "b"), decisions, min_agreement=0.5
        )
        assert clustering.clusters == (("a", "b"),)

    def test_fallback_evidence_weighs_half(self):
        # backend yes (1.0) vs two fallback noes (0.5 each): agreement 0.5.
        decisions = [
            _yes("a", "b", score=1.0),
            _no("a", "b", score=0.5),
            _no("a", "b", score=0.5),
        ]
        merged = correlation_cluster(("a", "b"), decisions, min_agreement=0.5)
        assert merged.clusters == (("a", "b"),)
        vetoed = correlation_cluster(("a", "b"), decisions, min_agreement=0.6)
        assert vetoed.clusters == (("a",), ("b",))

    def test_cross_cluster_evidence_aggregates(self):
        # a=b and c=d are solid (merged first: highest positive weight);
        # the single a~c bridge is then outvoted by the b~d + b~c
        # negatives crossing the two merged components (agreement 1/3).
        decisions = [
            _yes("a", "b"), _yes("a", "b"), _yes("c", "d"), _yes("c", "d"),
            _yes("a", "c"), _no("b", "d"), _no("b", "c"),
        ]
        clustering = correlation_cluster(ELEMENTS[:4], decisions)
        assert clustering.cluster_of("a") == ("a", "b")
        assert clustering.cluster_of("c") == ("c", "d")

    def test_zero_threshold_reduces_to_transitive_closure(self):
        decisions = [_yes("a", "b"), _no("a", "b"), _yes("b", "c")]
        loose = correlation_cluster(ELEMENTS, decisions, min_agreement=0.0)
        closure = transitive_closure(ELEMENTS, decisions)
        assert loose == closure

    @pytest.mark.parametrize("order_seed", range(5))
    def test_decision_order_never_matters(self, order_seed):
        decisions = [
            _yes("a", "b"), _no("a", "b"), _yes("b", "c"), _yes("d", "e"),
            _no("c", "d"), _yes("e", "f", score=0.5), _no("e", "f"),
        ]
        reference = correlation_cluster(ELEMENTS, decisions)
        rng = derive_rng(78, "cc-order", order_seed)
        shuffled = list(decisions)
        rng.shuffle(shuffled)
        assert correlation_cluster(ELEMENTS, shuffled) == reference

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ResolutionError):
            correlation_cluster(ELEMENTS, [], min_agreement=1.5)


class TestClusterDispatch:
    DECISIONS = [_yes("a", "b"), _no("a", "b"), _no("b", "a"), _yes("b", "c")]

    def test_modes_route_to_their_functions(self):
        # The a~b evidence is 1 yes vs 2 noes: transitive closure merges
        # it, correlation clustering vetoes it, so the modes differ here.
        assert cluster("transitive", ELEMENTS, self.DECISIONS) == (
            transitive_closure(ELEMENTS, self.DECISIONS)
        )
        assert cluster(
            "correlation", ELEMENTS, self.DECISIONS, min_agreement=0.5
        ) == correlation_cluster(ELEMENTS, self.DECISIONS, min_agreement=0.5)
        assert cluster("transitive", ELEMENTS, self.DECISIONS) != cluster(
            "correlation", ELEMENTS, self.DECISIONS
        )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown resolution mode"):
            cluster("greedy", ELEMENTS, [])
