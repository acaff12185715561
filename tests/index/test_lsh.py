"""LSH banding: S-curve arithmetic, solver behaviour, band-key mixing."""

import numpy as np
import pytest

from repro.index import (
    LSHBanding,
    collision_probability,
    solve_banding,
    threshold_at,
)
from repro.index.lsh import add_postings, colliding_ids


class TestScurve:
    def test_threshold_formula(self):
        assert threshold_at(1, 1) == 1.0
        assert threshold_at(32, 4) == pytest.approx((1 / 32) ** 0.25)

    def test_collision_probability_endpoints(self):
        assert collision_probability(0.0, 25, 5) == 0.0
        assert collision_probability(1.0, 25, 5) == 1.0

    def test_collision_probability_monotone_in_similarity(self):
        probabilities = [
            collision_probability(s / 20, 25, 5) for s in range(21)
        ]
        assert probabilities == sorted(probabilities)

    def test_more_bands_loosen_more_rows_tighten(self):
        base = threshold_at(16, 4)
        assert threshold_at(32, 4) < base  # more bands -> looser
        assert threshold_at(16, 8) > base  # more rows -> stricter

    def test_validation(self):
        with pytest.raises(ValueError):
            threshold_at(0, 4)
        with pytest.raises(ValueError):
            collision_probability(1.5, 25, 5)
        with pytest.raises(ValueError):
            collision_probability(0.5, 25, 0)


class TestSolver:
    def test_fits_the_budget(self):
        for target in (0.1, 0.3, 0.5, 0.7, 0.9):
            bands, rows = solve_banding(128, target)
            assert 1 <= bands * rows <= 128

    def test_characteristic_threshold_close_to_target(self):
        for target in (0.3, 0.5, 0.7):
            bands, rows = solve_banding(128, target)
            assert abs(threshold_at(bands, rows) - target) < 0.1

    def test_monotone_in_target(self):
        """A stricter target never yields a looser banding."""
        achieved = [
            threshold_at(*solve_banding(128, target / 20))
            for target in range(1, 20)
        ]
        assert achieved == sorted(achieved)

    def test_deterministic(self):
        assert solve_banding(128, 0.5) == solve_banding(128, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_perm"):
            solve_banding(0, 0.5)
        with pytest.raises(ValueError, match="threshold"):
            solve_banding(128, 1.0)
        with pytest.raises(ValueError, match="threshold"):
            solve_banding(128, 0.0)


class TestBandKeys:
    def test_deterministic_across_instances(self):
        signature = np.arange(96, dtype=np.uint64)
        assert (
            LSHBanding(32, 3).band_keys(signature)
            == LSHBanding(32, 3).band_keys(signature)
        )

    def test_one_key_per_band(self):
        signature = np.arange(96, dtype=np.uint64)
        assert len(LSHBanding(32, 3).band_keys(signature)) == 32

    def test_equal_slices_in_different_bands_do_not_collide(self):
        """A constant signature must still produce distinct band keys."""
        signature = np.full(96, 7, dtype=np.uint64)
        keys = LSHBanding(32, 3).band_keys(signature)
        assert len(set(keys)) == 32

    def test_equal_band_values_collide_across_signatures(self):
        banding = LSHBanding(4, 2)
        a = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.uint64)
        b = np.array([1, 2, 9, 9, 9, 9, 9, 9], dtype=np.uint64)
        keys_a = banding.band_keys(a)
        keys_b = banding.band_keys(b)
        assert keys_a[0] == keys_b[0]
        assert keys_a[1:] != keys_b[1:]

    def test_width_validation(self):
        with pytest.raises(ValueError, match="signature width"):
            LSHBanding(32, 3).band_keys(np.arange(95, dtype=np.uint64))

    def test_from_threshold(self):
        banding = LSHBanding.from_threshold(128, 0.5)
        assert (banding.bands, banding.rows) == solve_banding(128, 0.5)
        assert banding.num_perm == banding.bands * banding.rows

    def test_validation(self):
        with pytest.raises(ValueError, match="bands and rows"):
            LSHBanding(0, 3)


class TestPostings:
    def test_query_returns_sorted_distinct_ids(self):
        postings = {}
        add_postings(postings, ["b", "a"], [[1, 2], [2, 3]])
        # key 2 holds both, in insertion order; keys [1, 2, 3] reach
        # each id twice.
        assert postings[2] == ["b", "a"]
        assert colliding_ids(postings, [1, 2, 3]) == ["a", "b"]

    def test_missing_keys_are_empty(self):
        postings = {}
        add_postings(postings, ["a"], [[1]])
        assert colliding_ids(postings, [999]) == []
