"""Tests for the threshold baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.threshold import ThresholdMatcher
from repro.datasets.schema import EntityPair, Record, Split
from repro.engine.engine import normalize
from repro.eval.metrics import f1_score
from repro.llm.features import FEATURE_NAMES

import numpy as np

WORDS = ("acme", "laser", "printer", "4200", "Zebra", "earbuds", "v2",
         "16GB", "black", "sony-a7", "x")
#: a description: words joined by (and wrapped in) whitespace variants.
DESCRIPTIONS = st.builds(
    lambda words, gaps, ends: ends[0] + "".join(
        w + g for w, g in zip(words, gaps)) + ends[1],
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=6),
    st.lists(st.sampled_from((" ", "  ", "\t", "\n", " \r\n")),
             min_size=6, max_size=6),
    st.tuples(st.sampled_from(("", " ", "\t ")),
              st.sampled_from(("", " ", "\n"))),
)


def _split(pairs) -> Split:
    return Split(name="reference", pairs=[
        EntityPair(
            pair_id=f"p{i}",
            left=Record(record_id=f"l{i}", attributes={}, description=left),
            right=Record(record_id=f"r{i}", attributes={}, description=right),
            label=False,
        )
        for i, (left, right) in enumerate(pairs)
    ])


class TestThresholdMatcher:
    def test_unknown_feature_raises(self):
        with pytest.raises(ValueError):
            ThresholdMatcher(feature="vibes")

    def test_fit_improves_over_default(self, product_split):
        labels = np.array(product_split.labels())
        default = ThresholdMatcher(threshold=0.99)
        default_f1 = f1_score(labels, default.predict(product_split)).f1
        fitted = ThresholdMatcher(threshold=0.99).fit(product_split)
        fitted_f1 = f1_score(labels, fitted.predict(product_split)).f1
        assert fitted_f1 >= default_f1

    def test_beats_chance(self, product_split):
        matcher = ThresholdMatcher().fit(product_split)
        labels = np.array(product_split.labels())
        assert f1_score(labels, matcher.predict(product_split)).f1 > 40


class TestDecide:
    @given(
        st.lists(st.tuples(DESCRIPTIONS, DESCRIPTIONS), min_size=1,
                 max_size=12),
        st.sampled_from(FEATURE_NAMES),
        st.one_of(st.floats(0.0, 1.0), st.integers(0, 11)),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_predict_on_a_split_bit_for_bit(
        self, raw, feature, threshold
    ):
        normalized = [(normalize(left), normalize(right))
                      for left, right in raw]
        for pairs in (raw, normalized):
            matcher = ThresholdMatcher(feature=feature)
            if isinstance(threshold, int):
                # A pair's own score: the >= boundary itself.
                scores = matcher.scores(_split(pairs))
                matcher.threshold = scores[threshold % len(scores)]
            else:
                matcher.threshold = threshold
            expected = matcher.predict(_split(pairs))
            got = matcher.decide(pairs)
            assert all(type(d) is bool for d in got)
            assert np.array(got, dtype=bool).tobytes() == expected.tobytes()

    def test_no_pairs(self):
        assert ThresholdMatcher().decide([]) == []
