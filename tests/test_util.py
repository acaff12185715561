"""Tests for repro._util."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import (
    clamp,
    dedupe_preserving_order,
    derive_rng,
    derive_seed,
    extract_numbers,
    pick,
    stable_hash,
    stable_unit_floats,
    tokenize_simple,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_distinct_inputs_differ(self):
        assert stable_hash("a", "b") != stable_hash("ab")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_64_bit_range(self):
        value = stable_hash("x")
        assert 0 <= value < 2**64


class TestDeriveRng:
    def test_same_namespace_same_stream(self):
        a = derive_rng(42, "x").random(5)
        b = derive_rng(42, "x").random(5)
        assert np.allclose(a, b)

    def test_different_namespace_different_stream(self):
        a = derive_rng(42, "x").random(5)
        b = derive_rng(42, "y").random(5)
        assert not np.allclose(a, b)

    def test_derive_seed_is_31_bit(self):
        assert 0 <= derive_seed(1, "z") < 2**31


# numpy's fixed-width strings drop trailing NULs, so ``choice`` would
# return "a" for "a\x00"; ``pick`` returns the element as it is.  The
# generators draw from vocabularies of plain words, so NUL is left out.
_WORDS = st.text(st.characters(blacklist_characters="\x00"), max_size=12)
_INTS = st.integers(-(2**63), 2**63 - 1)


class TestPick:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        options=st.one_of(
            st.lists(_WORDS, min_size=1, max_size=500),
            st.lists(_INTS, min_size=1, max_size=500),
        ),
        as_tuple=st.booleans(),
    )
    def test_draws_what_choice_draws(self, seed, options, as_tuple):
        if as_tuple:
            options = tuple(options)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        picked = pick(ours, options)
        chosen = theirs.choice(options)
        assert picked == chosen
        assert type(picked) is type(options[0])
        # The generator is left where choice leaves it.
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("empty", [[], ()])
    def test_empty_options_raise_like_choice(self, empty):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(empty)
        with pytest.raises(ValueError):
            pick(np.random.default_rng(0), empty)


class TestStableUnitFloats:
    def test_range_and_shape(self):
        values = stable_unit_floats(10, "k")
        assert values.shape == (10,)
        assert np.all((values >= 0) & (values < 1))

    def test_deterministic(self):
        assert np.allclose(stable_unit_floats(4, "a"), stable_unit_floats(4, "a"))


class TestTokenize:
    def test_basic(self):
        assert tokenize_simple("Jabra EVOLVE 80") == ["jabra", "evolve", "80"]

    def test_compound_kept(self):
        assert tokenize_simple("PG-730 v2.0") == ["pg-730", "v2.0"]

    def test_punctuation_dropped(self):
        assert tokenize_simple("a, b; (c)") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize_simple("") == []


class TestExtractNumbers:
    def test_integers_and_decimals(self):
        assert extract_numbers("80 units, 2.5 kg") == ["80", "2.5"]

    def test_none(self):
        assert extract_numbers("no digits") == []


class TestClamp:
    @pytest.mark.parametrize(
        "value,expected", [(-1.0, 0.0), (0.5, 0.5), (2.0, 1.0)]
    )
    def test_default_bounds(self, value, expected):
        assert clamp(value) == expected

    def test_custom_bounds(self):
        assert clamp(5, low=1, high=3) == 3


class TestDedupe:
    def test_preserves_first_seen_order(self):
        assert dedupe_preserving_order(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]

    def test_empty(self):
        assert dedupe_preserving_order([]) == []
