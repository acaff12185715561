"""Per-description views + pair combine ≡ pair-at-a-time featurization.

``featurize_pair`` and the memo path both read :class:`RecordView`s.
The reference below is the pair-at-a-time algorithm the views replaced,
transcribed as it was: it builds every token subset of both sides per
pair, asks difflib for the sequence ratio and ``levenshtein`` for near
model codes.  Every generated pair must featurize to the same bytes
through all three paths, with views reused across pairs in any order.
"""

from __future__ import annotations

import re
import sys
import threading
from difflib import SequenceMatcher

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets.schema import EntityPair, Record
from repro.llm import features
from repro.llm.features import (
    _EDITION_CANON,
    _INDEX,
    _SKU_RE,
    _UNIT_RE,
    _VERSION_RE,
    _YEAR_RE,
    NUM_FEATURES,
    FeatureMemo,
    _containment,
    _initials,
    _jaccard,
    _last_names,
    _venue_key,
    combine_views,
    featurize_pair,
    featurize_pairs,
)
from repro.llm.tokenizer import char_ngrams, levenshtein, tokenize


def _is_code(token: str) -> bool:
    has_alpha = any(c.isalpha() for c in token)
    has_digit = any(c.isdigit() for c in token)
    return (has_alpha and has_digit) or (token.isdigit() and 2 <= len(token) <= 4)


def _expand(tokens: list[str]) -> set[str]:
    out: set[str] = set(tokens)
    for token in tokens:
        if "-" in token or "/" in token:
            out.update(p for p in re.split(r"[-/]", token) if p)
    return out


def reference_featurize(left: str, right: str) -> np.ndarray:
    """Pair-at-a-time featurization (the algorithm the views replaced)."""
    phi = np.zeros(NUM_FEATURES)
    tokens_l, tokens_r = tokenize(left), tokenize(right)
    set_l, set_r = _expand(tokens_l), _expand(tokens_r)
    skus_l = {t for t in set_l if _SKU_RE.match(t)}
    skus_r = {t for t in set_r if _SKU_RE.match(t)}
    sku_parts_l = {p for t in skus_l for p in re.split(r"[-/]", t)} | skus_l
    sku_parts_r = {p for t in skus_r for p in re.split(r"[-/]", t)} | skus_r
    set_l -= sku_parts_l
    set_r -= sku_parts_r
    tokens_l = [t for t in tokens_l if t not in sku_parts_l]
    tokens_r = [t for t in tokens_r if t not in sku_parts_r]

    phi[_INDEX["token_jaccard"]] = _jaccard(set_l, set_r)
    phi[_INDEX["token_containment"]] = _containment(set_l, set_r)
    ngrams_l, ngrams_r = char_ngrams(left), char_ngrams(right)
    denom = np.sqrt(len(ngrams_l) * len(ngrams_r))
    phi[_INDEX["char3_cosine"]] = len(ngrams_l & ngrams_r) / denom if denom else 0.0
    phi[_INDEX["seq_ratio"]] = SequenceMatcher(
        None, " ".join(tokens_l), " ".join(tokens_r)
    ).ratio()
    if tokens_l and tokens_r:
        phi[_INDEX["len_ratio"]] = min(len(tokens_l), len(tokens_r)) / max(
            len(tokens_l), len(tokens_r)
        )
    codes_l = {t for t in set_l if _is_code(t)}
    codes_r = {t for t in set_r if _is_code(t)}
    rare_l = {t for t in set_l if len(t) >= 8} | codes_l
    rare_r = {t for t in set_r if len(t) >= 8} | codes_r
    phi[_INDEX["rare_token_overlap"]] = _jaccard(rare_l, rare_r)
    nums_l = {t for t in set_l if any(c.isdigit() for c in t)}
    nums_r = {t for t in set_r if any(c.isdigit() for c in t)}
    phi[_INDEX["numeric_jaccard"]] = _jaccard(nums_l, nums_r)
    phi[_INDEX["numeric_conflict"]] = float(
        bool(nums_l) and bool(nums_r) and not (nums_l & nums_r)
    )
    phi[_INDEX["numeric_absent"]] = float(not nums_l and not nums_r)
    if tokens_l and tokens_r:
        phi[_INDEX["first_token_eq"]] = float(tokens_l[0] == tokens_r[0])
    long_l = {t for t in set_l if len(t) >= 5 and t.isalpha()}
    long_r = {t for t in set_r if len(t) >= 5 and t.isalpha()}
    phi[_INDEX["long_token_overlap"]] = _jaccard(long_l, long_r)

    fields_l = [f.strip() for f in left.split(";")]
    fields_r = [f.strip() for f in right.split(";")]
    if len(fields_l) >= 3 and len(fields_r) >= 3:
        phi[_INDEX["bias"]] = 1.0
        _reference_scholar(phi, fields_l, fields_r)
        return phi

    shared_codes = codes_l & codes_r
    phi[_INDEX["code_match"]] = float(bool(shared_codes))
    phi[_INDEX["code_conflict"]] = float(
        bool(codes_l) and bool(codes_r) and not shared_codes
    )
    if codes_l and codes_r and not shared_codes:
        phi[_INDEX["near_code_match"]] = float(any(
            levenshtein(cl, cr, cap=1) <= 1 for cl in codes_l for cr in codes_r
        ))
    for name, pattern in (("version", _VERSION_RE), ("unit_spec", _UNIT_RE)):
        found_l = {t for t in set_l if pattern.match(t)}
        found_r = {t for t in set_r if pattern.match(t)}
        phi[_INDEX[f"{name}_match"]] = float(bool(found_l & found_r))
        phi[_INDEX[f"{name}_conflict"]] = float(
            bool(found_l) and bool(found_r) and not (found_l & found_r)
        )
    eds_l = {_EDITION_CANON[t] for t in set_l if t in _EDITION_CANON}
    eds_r = {_EDITION_CANON[t] for t in set_r if t in _EDITION_CANON}
    phi[_INDEX["edition_match"]] = float(bool(eds_l & eds_r))
    phi[_INDEX["edition_conflict"]] = float(
        bool(eds_l) and bool(eds_r) and not (eds_l & eds_r)
    )
    phi[_INDEX["sku_match"]] = float(bool(skus_l & skus_r))
    phi[_INDEX["sku_conflict"]] = float(
        bool(skus_l) and bool(skus_r) and not (skus_l & skus_r)
    )
    phi[_INDEX["bias"]] = 1.0
    return phi


def _reference_scholar(phi: np.ndarray, fields_l: list, fields_r: list) -> None:
    phi[_INDEX["fielded_both"]] = 1.0
    phi[_INDEX["author_overlap"]] = _jaccard(
        _last_names(fields_l[0]), _last_names(fields_r[0])
    )
    phi[_INDEX["author_initial_compat"]] = _containment(
        _initials(fields_l[0]), _initials(fields_r[0])
    )
    title_l, title_r = set(tokenize(fields_l[1])), set(tokenize(fields_r[1]))
    phi[_INDEX["title_field_sim"]] = _jaccard(title_l, title_r)
    phi[_INDEX["title_field_containment"]] = _containment(title_l, title_r)
    venue_l, venue_r = _venue_key(fields_l[2]), _venue_key(fields_r[2])
    if venue_l and venue_r:
        phi[_INDEX["venue_compat"]] = float(venue_l == venue_r)
        phi[_INDEX["venue_conflict"]] = float(venue_l != venue_r)
    year_l = next((t for t in tokenize(fields_l[-1]) if _YEAR_RE.match(t)), None)
    year_r = next((t for t in tokenize(fields_r[-1]) if _YEAR_RE.match(t)), None)
    if year_l and year_r:
        phi[_INDEX["year_field_match"]] = float(year_l == year_r)
        phi[_INDEX["year_field_conflict"]] = float(year_l != year_r)
    phi[_INDEX["etal_present"]] = float(
        "et al" in fields_l[0].lower() or "et al" in fields_r[0].lower()
    )


# ------------------------------------------------------------ descriptions

_WORDS = st.sampled_from([
    "Acme", "acme", "Brixon", "zen", "camera", "phone", "black", "stereo",
    "headset", "wireless", "professional", "office", "suite", "draw",
    "photoshop", "elements", "Ébène", "STRASSE", "straße", "and", "with",
])
_COMPOUNDS = st.sampled_from([
    "pg-730", "xj-900/64gb", "a/b", "zen-239", "rx-100-ii", "usb-c",
    "1.5-2t", "b/w", "wi-fi", "x86-64", "a.b-c",
])
_SKUS = st.sampled_from([
    "123-45-678", "12345", "9876543", "(123-456-789)", "555-12", "00012-34",
])
_VERSIONS = st.sampled_from([
    "2007", "2009", "3.0", "10.2", "x64", "v2", "v10", "xi", "xii", "xp",
])
_UNITS = st.sampled_from([
    "64gb", "1tb", "12mp", "50mm", "2-4t", "1080p", "4k", "16sp", "64 gb",
])
_EDITIONS = st.sampled_from([
    "pro", "prof", "professional", "std", "standard", "home", "deluxe",
    "dlx", "ult", "student", "academic", "smb", "sb",
])
_NOISE = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x17F), max_size=8
)
_TOKEN = st.one_of(_WORDS, _COMPOUNDS, _SKUS, _VERSIONS, _UNITS, _EDITIONS, _NOISE)

_FLAT = st.lists(_TOKEN, max_size=12).map(" ".join)
_TOKENLESS = st.sampled_from(["", "   ", "!!! ---", "___", "(+)", "; ;", "é"])
_LONG = st.lists(st.one_of(_WORDS, _COMPOUNDS, _UNITS), min_size=70,
                 max_size=90).map(" ".join)
_NAMES = st.lists(
    st.sampled_from(["J. Smith", "Jane Smith", "R Gupta", "A. B. Chen",
                     "et al", "Lee", "M Garcia"]),
    min_size=1, max_size=4,
).map(lambda names: ", ".join(names) if len(names) < 3 else
      " and ".join(names))
_VENUES = st.sampled_from([
    "SIGMOD", "Proc. VLDB", "ICDE", "very large data bases", "KDD",
    "Transactions on Database Systems", "unknown workshop", "",
])
_YEARS = st.sampled_from(["1999", "2004", "2010", "", "pp. 12-19 2004"])
_FIELDED = st.tuples(
    _NAMES, st.lists(st.one_of(_WORDS, _VERSIONS), max_size=8).map(" ".join),
    _VENUES, _YEARS,
).map("; ".join)
DESCRIPTIONS = st.one_of(_FLAT, _FLAT, _FIELDED, _TOKENLESS, _LONG)


def _pair(left: str, right: str) -> EntityPair:
    return EntityPair(
        pair_id="p",
        left=Record(record_id="l", attributes={}, description=left),
        right=Record(record_id="r", attributes={}, description=right),
        label=False,
    )


class TestViewsMatchReference:
    @given(DESCRIPTIONS, DESCRIPTIONS)
    @settings(max_examples=400, deadline=None)
    def test_featurize_pair_equals_reference(self, left, right):
        expected = reference_featurize(left, right).tobytes()
        assert featurize_pair(left, right).tobytes() == expected
        assert featurize_pair(left, left).tobytes() == (
            reference_featurize(left, left).tobytes()
        )

    @given(
        st.lists(DESCRIPTIONS, min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                 min_size=1, max_size=12),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_memo_path_reuses_views_in_any_order(self, texts, picks, chunk):
        pairs = [
            (texts[i % len(texts)], texts[j % len(texts)]) for i, j in picks
        ]
        memo = FeatureMemo()
        rows = []
        for start in range(0, len(pairs), chunk):
            batch = [_pair(*pair) for pair in pairs[start: start + chunk]]
            rows.append(featurize_pairs(batch, memo))
        got = np.concatenate(rows)
        expected = np.stack([reference_featurize(*pair) for pair in pairs])
        assert got.tobytes() == expected.tobytes()
        assert len(memo) == len({d for pair in pairs for d in pair})

    def test_memo_path_leaves_the_process_memo_alone(self):
        features.clear_feature_cache()
        memo = FeatureMemo()
        featurize_pairs([_pair("acme pg-730 phone", "acme pg 730")], memo)
        assert features._CACHE == {}
        view = memo.view("acme pg-730 phone")
        assert memo.view("acme pg-730 phone") is view
        assert combine_views(view, view)[-1] == 1.0

    def test_bounded_memo_starts_over_and_keeps_rows_exact(self, monkeypatch):
        monkeypatch.setattr(FeatureMemo, "MAX_VIEWS", 2)
        texts = ["acme pg-730", "acme pg 730 black", "brixon zen-239", "zen 239"]
        memo = FeatureMemo()
        for left in texts:
            for right in texts:
                row = featurize_pairs([_pair(left, right)], memo)[0]
                assert row.tobytes() == reference_featurize(left, right).tobytes()
                assert len(memo) <= 2
                # The token classes start over with the views they serve.
                assert set(memo._classes) == {
                    t for view in memo._views.values() for t in view.tokens
                }

    def test_threads_filling_a_small_memo_get_exact_rows(self, monkeypatch):
        monkeypatch.setattr(FeatureMemo, "MAX_VIEWS", 3)
        texts = [
            "acme pg-730", "acme pg 730 black", "brixon zen-239", "zen 239",
            "smith j; entity matching; vldb; 2004", "smith; matching; sigmod; 1999",
            "office 2007 pro", "office xp std 5-1-1234",
        ]
        pairs = [(left, right) for left in texts for right in texts]
        expected = [reference_featurize(*pair).tobytes() for pair in pairs]
        memo = FeatureMemo()
        errors: list = []
        start = threading.Barrier(4)

        def worker(k: int) -> None:
            try:
                start.wait()
                for _ in range(20):
                    for i in [*range(k, len(pairs)), *range(k)]:
                        row = featurize_pairs([_pair(*pairs[i])], memo)[0]
                        assert row.tobytes() == expected[i]
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(memo) <= FeatureMemo.MAX_VIEWS + 3


_SEQ = st.one_of(
    st.text(alphabet="ab c1-", max_size=60),
    st.text(alphabet="ab c1-", min_size=200, max_size=260),
)


class TestExactShortcuts:
    @given(_SEQ, _SEQ)
    @settings(max_examples=400, deadline=None)
    def test_seq_ratio_equals_difflib(self, a, b):
        assert features._seq_ratio(a, b) == SequenceMatcher(None, a, b).ratio()

    @given(st.text(alphabet="ab1-", max_size=7), st.text(alphabet="ab1-", max_size=7))
    @settings(max_examples=400, deadline=None)
    def test_within_one_edit_equals_capped_levenshtein(self, a, b):
        assert features._within_one_edit(a, b) == (levenshtein(a, b, cap=1) <= 1)
