"""Pair-feature representation of two entity descriptions.

This is the simulated LLM's "understanding" of a candidate pair: a fixed
vector of similarity/conflict signals computed from the two surface strings
only (models never see the structured attributes).  Features are grouped
into subspaces:

* ``generic`` — string/token/number overlap signals active in every domain;
* ``product`` — model codes, versions, editions, unit specs, SKUs;
* ``scholar`` — semicolon-field-aware author/title/venue/year signals.

The subspace structure is what makes *in-domain transfer succeed and
cross-domain transfer fail* in the reproduction: an adapter trained on
product pairs learns weights on features that are inactive for scholar
pairs and vice versa (see DESIGN.md §5).

All features are in ``[0, 1]``.  The final component is a constant bias.
"""

from __future__ import annotations

import re
from difflib import SequenceMatcher

import numpy as np

from repro.datasets.schema import EntityPair
from repro.llm.tokenizer import char_ngrams, levenshtein, tokenize

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_GROUPS",
    "NUM_FEATURES",
    "featurize_pair",
    "featurize_pairs",
    "featurize_texts",
    "clear_feature_cache",
]

#: name → subspace group
FEATURE_GROUPS: dict[str, str] = {
    # generic
    "token_jaccard": "generic",
    "token_containment": "generic",
    "char3_cosine": "generic",
    "seq_ratio": "generic",
    "len_ratio": "generic",
    "rare_token_overlap": "generic",
    "numeric_jaccard": "generic",
    "numeric_conflict": "generic",
    "numeric_absent": "generic",
    "first_token_eq": "generic",
    "long_token_overlap": "generic",
    # product
    "code_match": "product",
    "code_conflict": "product",
    "near_code_match": "product",
    "version_match": "software",
    "version_conflict": "software",
    "edition_match": "software",
    "edition_conflict": "software",
    "unit_spec_match": "product",
    "unit_spec_conflict": "product",
    "sku_match": "product",
    "sku_conflict": "product",
    # scholar
    "fielded_both": "scholar",
    "author_overlap": "scholar",
    "author_initial_compat": "scholar",
    "title_field_sim": "scholar",
    "title_field_containment": "scholar",
    "venue_compat": "scholar",
    "venue_conflict": "scholar",
    "year_field_match": "scholar",
    "year_field_conflict": "scholar",
    "etal_present": "scholar",
    # constant
    "bias": "bias",
}

FEATURE_NAMES: tuple[str, ...] = tuple(FEATURE_GROUPS)
NUM_FEATURES = len(FEATURE_NAMES)
_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

_EDITION_CANON = {
    "pro": "professional", "prof": "professional", "professional": "professional",
    "std": "standard", "standard": "standard",
    "home": "home", "prem": "premium", "premium": "premium",
    "dlx": "deluxe", "deluxe": "deluxe",
    "ult": "ultimate", "ultimate": "ultimate",
    "student": "student", "academic": "student",
    "smb": "small-business", "sb": "small-business",
}

_VENUE_ALIASES = {
    "sigmod": {"sigmod", "management of data"},
    "vldb": {"vldb", "very large"},
    "icde": {"icde", "data engineering"},
    "edbt": {"edbt", "extending database"},
    "cikm": {"cikm", "information and knowledge management"},
    "kdd": {"kdd", "knowledge discovery"},
    "tods": {"tods", "transactions on database systems"},
    "tkde": {"tkde", "transactions on knowledge and data engineering"},
}

_VERSION_RE = re.compile(r"^(?:\d{4}|\d+\.\d+|x\d+|v\d+|xi+|xp)$")
_UNIT_RE = re.compile(r"^\d+(?:gb|tb|mp|mm|sp|k|p)$|^\d+-\d+t$")
_SKU_RE = re.compile(r"^\d{3,}(?:-\d{2,}){1,3}$|^\d{5,}$")
_YEAR_RE = re.compile(r"^(19|20)\d{2}$")


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _containment(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def _is_code(token: str) -> bool:
    has_alpha = any(c.isalpha() for c in token)
    has_digit = any(c.isdigit() for c in token)
    return (has_alpha and has_digit) or (token.isdigit() and 2 <= len(token) <= 4)


def _last_names(field: str) -> set[str]:
    parts = re.split(r"[,;]| and ", field)
    names: set[str] = set()
    for part in parts:
        tokens = [t for t in tokenize(part) if len(t) >= 3 and t != "et" and t != "al"]
        if tokens:
            names.add(tokens[-1])
    return names


def _initials(field: str) -> set[str]:
    parts = re.split(r"[,;]| and ", field)
    out: set[str] = set()
    for part in parts:
        tokens = tokenize(part)
        if len(tokens) >= 2:
            out.add(tokens[0][0] + tokens[-1])
        elif tokens:
            out.add(tokens[0])
    return out


def _venue_key(field: str) -> str | None:
    low = field.lower()
    for key, aliases in _VENUE_ALIASES.items():
        if any(alias in low for alias in aliases):
            return key
    return None


def _expand(tokens: list[str]) -> set[str]:
    """Token set plus sub-tokens of compounds ('pg-730' → 'pg', '730').

    Identifying evidence frequently appears joined in one listing and
    separated in another; comparing on the expanded set recovers it.
    """
    out: set[str] = set(tokens)
    for token in tokens:
        if "-" in token or "/" in token:
            out.update(p for p in re.split(r"[-/]", token) if p)
    return out


def featurize_pair(left: str, right: str) -> np.ndarray:
    """Compute the feature vector for two serialized entity descriptions."""
    phi = np.zeros(NUM_FEATURES)

    tokens_l, tokens_r = tokenize(left), tokenize(right)
    set_l, set_r = _expand(tokens_l), _expand(tokens_r)

    # SKU-like identifiers are compared only via the dedicated sku features;
    # leaving them in the general token sets would contaminate every overlap
    # signal whenever one listing shows the SKU and the other does not.
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
    inter = len(ngrams_l & ngrams_r)
    denom = np.sqrt(len(ngrams_l) * len(ngrams_r))
    phi[_INDEX["char3_cosine"]] = inter / denom if denom else 0.0

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

    # --- product subspace -------------------------------------------------
    # Fielded (bibliographic) records do not carry model codes, versions or
    # SKUs — digit tokens there are years/pages.  Computing product features
    # on them would leak one domain's evidence slots into the other.
    fields_l = [f.strip() for f in left.split(";")]
    fields_r = [f.strip() for f in right.split(";")]
    fielded = len(fields_l) >= 3 and len(fields_r) >= 3
    if fielded:
        phi[_INDEX["bias"]] = 1.0
        _scholar_features(phi, fields_l, fields_r)
        return phi

    shared_codes = codes_l & codes_r
    phi[_INDEX["code_match"]] = float(bool(shared_codes))
    phi[_INDEX["code_conflict"]] = float(
        bool(codes_l) and bool(codes_r) and not shared_codes
    )
    near = 0.0
    if codes_l and codes_r and not shared_codes:
        for cl in codes_l:
            for cr in codes_r:
                if levenshtein(cl, cr, cap=1) <= 1:
                    near = 1.0
                    break
            if near:
                break
    phi[_INDEX["near_code_match"]] = near

    vers_l = {t for t in set_l if _VERSION_RE.match(t)}
    vers_r = {t for t in set_r if _VERSION_RE.match(t)}
    phi[_INDEX["version_match"]] = float(bool(vers_l & vers_r))
    phi[_INDEX["version_conflict"]] = float(
        bool(vers_l) and bool(vers_r) and not (vers_l & vers_r)
    )

    eds_l = {_EDITION_CANON[t] for t in set_l if t in _EDITION_CANON}
    eds_r = {_EDITION_CANON[t] for t in set_r if t in _EDITION_CANON}
    phi[_INDEX["edition_match"]] = float(bool(eds_l & eds_r))
    phi[_INDEX["edition_conflict"]] = float(
        bool(eds_l) and bool(eds_r) and not (eds_l & eds_r)
    )

    units_l = {t for t in set_l if _UNIT_RE.match(t)}
    units_r = {t for t in set_r if _UNIT_RE.match(t)}
    phi[_INDEX["unit_spec_match"]] = float(bool(units_l & units_r))
    phi[_INDEX["unit_spec_conflict"]] = float(
        bool(units_l) and bool(units_r) and not (units_l & units_r)
    )

    phi[_INDEX["sku_match"]] = float(bool(skus_l & skus_r))
    phi[_INDEX["sku_conflict"]] = float(
        bool(skus_l) and bool(skus_r) and not (skus_l & skus_r)
    )

    phi[_INDEX["bias"]] = 1.0
    return phi


def _scholar_features(phi: np.ndarray, fields_l: list[str], fields_r: list[str]) -> None:
    """Fill the scholar-subspace features of a fielded record pair."""
    phi[_INDEX["fielded_both"]] = 1.0
    phi[_INDEX["author_overlap"]] = _jaccard(
        _last_names(fields_l[0]), _last_names(fields_r[0])
    )
    phi[_INDEX["author_initial_compat"]] = _containment(
        _initials(fields_l[0]), _initials(fields_r[0])
    )
    title_l = set(tokenize(fields_l[1])) if len(fields_l) > 1 else set()
    title_r = set(tokenize(fields_r[1])) if len(fields_r) > 1 else set()
    phi[_INDEX["title_field_sim"]] = _jaccard(title_l, title_r)
    phi[_INDEX["title_field_containment"]] = _containment(title_l, title_r)

    venue_l = _venue_key(fields_l[2]) if len(fields_l) > 2 else None
    venue_r = _venue_key(fields_r[2]) if len(fields_r) > 2 else None
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


# Process-wide memo keyed by the surface-string pair: overlapping splits
# (filtered/extended training sets, shared test sets) featurize for free.
_CACHE: dict[tuple[str, str], np.ndarray] = {}


def featurize_texts(left: str, right: str) -> np.ndarray:
    """Cached feature vector for a description pair."""
    key = (left, right)
    vec = _CACHE.get(key)
    if vec is None:
        vec = featurize_pair(left, right)
        _CACHE[key] = vec
    return vec


def featurize_pairs(pairs: list[EntityPair]) -> np.ndarray:
    """Feature matrix (n_pairs × NUM_FEATURES) for a list of pairs."""
    if not pairs:
        return np.zeros((0, NUM_FEATURES))
    return np.stack(
        [featurize_texts(p.left.description, p.right.description) for p in pairs]
    )


def clear_feature_cache() -> None:
    """Drop the process-wide feature memo (mainly for tests)."""
    _CACHE.clear()
