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

import math
import re
from difflib import SequenceMatcher

import numpy as np

from repro.datasets.schema import EntityPair
from repro.llm.tokenizer import tokenize

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_GROUPS",
    "NUM_FEATURES",
    "FeatureMemo",
    "RecordView",
    "combine_views",
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


# --------------------------------------------------------------- record views
#
# Featurization is split in two: a per-description *view* holding every
# quantity that depends on one side only, and a pair-combine step that
# reads two views.  Each feature is a function of per-side sets (or of
# their intersection), and category membership (code, rare, numeric, ...)
# is a property of the token string alone, so a view stores its expanded
# token set once with one category byte per token; the combine step
# intersects the two token sets once and counts the shared tokens' bytes
# per category.

#: category bits of one expanded token, in the order of ``_counts``.
_CODE, _RARE, _NUM, _LONG, _VER, _UNIT = 1, 2, 4, 8, 16, 32
_CATEGORIES = (_CODE, _RARE, _NUM, _LONG, _VER, _UNIT)
_SPLIT_RE = re.compile(r"[-/]")
#: one empty set shared by every view (``frozenset()`` builds a new one).
_EMPTY: frozenset = frozenset()

# combine_views lays a row out by position: 11 generic features, 11
# product/software, 10 scholar, then the bias.
_PRODUCT = FEATURE_NAMES[11:22]
_SCHOLAR = FEATURE_NAMES[22:32]
assert all(FEATURE_GROUPS[n] == "generic" for n in FEATURE_NAMES[:11])
assert all(FEATURE_GROUPS[n] in ("product", "software") for n in _PRODUCT)
assert all(FEATURE_GROUPS[n] == "scholar" for n in _SCHOLAR)
assert FEATURE_NAMES[32:] == ("bias",)


#: per category, the table ``bytes.translate`` maps each category byte
#: through to 1 when it carries the category's bit and to 0 otherwise.
_BIT_TABLES = tuple(
    bytes(1 if value & bit else 0 for value in range(256)) for bit in _CATEGORIES
)


def _counts(flags: bytes) -> tuple[int, ...]:
    """Per category (code, rare, numeric, long, version, unit): how many
    of the category bytes *flags* carry its bit."""
    translate = flags.translate
    return tuple([translate(table).count(1) for table in _BIT_TABLES])


def _grams(padded: str) -> set[tuple[str, str, str]]:
    """The character 3-grams of a padded token text, as character triples.

    A triple stands for the 3-character string it spells (the map is one
    to one), so set sizes and intersection sizes are those of the string
    3-grams; zipping three shifted copies is cheaper than slicing each.
    """
    return set(zip(padded, padded[1:], padded[2:]))


#: token -> (category byte, canonical edition or None).
_Classes = dict[str, tuple[int, str | None]]


def _classify(token: str) -> tuple[int, str | None]:
    """The category byte of one expanded token, and its canonical edition.

    Tokens only hold [a-z0-9./-], so a token that is not all letters or
    all digits is the only one that needs a character scan.
    """
    size = len(token)
    if token.isalpha():
        flag = (_LONG if size >= 5 else 0) | (_RARE if size >= 8 else 0)
        if token[0] == "x" and _VERSION_RE.match(token):
            flag |= _VER
        return flag, _EDITION_CANON.get(token)
    if token.isdigit():
        digit, code = True, 2 <= size <= 4
    else:
        digit = any(c.isdigit() for c in token)
        code = digit and any(c.isalpha() for c in token)
    flag = (_CODE | _RARE) if code else (_RARE if size >= 8 else 0)
    if digit:
        flag |= _NUM
        if _VERSION_RE.match(token):
            flag |= _VER
        if _UNIT_RE.match(token):
            flag |= _UNIT
    return flag, None


class RecordView:
    """Everything featurization needs from one description.

    Built once per description and combined with another view by
    :func:`combine_views`.  Views are immutable and compact: no view
    holds the character 3-gram set or difflib's index of the second
    sequence, which would each cost more than the rest of the view (both
    are rebuilt per pair).  Nor does a view count its 3-grams: counting
    them means building the set, and the two sets a pair builds give
    both counts.

    *classes* holds the category byte and canonical edition of every
    token classified so far; a :class:`FeatureMemo` hands all its views
    one table, so a token that recurs across descriptions is classified
    once.
    """

    __slots__ = (
        "padded", "joined", "n_tokens", "first", "tokens", "flags",
        "counts", "editions", "skus", "scholar",
    )

    def __init__(self, description: str, classes: _Classes | None = None) -> None:
        raw = tokenize(description)
        # Identifying evidence frequently appears joined in one listing and
        # separated in another ('pg-730' vs 'pg 730'); comparing on the set
        # expanded with compound parts recovers it.
        expanded = set(raw)
        for token in raw:
            if "-" in token or "/" in token:
                expanded.update(p for p in _SPLIT_RE.split(token) if p)

        # SKU-like identifiers are compared only via the dedicated sku
        # features; leaving them in the general token sets would
        # contaminate every overlap signal whenever one listing shows the
        # SKU and the other does not.
        skus = {t for t in expanded if t[0].isdigit() and _SKU_RE.match(t)}
        tokens = raw
        if skus:
            sku_parts = {p for t in skus for p in _SPLIT_RE.split(t)} | skus
            expanded -= sku_parts
            tokens = [t for t in raw if t not in sku_parts]

        #: the token text padded for character 3-grams (all tokens), and
        #: the SKU-stripped token text difflib compares when it differs.
        self.padded = f"  {' '.join(raw)}  "
        self.joined = " ".join(tokens) if skus else None
        self.n_tokens = len(tokens)
        self.first = tokens[0] if tokens else None

        # Each token's category byte and canonical edition, from *classes*
        # or classified on a miss.
        if classes is None:
            classes = {}
        flags, editions = bytearray(), None
        for token in expanded:
            found = classes.get(token)
            if found is None:
                found = classes[token] = _classify(token)
            flag, canon = found
            flags.append(flag)
            if canon is not None:
                editions = editions or set()
                editions.add(canon)
        self.tokens = tuple(expanded)
        self.flags = bytes(flags)
        self.counts = _counts(self.flags)
        self.editions = frozenset(editions) if editions else _EMPTY
        self.skus = frozenset(skus) if skus else _EMPTY

        # Fielded (bibliographic) records: the scholar-subspace inputs.
        self.scholar = None
        if description.count(";") >= 2:
            fields = [f.strip() for f in description.split(";")]
            self.scholar = (
                frozenset(_last_names(fields[0])),
                frozenset(_initials(fields[0])),
                frozenset(tokenize(fields[1])),
                _venue_key(fields[2]),
                next((t for t in tokenize(fields[-1]) if _YEAR_RE.match(t)), None),
                "et al" in fields[0].lower(),
            )


def _ratio(shared: int, a: int, b: int) -> float:
    """Jaccard index from the two set sizes and their intersection size."""
    return shared / (a + b - shared) if a or b else 0.0


def _conflict(a: int, b: int, shared: int) -> float:
    return float(bool(a) and bool(b) and not shared)


def _seq_ratio(a: str, b: str) -> float:
    """``SequenceMatcher(None, a, b).ratio()``, computed with string search.

    When *b* is shorter than 200 characters, difflib applies no junk
    heuristic: its matching blocks come from splitting both strings at
    their leftmost longest common substring (leftmost occurrence in *b*)
    and recursing on both sides.  The search below finds that same
    substring by growing a candidate length while a slice of *a* still
    occurs in *b*: a few C-level substring searches instead of a Python
    loop per character pair.  Longer *b* strings go to difflib itself.
    """
    if len(b) >= 200:
        return SequenceMatcher(None, a, b).ratio()
    total = 0
    queue = [(0, len(a), 0, len(b))]
    while queue:
        alo, ahi, blo, bhi = queue.pop()
        window = b[blo:bhi]
        size = 0
        start = i = alo
        while i + size < ahi:
            if a[i: i + size + 1] in window:
                size += 1
                start = i
            else:
                i += 1
        if size:
            total += size
            j = window.find(a[start: start + size]) + blo
            if alo < start and blo < j:
                queue.append((alo, start, blo, j))
            if start + size < ahi and j + size < bhi:
                queue.append((start + size, ahi, j + size, bhi))
    length = len(a) + len(b)
    return 2.0 * total / length if length else 1.0


def _within_one_edit(a: str, b: str) -> bool:
    """``levenshtein(a, b) <= 1``, decided by one scan from the left."""
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > 1:
        return False
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if len(a) == len(b):
        return a[i + 1:] == b[i + 1:]
    return a[i:] == b[i + 1:]


def _text(view: RecordView) -> str:
    return view.padded[2:-2] if view.joined is None else view.joined


def combine_views(a: RecordView, b: RecordView) -> list[float]:
    """The feature row of the pair (left view *a*, right view *b*)."""
    small, big = (a, b) if len(a.tokens) <= len(b.tokens) else (b, a)
    members = set(big.tokens)
    shared = bytes([f for t, f in zip(small.tokens, small.flags) if t in members])
    s_code, s_rare, s_num, s_long, s_ver, s_unit = _counts(shared)
    a_code, a_rare, a_num, a_long, a_ver, a_unit = a.counts
    b_code, b_rare, b_num, b_long, b_ver, b_unit = b.counts

    na, nb, s_tok = len(a.tokens), len(b.tokens), len(shared)
    grams_a, grams_b = _grams(a.padded), _grams(b.padded)
    denom = math.sqrt(len(grams_a) * len(grams_b))
    row = [
        _ratio(s_tok, na, nb),
        s_tok / min(na, nb) if na and nb else 0.0,
        len(grams_a & grams_b) / denom if denom else 0.0,
        _seq_ratio(_text(a), _text(b)),
        (min(a.n_tokens, b.n_tokens) / max(a.n_tokens, b.n_tokens)
         if a.n_tokens and b.n_tokens else 0.0),
        _ratio(s_rare, a_rare, b_rare),
        _ratio(s_num, a_num, b_num),
        _conflict(a_num, b_num, s_num),
        float(not a_num and not b_num),
        float(a.first == b.first) if a.n_tokens and b.n_tokens else 0.0,
        _ratio(s_long, a_long, b_long),
    ]

    # Fielded (bibliographic) records do not carry model codes, versions
    # or SKUs — digit tokens there are years/pages.  Computing product
    # features on them would leak one domain's evidence slots into the
    # other.
    if a.scholar is not None and b.scholar is not None:
        row += [0.0] * len(_PRODUCT)
        row += _scholar_row(a.scholar, b.scholar)
        row.append(1.0)
        return row

    near = 0.0
    if a_code and b_code and not s_code:
        codes_b = [t for t, f in zip(b.tokens, b.flags) if f & _CODE]
        near = float(any(
            _within_one_edit(cl, cr)
            for cl, f in zip(a.tokens, a.flags) if f & _CODE
            for cr in codes_b
        ))
    editions = a.editions & b.editions
    skus = a.skus & b.skus
    row += (
        float(bool(s_code)),
        _conflict(a_code, b_code, s_code),
        near,
        float(bool(s_ver)),
        _conflict(a_ver, b_ver, s_ver),
        float(bool(editions)),
        _conflict(len(a.editions), len(b.editions), len(editions)),
        float(bool(s_unit)),
        _conflict(a_unit, b_unit, s_unit),
        float(bool(skus)),
        _conflict(len(a.skus), len(b.skus), len(skus)),
    )
    row += [0.0] * len(_SCHOLAR)
    row.append(1.0)
    return row


def _scholar_row(a: tuple, b: tuple) -> tuple[float, ...]:
    """The scholar-subspace features of a fielded record pair."""
    names_a, initials_a, title_a, venue_a, year_a, etal_a = a
    names_b, initials_b, title_b, venue_b, year_b, etal_b = b
    venues = venue_a and venue_b
    years = year_a and year_b
    return (
        1.0,
        _jaccard(names_a, names_b),
        _containment(initials_a, initials_b),
        _jaccard(title_a, title_b),
        _containment(title_a, title_b),
        float(venue_a == venue_b) if venues else 0.0,
        float(venue_a != venue_b) if venues else 0.0,
        float(year_a == year_b) if years else 0.0,
        float(year_a != year_b) if years else 0.0,
        float(etal_a or etal_b),
    )


def featurize_pair(left: str, right: str) -> np.ndarray:
    """Compute the feature vector for two serialized entity descriptions."""
    return np.array(combine_views(RecordView(left), RecordView(right)))


class FeatureMemo:
    """Per-description views, owned by one engine for its lifetime.

    In-process backends create one each and pass it down to
    :func:`featurize_pairs`, so a description seen in many candidate
    pairs is tokenized once, a token that recurs across descriptions is
    classified once, and the views die with the backend that built
    them.  Nothing per pair is kept, and no view holds 3-gram data:
    :func:`combine_views` builds a pair's two 3-gram sets and reads
    their sizes from them.  A memo holds about ``MAX_VIEWS`` views
    (~1 KB each) and the classes of their tokens; the insert that would
    pass the bound starts both over, which costs rebuilds and never a
    wrong row.

    Safe to share between threads without a lock: a view is complete
    before it is stored, and a lookup, an insert and a clear are each
    atomic.  Two threads that miss on the same description (or token)
    both build it and store equal values (the later store wins), and two
    threads that find the memo full may both clear it, so a race costs
    rebuilds, may hold a view or two past the bound, and never gives a
    wrong row.
    """

    __slots__ = ("_views", "_classes")

    MAX_VIEWS = 8192

    def __init__(self) -> None:
        self._views: dict[str, RecordView] = {}
        #: every token its views hold, classified (see :class:`RecordView`).
        self._classes: _Classes = {}

    def __len__(self) -> int:
        return len(self._views)

    def view(self, description: str) -> RecordView:
        """The view of *description*, built on first use."""
        found = self._views.get(description)
        if found is None:
            if len(self._views) >= self.MAX_VIEWS:
                self._views.clear()
                self._classes.clear()
            found = RecordView(description, self._classes)
            self._views[description] = found
        return found


# Process-wide memo keyed by the surface-string pair: overlapping splits
# (filtered/extended training sets, shared test sets) featurize for free.
# Only the memo-less path reads or fills it.
_CACHE: dict[tuple[str, str], np.ndarray] = {}


def featurize_texts(left: str, right: str) -> np.ndarray:
    """Cached feature vector for a description pair."""
    key = (left, right)
    vec = _CACHE.get(key)
    if vec is None:
        vec = featurize_pair(left, right)
        _CACHE[key] = vec
    return vec


def featurize_pairs(
    pairs: list[EntityPair], memo: FeatureMemo | None = None
) -> np.ndarray:
    """Feature matrix (n_pairs × NUM_FEATURES) for a list of pairs.

    With a *memo*, rows are combined from its per-description views and
    the process-wide pair memo is neither read nor filled.
    """
    if not pairs:
        return np.zeros((0, NUM_FEATURES))
    if memo is None:
        return np.stack(
            [featurize_texts(p.left.description, p.right.description)
             for p in pairs]
        )
    view = memo.view
    return np.array([
        combine_views(view(p.left.description), view(p.right.description))
        for p in pairs
    ])


def clear_feature_cache() -> None:
    """Drop the process-wide feature memo (mainly for tests)."""
    _CACHE.clear()
