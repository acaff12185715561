"""Surface-form rendering and corruption of catalog entities.

Positives in real EM benchmarks are two *differently rendered* descriptions
of the same entity (different shops / different bibliographic databases).
This module turns a catalog entity into a noisy surface string.  The
``noise`` level (0..1) controls how aggressively the rendering deviates
from the canonical form; per-dataset hardness profiles choose it.
"""

from __future__ import annotations

import numpy as np

from repro._util import pick
from repro.datasets.catalog import PaperEntity, ProductEntity, SoftwareEntity

__all__ = [
    "render_product",
    "render_software",
    "render_paper",
    "typo",
]

_NOISE_WORDS = [
    "new", "oem", "genuine", "original", "retail", "bulk", "2-pack",
    "free shipping", "w/", "incl.", "special offer", "open box",
]

_TYPE_ABBREV = {
    "stereo headset": "stereo",
    "mono headset": "mono",
    "wireless headset": "wireless",
    "multifunction printer": "mfp",
    "digital camera": "digicam",
    "running shoe": "runner",
    "usb flash drive": "usb stick",
    "external drive": "ext. drive",
}

_PLATFORM_ALIASES = {
    "windows": ["windows", "win", "for windows", "pc"],
    "mac": ["mac", "macintosh", "for mac"],
    "win/mac": ["win/mac", "hybrid", "pc/mac"],
    "windows xp": ["windows xp", "win xp", "xp"],
    "windows vista": ["windows vista", "vista"],
}

_EDITION_ALIASES = {
    "standard": ["standard", "std"],
    "professional": ["professional", "pro", "prof."],
    "home": ["home", "home edition"],
    "premium": ["premium", "prem"],
    "deluxe": ["deluxe", "dlx"],
    "ultimate": ["ultimate", "ult"],
    "student": ["student", "student edition", "academic"],
    "small business": ["small business", "sb edition", "smb"],
}


def typo(word: str, rng: np.random.Generator) -> str:
    """Introduce a single character-level typo into *word*."""
    if len(word) < 3:
        return word
    pos = int(rng.integers(1, len(word) - 1))
    op = rng.random()
    if op < 0.34:  # deletion
        return word[:pos] + word[pos + 1:]
    if op < 0.67:  # transposition
        return word[:pos] + word[pos + 1] + word[pos] + word[pos + 2:]
    # duplication
    return word[:pos] + word[pos] + word[pos:]


def _maybe_typo(text: str, rng: np.random.Generator, prob: float) -> str:
    words = text.split()
    out = []
    for word in words:
        # Identifying tokens (model codes, versions) rarely carry typos in
        # real listings; corrupting them would destroy the match signal.
        effective = prob * 0.25 if any(map(str.isdigit, word)) else prob
        if rng.random() < effective:
            out.append(typo(word, rng))
        else:
            out.append(word)
    return " ".join(out)


def render_product(
    entity: ProductEntity,
    rng: np.random.Generator,
    noise: float,
    code_dropout: float = 0.0,
) -> tuple[str, dict[str, str]]:
    """Render a product title the way one particular shop would.

    Returns the surface string and the structured attributes it exposes
    (used by dataset builders and the explanation generator).
    """
    brand = entity.brand
    line = entity.line
    code = entity.model_code
    ptype = entity.product_type
    spec = entity.spec

    # Style choices that vary between shops.
    if rng.random() < 0.3 + 0.3 * noise:
        brand = brand.upper() if rng.random() < 0.5 else brand.lower()
    if rng.random() < 0.25 * noise and ptype in _TYPE_ABBREV:
        ptype = _TYPE_ABBREV[ptype]
    include_sku = rng.random() < 0.35
    include_spec = rng.random() > 0.2 * noise
    include_type = rng.random() > 0.25 * noise
    drop_brand = rng.random() < 0.1 * noise
    # Many real listings omit the model number entirely — the single most
    # identifying token — which is a dominant source of benchmark hardness.
    drop_code = rng.random() < code_dropout

    parts: list[str] = []
    if not drop_brand:
        parts.append(brand)
    if drop_code:
        parts.append(line)
    else:
        parts.append(f"{line} {code}" if rng.random() < 0.7 else f"{line}-{code}")
    if include_type:
        parts.append(ptype)
    if include_spec:
        parts.append(spec)
    if include_sku:
        parts.append(f"({entity.sku})")
    if rng.random() < 0.3 * noise:
        parts.append(pick(rng, _NOISE_WORDS))
    if rng.random() < 0.4:  # some shops reorder type/spec before the line
        head, tail = parts[:1], parts[1:]
        rng.shuffle(tail)
        parts = head + tail

    title = " ".join(parts)
    title = _maybe_typo(title, rng, prob=0.06 * noise)

    attributes = {
        "brand": entity.brand,
        "model": f"{entity.line} {entity.model_code}",
        "type": entity.product_type,
        "spec": entity.spec if include_spec else "",
        "sku": entity.sku if include_sku else "",
        "category": entity.category,
    }
    return title, attributes


def render_software(
    entity: SoftwareEntity, rng: np.random.Generator, noise: float
) -> tuple[str, dict[str, str]]:
    """Render a software product title (Amazon-Google style).

    The discriminative signal (version/edition) is frequently reordered or
    aliased, which is what makes the Amazon-Google benchmark hard.
    """
    vendor = entity.vendor
    product = entity.product
    edition = pick(rng, _EDITION_ALIASES[entity.edition])
    platform = pick(rng, _PLATFORM_ALIASES[entity.platform])
    version = entity.version

    include_platform = rng.random() < 0.55
    include_sku = rng.random() < 0.2
    drop_vendor = rng.random() < 0.15 * noise
    drop_edition = rng.random() < 0.2 * noise

    parts: list[str] = []
    if not drop_vendor:
        parts.append(vendor)
    parts.append(product)
    tail = [version]
    if not drop_edition:
        tail.append(edition)
    if include_platform:
        tail.append(platform)
    rng.shuffle(tail)
    parts.extend(tail)
    if include_sku:
        parts.append(f"[{entity.sku}]")

    title = " ".join(parts).lower()
    title = _maybe_typo(title, rng, prob=0.05 * noise)

    attributes = {
        "vendor": entity.vendor,
        "product": entity.product,
        "edition": entity.edition if not drop_edition else "",
        "version": entity.version,
        "platform": entity.platform if include_platform else "",
    }
    return title, attributes


def _format_author(name: str, style: str) -> str:
    first, _, last = name.partition(" ")
    if style == "full":
        return name
    if style == "initial":
        return f"{first[0]}. {last}"
    if style == "last-first":
        return f"{last}, {first[0]}."
    return name


def render_paper(
    entity: PaperEntity, rng: np.random.Generator, noise: float
) -> tuple[str, dict[str, str]]:
    """Render a bibliographic entry the way one database would.

    DBLP is clean and complete; ACM is clean; Google Scholar truncates
    author lists, abbreviates venues inconsistently and drops years — the
    ``noise`` level expresses that difference.
    """
    style = pick(rng, ("full", "initial", "last-first"))
    authors = [_format_author(a, style) for a in entity.authors]
    if len(authors) > 2 and rng.random() < 0.4 * noise:
        authors = authors[:2] + ["et al"]
    if rng.random() < 0.25 * noise:
        rng.shuffle(authors)
    author_str = ", ".join(authors)

    title = entity.title
    title = _maybe_typo(title, rng, prob=0.04 * noise)
    if rng.random() < 0.2 * noise:
        words = title.split()
        if len(words) > 4:
            title = " ".join(words[: len(words) - int(rng.integers(1, 3))])

    if rng.random() < 0.5:
        venue = entity.venue_abbrev
    else:
        venue = entity.venue_full
    if rng.random() < 0.3 * noise:
        venue = ""

    year = str(entity.year)
    if rng.random() < 0.25 * noise:
        year = ""

    attributes = {
        "authors": author_str,
        "title": title,
        "venue": venue,
        "year": year,
    }
    return "", attributes  # papers are serialized field-wise, not as a title
