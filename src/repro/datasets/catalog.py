"""Synthetic entity catalogs.

The paper's benchmarks are built from real web data (product offers from
online shops, bibliographic entries from DBLP / ACM / Google Scholar).
Offline we generate structurally equivalent entities: products have a brand,
product line, model code, variant and specs; software has vendor, name,
edition, version and platform; papers have authors, title, venue and year.

Catalogs are deterministic functions of a seed, so every dataset build is
reproducible.  The vocabularies are fictional but shaped like the real data
(alphanumeric model codes, capacity specs, versioned software editions,
venue abbreviations, author initials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import derive_rng, pick

__all__ = [
    "ProductEntity",
    "SoftwareEntity",
    "PaperEntity",
    "ProductCatalog",
    "SoftwareCatalog",
    "PaperCatalog",
]

# --------------------------------------------------------------------------
# Vocabularies (fictional, but shaped like the real benchmarks)
# --------------------------------------------------------------------------

PRODUCT_BRANDS = [
    "Aventra", "Brixon", "Corvek", "Dynalux", "Elmara", "Fentrix", "Gavotti",
    "Helioz", "Ibexon", "Jaltec", "Kyrona", "Lumetra", "Maverin", "Nexilon",
    "Orvita", "Pelagor", "Quorvex", "Rastelli", "Sonavik", "Tarvona",
    "Ulmetric", "Vextara", "Wolvik", "Xandrel", "Yorvala", "Zephtron",
    "Acutron", "Belmora", "Cindrex", "Dorvane",
]

PRODUCT_CATEGORIES = {
    "headset": {
        "lines": ["Evolve", "Pulse", "Clarity", "Vox", "Aria", "Tempo"],
        "types": ["stereo headset", "mono headset", "wireless headset",
                  "usb headset", "gaming headset"],
        "specs": ["noise cancelling", "bluetooth", "on-ear", "over-ear",
                  "with microphone", "dual connectivity"],
        "units": [],
    },
    "storage": {
        "lines": ["Vault", "Archive", "Rapid", "Core", "Titan", "Nimbus"],
        "types": ["ssd", "hdd", "usb flash drive", "external drive",
                  "nvme ssd"],
        "specs": ["120gb", "250gb", "500gb", "1tb", "2tb", "4tb"],
        "units": ["gb", "tb"],
    },
    "bike": {
        "lines": ["PG", "XG", "CS", "Force", "Rival", "Apex"],
        "types": ["cassette", "chainring", "derailleur", "crankset",
                  "shifter"],
        "specs": ["7sp", "8sp", "9sp", "10sp", "11sp", "12sp",
                  "11-36t", "12-32t", "11-28t", "10-42t"],
        "units": ["sp", "t"],
    },
    "camera": {
        "lines": ["Optio", "Lumix", "Vista", "Pixon", "Retina", "Focal"],
        "types": ["digital camera", "action camera", "camcorder",
                  "mirrorless camera"],
        "specs": ["12mp", "16mp", "20mp", "24mp", "4k", "1080p"],
        "units": ["mp"],
    },
    "printer": {
        "lines": ["LaserPro", "InkMax", "OfficeJet", "PageWise", "DocuLine"],
        "types": ["laser printer", "inkjet printer", "multifunction printer",
                  "label printer"],
        "specs": ["duplex", "wireless", "color", "monochrome", "a4", "a3"],
        "units": [],
    },
    "phone": {
        "lines": ["Galaxy", "Nova", "Prime", "Edge", "Zen", "Flux"],
        "types": ["smartphone", "cell phone", "mobile phone"],
        "specs": ["64gb", "128gb", "256gb", "black", "silver", "blue"],
        "units": ["gb"],
    },
    "shoe": {
        "lines": ["Strider", "Vector", "Glide", "Summit", "Pace", "Trail"],
        "types": ["running shoe", "trail shoe", "walking shoe", "sneaker"],
        "specs": ["size 8", "size 9", "size 10", "size 11", "mens",
                  "womens"],
        "units": [],
    },
    "watch": {
        "lines": ["Chrono", "Astra", "Orbit", "Mariner", "Pilot"],
        "types": ["smartwatch", "sports watch", "fitness tracker"],
        "specs": ["gps", "heart rate", "44mm", "40mm", "waterproof"],
        "units": ["mm"],
    },
}

SOFTWARE_VENDORS = [
    "Macrosoft", "Adobi", "Corell", "Symantix", "Intuitive", "Nuvosoft",
    "Avantek", "Cyberlink", "Roxion", "Panther Software", "Quark Systems",
    "Borland Digital",
]

SOFTWARE_PRODUCTS = [
    "Office Suite", "Photo Studio", "Video Editor", "Draw", "Page Maker",
    "Tax Prep", "Antivirus Shield", "System Utilities", "Web Designer",
    "Database Manager", "Presentation Maker", "Accounting Plus",
    "Media Converter", "Backup Master", "PDF Creator", "Language Tutor",
]

SOFTWARE_EDITIONS = [
    "standard", "professional", "home", "premium", "deluxe", "ultimate",
    "student", "small business",
]

SOFTWARE_VERSIONS = [
    "2003", "2005", "2007", "2009", "2010", "3.0", "4.0", "5.0", "6.0",
    "7.0", "8.0", "9.0", "x3", "x4", "xi",
]

SOFTWARE_PLATFORMS = ["windows", "mac", "win/mac", "windows xp", "windows vista"]

FIRST_NAMES = [
    "alan", "maria", "jun", "petra", "samuel", "ingrid", "rafael", "akiko",
    "david", "elena", "tomas", "priya", "george", "hanna", "victor", "lena",
    "oscar", "mei", "daniel", "sofia", "erik", "nadia", "pablo", "ruth",
    "hugo", "iris", "felix", "clara", "ivan", "nora",
]

LAST_NAMES = [
    "müller", "tanaka", "rossi", "novak", "silva", "kowalski", "jensen",
    "garcia", "smirnov", "okafor", "lindgren", "moreau", "fischer", "santos",
    "horvath", "ahmed", "peters", "wagner", "costa", "yamamoto", "berger",
    "dubois", "keller", "fontana", "larsen", "marino", "weiss", "nakamura",
    "olsen", "ricci",
]

TITLE_TOPICS = [
    "query optimization", "entity resolution", "data integration",
    "stream processing", "index structures", "transaction management",
    "schema matching", "graph databases", "approximate joins",
    "columnar storage", "data cleaning", "workload forecasting",
    "distributed snapshots", "record linkage", "view maintenance",
    "cardinality estimation", "log-structured storage", "data provenance",
    "similarity search", "adaptive indexing", "spatial queries",
    "temporal databases", "crowdsourced labeling", "knowledge graphs",
]

TITLE_PREFIXES = [
    "efficient", "scalable", "adaptive", "incremental", "robust",
    "learning-based", "parallel", "distributed", "online", "declarative",
    "towards practical", "a survey of", "benchmarking", "rethinking",
]

TITLE_SUFFIXES = [
    "in large-scale systems", "for relational data", "over data streams",
    "with machine learning", "on modern hardware", "in the cloud",
    "for heterogeneous sources", "using deep models", "at scale",
    "revisited",
]

VENUES = [
    ("sigmod", "proceedings of the acm sigmod international conference on management of data"),
    ("vldb", "proceedings of the vldb endowment"),
    ("icde", "proceedings of the ieee international conference on data engineering"),
    ("edbt", "proceedings of the international conference on extending database technology"),
    ("cikm", "proceedings of the acm international conference on information and knowledge management"),
    ("kdd", "proceedings of the acm sigkdd conference on knowledge discovery and data mining"),
    ("tods", "acm transactions on database systems"),
    ("tkde", "ieee transactions on knowledge and data engineering"),
]


# --------------------------------------------------------------------------
# Entities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductEntity:
    """A ground-truth product (before surface-form corruption)."""

    entity_id: str
    brand: str
    category: str
    line: str
    model_code: str
    product_type: str
    spec: str
    sku: str


@dataclass(frozen=True)
class SoftwareEntity:
    """A ground-truth software product (Amazon-Google style)."""

    entity_id: str
    vendor: str
    product: str
    edition: str
    version: str
    platform: str
    sku: str


@dataclass(frozen=True)
class PaperEntity:
    """A ground-truth bibliographic entry."""

    entity_id: str
    authors: tuple[str, ...]
    title: str
    venue_abbrev: str
    venue_full: str
    year: int


# --------------------------------------------------------------------------
# Catalogs (entity samplers)
# --------------------------------------------------------------------------


class ProductCatalog:
    """Samples distinct ground-truth products, plus hard siblings.

    A *sibling* of a product shares brand, category and line but differs in
    model code or spec — the raw material for corner-case negatives.
    """

    def __init__(self, seed: int, categories: list[str] | None = None) -> None:
        self._seed = seed
        self._categories = categories or list(PRODUCT_CATEGORIES)
        self._counter = 0

    def _rng(self, *parts: object) -> np.random.Generator:
        return derive_rng(self._seed, "product-catalog", *parts)

    def sample(self) -> ProductEntity:
        """Sample a fresh distinct product entity."""
        idx = self._counter
        self._counter += 1
        rng = self._rng(idx)
        category = pick(rng, self._categories)
        spec_pool = PRODUCT_CATEGORIES[category]
        brand = pick(rng, PRODUCT_BRANDS)
        line = pick(rng, spec_pool["lines"])
        model_code = self._model_code(rng)
        product_type = pick(rng, spec_pool["types"])
        spec = pick(rng, spec_pool["specs"])
        sku = self._sku(rng)
        return ProductEntity(
            entity_id=f"prod-{self._seed}-{idx}",
            brand=brand,
            category=category,
            line=line,
            model_code=model_code,
            product_type=product_type,
            spec=spec,
            sku=sku,
        )

    def sibling(self, entity: ProductEntity, variant: int) -> ProductEntity:
        """Return a distinct product that closely resembles *entity*.

        Shares brand/category/line; differs in model code and possibly spec,
        mirroring the "hard negative" construction of WDC Products.
        """
        rng = self._rng(entity.entity_id, "sibling", variant)
        spec_pool = PRODUCT_CATEGORIES[entity.category]
        new_code = self._perturb_code(entity.model_code, rng)
        spec = entity.spec
        if rng.random() < 0.5:
            others = [s for s in spec_pool["specs"] if s != entity.spec]
            if others:
                spec = pick(rng, others)
        return ProductEntity(
            entity_id=f"{entity.entity_id}-sib{variant}",
            brand=entity.brand,
            category=entity.category,
            line=entity.line,
            model_code=new_code,
            product_type=entity.product_type,
            spec=spec,
            sku=self._sku(rng),
        )

    @staticmethod
    def _model_code(rng: np.random.Generator) -> str:
        """Alphanumeric model code like ``80``, ``730`` or ``a55x``."""
        style = rng.random()
        if style < 0.45:
            return str(int(rng.integers(10, 999)))
        if style < 0.8:
            letter = chr(ord("a") + int(rng.integers(0, 26)))
            return f"{letter}{int(rng.integers(10, 99))}"
        return f"{int(rng.integers(100, 9999))}{chr(ord('a') + int(rng.integers(0, 6)))}"

    @staticmethod
    def _perturb_code(code: str, rng: np.random.Generator) -> str:
        """Return a different but similar-looking model code."""
        digits = [c for c in code if c.isdigit()]
        if digits:
            pos = code.index(pick(rng, digits))
            old = code[pos]
            new = str((int(old) + 1 + int(rng.integers(0, 8))) % 10)
            if new == old:
                new = str((int(old) + 1) % 10)
            return code[:pos] + new + code[pos + 1:]
        return code + str(int(rng.integers(0, 9)))

    @staticmethod
    def _sku(rng: np.random.Generator) -> str:
        return "-".join(
            str(int(rng.integers(100, 9999))) for _ in range(3)
        )


class SoftwareCatalog:
    """Samples software products where versions/editions are discriminative."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._counter = 0

    def _rng(self, *parts: object) -> np.random.Generator:
        return derive_rng(self._seed, "software-catalog", *parts)

    def sample(self) -> SoftwareEntity:
        idx = self._counter
        self._counter += 1
        rng = self._rng(idx)
        return SoftwareEntity(
            entity_id=f"soft-{self._seed}-{idx}",
            vendor=pick(rng, SOFTWARE_VENDORS),
            product=pick(rng, SOFTWARE_PRODUCTS),
            edition=pick(rng, SOFTWARE_EDITIONS),
            version=pick(rng, SOFTWARE_VERSIONS),
            platform=pick(rng, SOFTWARE_PLATFORMS),
            sku=str(int(rng.integers(10000, 99999))),
        )

    def sibling(self, entity: SoftwareEntity, variant: int) -> SoftwareEntity:
        """Same vendor+product, different version or edition (hard negative)."""
        rng = self._rng(entity.entity_id, "sibling", variant)
        version = entity.version
        edition = entity.edition
        if rng.random() < 0.7:
            others = [v for v in SOFTWARE_VERSIONS if v != entity.version]
            version = pick(rng, others)
        else:
            others = [e for e in SOFTWARE_EDITIONS if e != entity.edition]
            edition = pick(rng, others)
        return SoftwareEntity(
            entity_id=f"{entity.entity_id}-sib{variant}",
            vendor=entity.vendor,
            product=entity.product,
            edition=edition,
            version=version,
            platform=entity.platform,
            sku=str(int(rng.integers(10000, 99999))),
        )


class PaperCatalog:
    """Samples bibliographic entries, plus near-duplicate siblings."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._counter = 0

    def _rng(self, *parts: object) -> np.random.Generator:
        return derive_rng(self._seed, "paper-catalog", *parts)

    def sample(self) -> PaperEntity:
        idx = self._counter
        self._counter += 1
        rng = self._rng(idx)
        n_authors = int(rng.integers(1, 5))
        authors = tuple(
            f"{pick(rng, FIRST_NAMES)} {pick(rng, LAST_NAMES)}"
            for _ in range(n_authors)
        )
        title = self._title(rng)
        abbrev, full = pick(rng, VENUES)
        return PaperEntity(
            entity_id=f"paper-{self._seed}-{idx}",
            authors=authors,
            title=title,
            venue_abbrev=abbrev,
            venue_full=full,
            year=int(rng.integers(1995, 2015)),
        )

    def sibling(self, entity: PaperEntity, variant: int) -> PaperEntity:
        """A different paper by overlapping authors in the same venue.

        Hard negatives in the bibliographic benchmarks are typically other
        papers by the same group (shared authors, same venue, nearby year).
        """
        rng = self._rng(entity.entity_id, "sibling", variant)
        title = self._title(rng)
        keep = max(1, len(entity.authors) - 1)
        authors = entity.authors[:keep] + (
            f"{pick(rng, FIRST_NAMES)} {pick(rng, LAST_NAMES)}",
        )
        year = entity.year + int(rng.integers(-2, 3))
        return PaperEntity(
            entity_id=f"{entity.entity_id}-sib{variant}",
            authors=authors,
            title=title,
            venue_abbrev=entity.venue_abbrev,
            venue_full=entity.venue_full,
            year=year,
        )

    @staticmethod
    def _title(rng: np.random.Generator) -> str:
        prefix = pick(rng, TITLE_PREFIXES)
        topic = pick(rng, TITLE_TOPICS)
        if rng.random() < 0.6:
            suffix = pick(rng, TITLE_SUFFIXES)
            return f"{prefix} {topic} {suffix}"
        return f"{prefix} {topic}"
