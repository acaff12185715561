"""Golden generated content: the synthetic data is pinned byte for byte.

Every model is a persona fitted on the pretraining mixture, and every
table is computed on the generated benchmark splits, so a change to the
generators that moves one record moves every result downstream.
``tests/llm/test_features_golden.py`` pins only what featurization sees;
this test pins the content itself: pair ids, labels, ``corner_case``,
``source``, record ids, descriptions and sorted attributes of every
split of every benchmark dataset, of the pretraining mixture, of a
generated training set, and the records and clusters of the synthetic
dedup corpus.  A speed-up of the generators must leave every digest
unchanged; a deliberate change of the data re-pins them and re-renders
``results/``.
"""

import hashlib
import json

from repro.core.generation import generate_examples
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.datasets.synthetic import synthetic_dedup_corpus
from repro.llm.prior import pretraining_mixture

GOLDEN = {
    "wdc-small/train": "f2e23ce685eef4ec01f7ea7c1b5fd2cf942b2d310f63aeb2d0845d3a8cdc6ad7",
    "wdc-small/valid": "c0c59f97736c0fd8b45a8836832055f10c5e5d00504d43e1230c86986941f56e",
    "wdc-small/test": "a5a82ef659213b3ef4ebd9f5234e484b898c3ef4cf0ddebfa8dbf825b9c661bc",
    "wdc-medium/train": "9cf7711ba4fe31711112a3de9db0c3cf56b9217d0d3090ecc6374a2f7f4598c3",
    "wdc-medium/valid": "5b5c86eb3c7066af87504b510fbb41cdb157e3223a6aa000bbfbead03c3f3b50",
    "wdc-medium/test": "a5a82ef659213b3ef4ebd9f5234e484b898c3ef4cf0ddebfa8dbf825b9c661bc",
    "wdc-large/train": "f874eb8c8ad594b026f6fdb17ce305c9b27ac2340873fc8ce3d084c057cc9749",
    "wdc-large/valid": "863717b9ddbd932d1df4c0f8b188e199318ea66092b9fd5c3a137b173f3f55fa",
    "wdc-large/test": "a5a82ef659213b3ef4ebd9f5234e484b898c3ef4cf0ddebfa8dbf825b9c661bc",
    "abt-buy/train": "a3c243e33577c87c113a3754de7a109a1ada451777fa9ea56b5af368cf410767",
    "abt-buy/valid": "4ebc7d582effcc7693a53750fe31d192ee3c18c1e4c50996177ac126eb18c7dd",
    "abt-buy/test": "e28ef605ff5a6c66bf182da898e423dd8ac55947695bbb3ddf239178beef9d3f",
    "amazon-google/train": "25e213ae8e690be2be9b6be8ffbc3c647bc53c5ab9ebaa057fcde9a91f958710",
    "amazon-google/valid": "d439a926a95719d3882d4c09d235557341de20aca8fe6fdf1c79a68b0d222b64",
    "amazon-google/test": "405e2df0090c9fbf0c892ef872b5495dba8c3f421906f661b430b0248900e3d3",
    "walmart-amazon/train": "09245d9a4c45d419cc961efc9d25b30807fb798f0dd35085d903d4e4ff601fd7",
    "walmart-amazon/valid": "bf34f8b00aedab49ccdfe6ba8c4e4bd1b290294f811d27000c653d5e09ce4351",
    "walmart-amazon/test": "5a250ffbc99d95f5f2aa36a48a1511633757beeecabebdbbf218609c136857e4",
    "dblp-scholar/train": "1568b1092c398265f0c7edaa310d83d40aa677a82fc400450dd79629e62565b3",
    "dblp-scholar/valid": "505b6ca3212fe9e85057590c754f9d1db42ddd62d4a6c611423574917ddca74c",
    "dblp-scholar/test": "aeacff6c53ef185d91a309735acc2fce737174e279beb0ee7d3da89eebcd2fa1",
    "dblp-acm/train": "05fa3f0ccbebd4a647f13bff6f7b9ae650ef3a78b81e138d270062a899e9ff9f",
    "dblp-acm/valid": "c1ecb0567f4fd707ec76dbe7f5b157b8c6ebc2908ae3c52290c7a25365cd5ef8",
    "dblp-acm/test": "ba533f771382abc0176fb81a3a92158543267b21bb0b35c32dba76510f3ab80e",
    "pretraining-mixture": "f877d49b85e27f718dd9452d36ead607ca9b7b1904f29c61ca3a0b8578d725b8",
    "generated/wdc-small-40": "1a1a6b30e0dd8f5de329e637112224091e5207fa370fff77e7a101899f75543c",
    "synthetic-dedup-1500/records": "18bebad29a41b0a85aff2aaae9423d81648efe41d4dd83fa277605799ffa8e4f",
    "synthetic-dedup-1500/clusters": "b9c95144abf6011f475a66e075c96dcbaeda8fc9b87b77bbecaee2eca9bec1c2",
}


def _record(record) -> list:
    return [
        record.record_id,
        record.description,
        sorted(record.attributes.items()),
    ]


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _pairs_digest(pairs) -> str:
    return _digest(
        [p.pair_id, p.label, p.corner_case, p.source, _record(p.left), _record(p.right)]
        for p in pairs
    )


def content_digests() -> dict[str, str]:
    digests = {
        f"{name}/{which}": _pairs_digest(split.pairs)
        for name in DATASET_NAMES
        for which, split in load_dataset(name).splits.items()
    }
    digests["pretraining-mixture"] = _pairs_digest(pretraining_mixture())
    seeds = load_dataset("wdc-small").train.subset(range(40))
    digests["generated/wdc-small-40"] = _pairs_digest(generate_examples(seeds))
    corpus = synthetic_dedup_corpus(1500, seed=0)
    digests["synthetic-dedup-1500/records"] = _digest(map(_record, corpus.records))
    digests["synthetic-dedup-1500/clusters"] = _digest(map(list, corpus.clusters))
    return digests


def test_generated_content_matches_the_golden_digests():
    assert content_digests() == GOLDEN
