"""Golden feature matrix: featurization is pinned bit for bit.

The simulated model sees a pair only through ``featurize_pairs``, so a
change to featurization that moves any float moves every table and
figure downstream.  This test pins the sha256 of the feature-matrix
bytes for every split of every benchmark dataset (the six datasets of
the paper, WDC Products at its three sizes) and for the pretraining
mixture.  A refactor or speed-up of ``featurize_pair`` must leave every
digest unchanged; a deliberate change of the representation re-pins
them and re-renders ``results/``.

Featurizing ~120k distinct pairs takes about a minute.
"""

import hashlib

from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.llm.features import clear_feature_cache, featurize_pairs
from repro.llm.prior import pretraining_mixture

GOLDEN = {
    "wdc-small/train": "314e9ff928ad6d4b0e5c241018b41b8cae048e77be6df2d99016f1da20ee5ef0",
    "wdc-small/valid": "afbc7723de30df03b215965ce33762d73244b80d46c045c66d948d6632546ddd",
    "wdc-small/test": "1e4ef629a13c39351281c18d6fa0962a29ac91fa6f7ea2ffe613575dc66bec2c",
    "wdc-medium/train": "fb126dc23b7442f7246287cff877376edcc9ec97dec9e70a941d667d2d9a6e45",
    "wdc-medium/valid": "0caf96b7f87fa3e13ded8bc24ecc8097969a683c3a361aeb4daab41f752589bc",
    "wdc-medium/test": "1e4ef629a13c39351281c18d6fa0962a29ac91fa6f7ea2ffe613575dc66bec2c",
    "wdc-large/train": "65825d731f5dad56594978d1f3b2855522e151c3b8bb979bf2a62b79c12fa591",
    "wdc-large/valid": "c83f2b92fe6995b6485bd65f80a03a60dcbe8cc018f0471013a4f63618a68f90",
    "wdc-large/test": "1e4ef629a13c39351281c18d6fa0962a29ac91fa6f7ea2ffe613575dc66bec2c",
    "abt-buy/train": "d07c8d6389ac89a4bbc4b8a02d71f025661dae3918c60eeac32be20f6972ac57",
    "abt-buy/valid": "549fa768cb7c6005e16580de464872f9e59babe2100f330792d54925015ddccd",
    "abt-buy/test": "228675aea0f37e1c8ac5bd8c3b04bad675caeb0f03928fb5d2ba6c53179e9e00",
    "amazon-google/train": "894c427ba3a11aa9ad8e85f6e5c587b64f5f49f803af56f3132be6def08b1835",
    "amazon-google/valid": "b6e885c4f026fef0e91482a1b10155cd4dce0a11e106c0dda50e95fdb1f9572e",
    "amazon-google/test": "01ba7c007fc55da9813a08e138fc64fd0ce5703a6beb1902a33269dedee286e8",
    "walmart-amazon/train": "1ce75edeb4a5e58f3bd7d8504c47bd67f5124985c924c4d7f39e1cf20ea5e535",
    "walmart-amazon/valid": "6d053a0cbfaf1d12c4dd88e61169d437cea3cb26642dde9507bd436b4600de2d",
    "walmart-amazon/test": "93a37bfe2337652cfda5be10894c2f71d2af0654546cf1023037e14c07a1169e",
    "dblp-scholar/train": "ab9b0f6febee172a6cf31f029b5233635dc7630d15f2c580f0d98f0b92a18d42",
    "dblp-scholar/valid": "310c1c272713f83fff6fb43ba01364f8d7cf8caa3cb692a1df31fcf010409379",
    "dblp-scholar/test": "dbae6bfd22c5ba448f503e53d591d3b6b84b38e55858f289dbd8785772d2576a",
    "dblp-acm/train": "753132ad72089367e2d577d57d984eb50f27252dccc151445877555c2ca052ea",
    "dblp-acm/valid": "8c29fc9bfc5861704d7701378c16061f3ff81e07ec6340f5629f6d25107648c8",
    "dblp-acm/test": "45f8fae9f1e0eb00bf6423063db01fc682bc5361a508667c8fcba753bb908377",
    "pretraining-mixture": "ab69cdefefe40f50d1ca98ad94a145a5656522da12c2b7b0d787975489fe3ed2",
}


def _digest(pairs) -> str:
    return hashlib.sha256(featurize_pairs(list(pairs)).tobytes()).hexdigest()


def test_feature_matrices_match_the_golden_digests():
    # Start and end cold: every vector is computed by featurize_pair
    # here, and the ~50 MB memo is not left behind for later tests.
    clear_feature_cache()
    try:
        digests = {
            f"{name}/{which}": _digest(split.pairs)
            for name in DATASET_NAMES
            for which, split in load_dataset(name).splits.items()
        }
        digests["pretraining-mixture"] = _digest(pretraining_mixture())
    finally:
        clear_feature_cache()
    assert digests == GOLDEN
