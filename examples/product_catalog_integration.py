#!/usr/bin/env python
"""Scenario: deduplicating product offers from two shops.

A data-integration pipeline in the style the paper's introduction
motivates: offers from two web shops must be matched before being merged
into one catalog.  The pipeline uses a fine-tuned model with structured
explanations (the paper's best representation for small models), served
in-process through the local backend, and reports precision/recall so an
operator can pick a trust level.

Usage::

    python examples/product_catalog_integration.py
"""

from repro.core.pipeline import TailorMatch
from repro.datasets.registry import load_dataset
from repro.engine.backends import LocalBackend
from repro.eval.metrics import f1_score
from repro.llm.parsing import parse_yes_no
from repro.prompts.templates import DEFAULT_PROMPT

import numpy as np


def main() -> None:
    # Fine-tune once with the paper's best Dimension-1 representation.
    print("fine-tuning Llama-3.1-8B with structured explanations …")
    tm = TailorMatch("llama-3.1-8b")
    matcher = tm.fine_tune("wdc-small", explanations="structured")

    # Candidate offer pairs arriving from the two shops (we reuse a slice of
    # the Walmart-Amazon benchmark as the incoming workload).
    workload = load_dataset("walmart-amazon").test.subset(range(400), "intake")
    print(f"matching {len(workload)} candidate offer pairs …")

    prompts = [
        DEFAULT_PROMPT.render(p.left.description, p.right.description)
        for p in workload
    ]
    answers = LocalBackend(matcher).generate(prompts)
    predictions = np.array([bool(parse_yes_no(a)) for a in answers])

    labels = np.array(workload.labels())
    scores = f1_score(labels, predictions)
    print(f"precision {scores.precision:.1f}  recall {scores.recall:.1f}  "
          f"F1 {scores.f1:.1f}")

    merged = int(predictions.sum())
    print(f"{merged} offer pairs would be merged into the catalog;")
    print(f"{scores.fp} of them are false merges — review before committing.")

    print("\nsample decisions:")
    for pair, answer in list(zip(workload, answers))[:5]:
        print(f"  [{answer.split('.')[0]:>3s}] {pair.left.description!r}")
        print(f"        {pair.right.description!r}")


if __name__ == "__main__":
    main()
