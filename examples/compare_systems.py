#!/usr/bin/env python
"""Why narrow benchmarks mislead: comparing systems over ensembles.

The paper's Table 1 shows three published studies reaching conflicting
conclusions about Giraph vs GraphLab. This example makes the mechanism
visible: two system *cost models* (a communication-bound distributed
engine vs a compute-bound shared-memory engine) are compared over

1. single-algorithm ensembles — where the verdict flips with the
   algorithm chosen (the paper's finding (1)), and
2. a high-coverage designed ensemble — where the comparison is stable
   and decomposable by behavior region.

Run::

    python examples/compare_systems.py
"""

from collections import Counter

from repro.ensemble.search import best_ensemble
from repro.experiments.corpus import build_corpus
from prediction import compare_systems
from prediction.cost_model import ARCHETYPES


def main() -> None:
    print("Building the behavior corpus (smoke profile, cached)...\n")
    corpus = build_corpus("smoke")
    model_a = ARCHETYPES["shared-memory"]
    model_b = ARCHETYPES["sync-distributed"]

    print(f"== Single-algorithm studies: {model_a.name} vs {model_b.name} ==")
    verdicts = Counter()
    for alg in corpus.algorithms():
        runs = corpus.by_algorithm(alg)
        report = compare_systems(model_a, model_b,
                                 [r.metrics for r in runs],
                                 tags=[r.tag for r in runs])
        verdicts[report.overall_winner] += 1
        print(f"  a study using only {alg:<10}  →  winner: "
              f"{report.overall_winner:<16} "
              f"({report.wins_a}-{report.wins_b} by runs)")
    print(f"\nverdict distribution across single-algorithm studies: "
          f"{dict(verdicts)}")
    if len(verdicts) > 1:
        print("→ the published conclusion depends on the ensemble — the "
              "paper's finding (1).")

    print("\n== A designed high-coverage ensemble ==")
    vectors = corpus.vectors(scheme="max")
    designed = best_ensemble(vectors, 10, "coverage", n_samples=4000)
    chosen = {(v.tag[0], v.tag[1], v.tag[2]) for v in designed.ensemble}
    runs = [r for r in corpus.runs if r.tag in chosen]
    report = compare_systems(model_a, model_b,
                             [r.metrics for r in runs],
                             tags=[r.tag for r in runs])
    print(report.summary())
    print("\n→ a behavior-diverse ensemble shows *where* each system "
          "wins instead of a single misleading aggregate.")


if __name__ == "__main__":
    main()
