"""Table 2 — graph feature variables of the experiment matrix.

Regenerates the paper's Table 2 for the active profile: per domain, the
algorithms, the varied features, and their value ranges (scaled per
DESIGN.md §2), and validates the planned-run counts that define the
behavior corpus.
"""

from repro.experiments.config import (
    ALPHAS,
    CORPUS_ALGORITHMS,
    ExperimentMatrix,
)
from repro.experiments.reporting import format_table


def test_table2_matrix(profile, artifact, benchmark):
    def compute():
        return [
            ("Graph Analytics", "CC, TC, KC, SSSP, PR, AD",
             "nedges", ", ".join(f"{s:g}" for s in profile.ga_sizes)),
            ("Graph Analytics", "", "α", ", ".join(map(str, ALPHAS))),
            ("Clustering", "KM",
             "nedges", ", ".join(f"{s:g}" for s in profile.ga_sizes)),
            ("Clustering", "", "α", ", ".join(map(str, ALPHAS))),
            ("Collaborative Filtering", "ALS, NMF, SGD, SVD",
             "nedges", ", ".join(f"{s:g}" for s in profile.cf_sizes)),
            ("Collaborative Filtering", "", "α", ", ".join(map(str, ALPHAS))),
            ("Linear Solver", "Jacobi",
             "nrows", ", ".join(map(str, profile.matrix_rows))),
            ("Graphical Model", "LBP",
             "nrows", ", ".join(map(str, profile.grid_sides))),
            ("Graphical Model", "DD",
             "nedges", ", ".join(map(str, profile.mrf_edges))),
        ]

    rows = benchmark(compute)
    artifact("table2_matrix", format_table(
        ["Domain", "Algorithms", "Variable", "Values"],
        rows, title=f"Table 2 (profile: {profile.name})"))

    matrix = ExperimentMatrix(profile)
    # 11 varied-structure algorithms × (4 sizes × 5 α) = 220 planned.
    assert (len(matrix.corpus_runs())
            == len(CORPUS_ALGORITHMS) * 4 * len(ALPHAS))
    # Fixed-structure algorithms contribute 4 runs each.
    assert len(matrix.all_runs()) == 220 + 12


def test_corpus_matches_paper_run_counts(corpus):
    """215 successful runs; the 5 failures are AD at the largest size."""
    assert corpus.n_runs == 215
    assert len(corpus.failures) == 5
    assert {f.algorithm for f in corpus.failures} == {"diameter"}
    largest = max(corpus.profile.ga_sizes)
    assert all(f.spec.nedges == largest for f in corpus.failures)
