"""Table 1 — prior comparative graph-processing studies.

Regenerates the paper's Table 1 and goes one step further: each
study's benchmark set is modeled as an ensemble over our corpus and
*scored* with spread and coverage, quantifying the paper's qualitative
critique that the published ensembles explore the behavior space
narrowly and incomparably.
"""


from repro.ensemble.metrics import coverage, spread
from repro.ensemble.search import best_ensemble
from repro.experiments.priorwork import PRIOR_STUDIES, table1_rows
from repro.experiments.reporting import format_table


def study_pools(vectors):
    pools = {}
    for study in PRIOR_STUDIES:
        algs = set(study.mapped_algorithms())
        pool = [v for v in vectors if v.tag[0] in algs]
        if pool:
            pools[study.authors] = pool
    return pools


def test_table1_prior_studies(corpus, vectors, samples, artifact, benchmark):
    def compute():
        rows = []
        for study in PRIOR_STUDIES:
            algs = set(study.mapped_algorithms())
            pool = [v for v in vectors if v.tag[0] in algs]
            s = spread(pool) if len(pool) >= 2 else 0.0
            c = coverage(pool, samples=samples) if pool else 0.0
            rows.append((study.authors,
                         ", ".join(study.algorithms),
                         len(pool), s, c))
        return rows

    rows = benchmark(compute)
    table = format_table(
        ["study", "algorithms", "mapped runs", "spread", "coverage"],
        rows,
        title="Table 1 (+ ensemble scores over this corpus)",
    )
    raw = format_table(["authors", "systems", "algorithms", "graphs"],
                       table1_rows(), title="Table 1 (paper rows)")
    artifact("table1_prior_studies", raw + "\n\n" + table)

    # The paper's critique, quantified: every prior study's ensemble is
    # beaten by a *hand-picked* unrestricted ensemble a fraction of its
    # size.
    best10 = best_ensemble(vectors, 10, "spread").score
    for _authors, _algs, n_pool, s, _c in rows:
        if n_pool >= 10:
            assert s < best10


def test_prior_studies_are_narrow(vectors, samples):
    """Single-algorithm studies (Elser: K-core only) explore far less of
    the space than multi-algorithm ones — the paper's Section 6 point."""
    pools = study_pools(vectors)
    elser = pools["B. Elser [6]"]
    han = pools["M. Han [10]"]
    assert coverage(elser, samples=samples) < coverage(han, samples=samples)
    assert spread(elser) < spread(han)
