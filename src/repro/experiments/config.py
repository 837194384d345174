"""Experiment configuration: graph specs, size profiles, and the
Table-2 experiment matrix.

The paper's matrix (Table 2) sweeps, per domain:

- Graph Analytics (CC, TC, KC, SSSP, PR, AD): ``nedges ∈ 10^6..10^9``,
  ``α ∈ {2.0, 2.25, 2.5, 2.75, 3.0}``;
- Clustering (KM): same sweep;
- Collaborative Filtering (ALS, NMF, SGD, SVD): ``nedges ∈ 10^5..10^8``,
  same α values;
- Jacobi / LBP: ``nrows ∈ {5000, 10000, 15000, 20000}``;
- DD: MRF graphs with ``nedges ∈ {1056, 1190, 1406, 1560}``.

A :class:`Profile` scales those sizes to what a single machine can run
(size *ratios* preserved — ×10 steps across four sizes) and fixes the
engine memory budget that reproduces the paper's failed AD runs at the
largest size. See DESIGN.md §2 for the substitution rationale.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator

from repro._util.errors import ValidationError
from repro.generators.problem import ProblemInstance

#: Power-law exponents swept by the paper (Table 2).
ALPHAS: tuple[float, ...] = (2.0, 2.25, 2.5, 2.75, 3.0)

#: Algorithms whose graph structure varies, used for the 215-run
#: behavior corpus (paper Section 5.2 excludes Jacobi, LBP, DD).
CORPUS_ALGORITHMS: tuple[str, ...] = (
    "cc", "triangle", "kcore", "sssp", "pagerank", "diameter",
    "kmeans",
    "als", "nmf", "sgd", "svd",
)

#: The remaining fixed-structure algorithms (characterized in Section 4
#: but outside the ensemble corpus).
FIXED_STRUCTURE_ALGORITHMS: tuple[str, ...] = ("jacobi", "lbp", "dd")


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of one input graph/problem.

    Use the domain constructors (:meth:`ga`, :meth:`clustering`,
    :meth:`cf`, :meth:`matrix`, :meth:`grid`, :meth:`mrf`) rather than
    the raw constructor.
    """

    domain: str
    nedges: int | None = None
    alpha: float | None = None
    nrows: int | None = None
    seed: int = 0

    # ---------------- constructors ----------------
    @classmethod
    def ga(cls, nedges: int, alpha: float, *, seed: int = 0) -> "GraphSpec":
        return cls(domain="ga", nedges=int(nedges), alpha=float(alpha),
                   seed=seed)

    @classmethod
    def clustering(cls, nedges: int, alpha: float, *,
                   seed: int = 0) -> "GraphSpec":
        return cls(domain="clustering", nedges=int(nedges),
                   alpha=float(alpha), seed=seed)

    @classmethod
    def cf(cls, nedges: int, alpha: float, *, seed: int = 0) -> "GraphSpec":
        return cls(domain="cf", nedges=int(nedges), alpha=float(alpha),
                   seed=seed)

    @classmethod
    def matrix(cls, nrows: int, *, seed: int = 0) -> "GraphSpec":
        return cls(domain="matrix", nrows=int(nrows), seed=seed)

    @classmethod
    def grid(cls, nrows: int, *, seed: int = 0) -> "GraphSpec":
        return cls(domain="grid", nrows=int(nrows), seed=seed)

    @classmethod
    def mrf(cls, nedges: int, *, seed: int = 0) -> "GraphSpec":
        return cls(domain="mrf", nedges=int(nedges), seed=seed)

    @classmethod
    def for_domain(cls, domain: str, *, nedges: int | None = None,
                   alpha: float | None = None, nrows: int | None = None,
                   seed: int = 0) -> "GraphSpec":
        """Generic constructor used by the experiment matrix."""
        ctor = {
            "ga": lambda: cls.ga(nedges, alpha, seed=seed),
            "clustering": lambda: cls.clustering(nedges, alpha, seed=seed),
            "cf": lambda: cls.cf(nedges, alpha, seed=seed),
            "matrix": lambda: cls.matrix(nrows, seed=seed),
            "grid": lambda: cls.grid(nrows, seed=seed),
            "mrf": lambda: cls.mrf(nedges, seed=seed),
        }
        if domain not in ctor:
            raise ValidationError(f"unknown domain {domain!r}")
        return ctor[domain]()

    # ---------------- behavior ----------------
    def generate(self) -> ProblemInstance:
        """Materialize the problem instance this spec describes."""
        # Imported here so config stays import-light for consumers that
        # only need spec identities (cache keys, labels).
        from repro.generators import (
            bipartite_rating_graph,
            grid_problem,
            matrix_problem,
            mrf_problem,
            powerlaw_graph,
        )

        if self.domain == "ga":
            return powerlaw_graph(self.nedges, self.alpha, seed=self.seed)
        if self.domain == "clustering":
            return powerlaw_graph(self.nedges, self.alpha, seed=self.seed,
                                  with_points=True)
        if self.domain == "cf":
            return bipartite_rating_graph(self.nedges, self.alpha,
                                          seed=self.seed)
        if self.domain == "matrix":
            return matrix_problem(self.nrows, seed=self.seed)
        if self.domain == "grid":
            return grid_problem(self.nrows, seed=self.seed)
        if self.domain == "mrf":
            return mrf_problem(self.nedges, seed=self.seed)
        raise ValidationError(f"unknown domain {self.domain!r}")

    @property
    def label(self) -> str:
        bits = []
        if self.nedges is not None:
            bits.append(f"nedges={self.nedges:g}")
        if self.alpha is not None:
            bits.append(f"α={self.alpha}")
        if self.nrows is not None:
            bits.append(f"nrows={self.nrows}")
        return f"{self.domain}({', '.join(bits)})"

    @property
    def structure_key(self) -> tuple:
        """Identity of the *graph structure* (size, α) ignoring domain —
        used by single-graph ensembles, which pair one structure with
        many algorithms across domains (Section 5.3)."""
        return (self.nedges, self.alpha, self.nrows)

    def cache_key(self) -> str:
        return (f"{self.domain}-ne{self.nedges}-a{self.alpha}"
                f"-nr{self.nrows}-s{self.seed}")


@dataclass(frozen=True)
class Profile:
    """A size scaling of the paper's experiment matrix."""

    name: str
    #: Four GA/Clustering sizes (paper: 10^6..10^9).
    ga_sizes: tuple[int, ...]
    #: Four CF sizes (paper: 10^5..10^8).
    cf_sizes: tuple[int, ...]
    #: Jacobi matrix rows (paper: 5000..20000).
    matrix_rows: tuple[int, ...]
    #: LBP image sides (paper "nrows": 5000..20000).
    grid_sides: tuple[int, ...]
    #: DD MRF edge counts (paper-exact).
    mrf_edges: tuple[int, ...]
    #: Power-law exponents.
    alphas: tuple[float, ...] = ALPHAS
    #: Engine memory budget; chosen so AD fails at the largest GA size
    #: (the paper's 5 failed runs) and nothing else fails.
    memory_budget_bytes: int = 4 << 30
    #: AD sketch count (sets AD's state footprint).
    ad_n_hashes: int = 64
    #: Sample points for the coverage metric (paper uses 10^6).
    coverage_samples: int = 100_000
    #: Base seed for generators.
    seed: int = 7
    #: Per-run wall-clock limit in seconds (None disables); exceeding it
    #: records a ``timeout`` failure instead of stalling the build.
    run_timeout_s: "float | None" = None
    #: Retries for transient failure kinds (timeout/crash/cache-corrupt).
    max_retries: int = 0
    #: Initial retry backoff; doubles per attempt.
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        for attr in ("ga_sizes", "cf_sizes", "matrix_rows", "grid_sides",
                     "mrf_edges"):
            if len(getattr(self, attr)) == 0:
                raise ValidationError(f"profile {self.name}: {attr} is empty")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValidationError(
                f"profile {self.name}: run_timeout_s must be positive or None")
        if self.max_retries < 0:
            raise ValidationError(
                f"profile {self.name}: max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValidationError(
                f"profile {self.name}: retry_backoff_s must be >= 0")


PROFILES: dict[str, Profile] = {
    # Seconds-scale: test suite and default benchmark runs.
    "smoke": Profile(
        name="smoke",
        ga_sizes=(300, 1_000, 3_000, 10_000),
        cf_sizes=(100, 300, 1_000, 3_000),
        matrix_rows=(50, 100, 150, 200),
        grid_sides=(12, 16, 24, 32),
        mrf_edges=(112, 220, 420, 544),
        memory_budget_bytes=3 << 20,
        ad_n_hashes=64,
        coverage_samples=20_000,
    ),
    # Minutes-scale: the EXPERIMENTS.md reference runs (paper sizes /1000).
    "paper": Profile(
        name="paper",
        ga_sizes=(1_000, 10_000, 100_000, 1_000_000),
        cf_sizes=(100, 1_000, 10_000, 100_000),
        matrix_rows=(500, 1_000, 1_500, 2_000),
        grid_sides=(24, 40, 56, 72),
        mrf_edges=(1056, 1190, 1406, 1560),
        memory_budget_bytes=160 << 20,
        ad_n_hashes=64,
        coverage_samples=1_000_000,
    ),
}


def get_profile(name: str | None = None) -> Profile:
    """Resolve a profile by name, or from ``$REPRO_PROFILE`` (default
    smoke)."""
    if name is None:
        name = os.environ.get("REPRO_PROFILE", "smoke")
    if name not in PROFILES:
        raise ValidationError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        )
    return PROFILES[name]


@dataclass(frozen=True)
class PlannedRun:
    """One cell of the experiment matrix."""

    algorithm: str
    spec: GraphSpec


#: Lease defaults, stated once. A crew worker's lease on a cell is long
#: (a dead worker is also seen by ``is_alive``); a node's lease on its
#: claims is short, because a missed beat is the only sign of a dead or
#: partitioned node. Beats are not configured: whoever holds a lease
#: beats ten times per lease timeout (see
#: :class:`~repro.experiments.worksite.HeartbeatWriter`).
CREW_LEASE_TIMEOUT_S = 60.0
NODE_LEASE_TIMEOUT_S = 15.0
MAX_LEASE_EXPIRIES = 3


@dataclass(frozen=True)
class BuildOptions:
    """How a build executes its cells: the one spelling of a build
    setting. :func:`~repro.experiments.corpus.build_corpus` and
    :func:`~repro.experiments.corpus.execute_planned_run` take it whole
    (``repro corpus`` builds one from its flags), and no layer below
    restates a field as a parameter of its own.

    The build door fills in the three telemetry fields from its
    ``obs`` / ``obs_dir`` requests; every other field is the caller's.
    The object is then forked into every crew worker and written — as
    :meth:`to_dict` plus profile, store root and trace — into a
    distributed build's ``manifest.json``, so every layer and every
    node reads the same fields. ``None`` always means "the default",
    resolved here (or, for the lease timeout, by :meth:`lease_timeout`);
    an explicit out-of-range or unparseable value raises here, before
    any cell runs, instead of silently becoming the default or failing
    every cell.
    """

    #: Per-run wall-clock limit (default: the profile's
    #: ``run_timeout_s``); exceeding it records a ``timeout`` failure.
    timeout_s: "float | None" = None
    #: Extra attempts for transient failure kinds (timeout, crash,
    #: cache-corrupt), with full-jitter backoff from the profile's
    #: ``retry_backoff_s``. Default: the profile's ``max_retries``.
    #: Each attempt re-runs the whole cell: a cell is seconds of work,
    #: and nothing of a lost attempt is kept.
    #: Memory-budget failures are deterministic and never retried.
    retries: "int | None" = None
    #: Re-execute a *cached* transient failure instead of replaying it
    #: (cached successes and memory-budget failures are still reused).
    resume: bool = False
    #: Run-health policy override (see
    #: :class:`~repro.engine.engine.EngineOptions`); None keeps the
    #: engine default, ``strict``.
    health_policy: "str | None" = None
    #: Resolved observability level — ``"off"`` or ``"full"`` (every
    #: iteration timed, lifecycle and span events) — with the directory
    #: holding the event log, and the run id stamped on every event.
    #: Telemetry is purely observational: behavior vectors under the
    #: ``unit`` work model are bit-identical across levels.
    obs_level: str = "off"
    obs_dir: "str | None" = None
    run_id: "str | None" = None
    #: How long a dispatched cell (or, in a distributed build, a node)
    #: may go without a heartbeat before its lease is revoked and the
    #: work re-dispatched. See :meth:`lease_timeout` for the defaults;
    #: the beat interval is a tenth of it.
    lease_timeout_s: "float | None" = None
    #: Poison budget: after this many lost leases a cell is quarantined
    #: as ``quarantined-poison`` instead of being handed to yet another
    #: worker or node (default 3).
    max_lease_expiries: "int | None" = None

    def __post_init__(self) -> None:
        if self.obs_dir is not None:
            # Absolute, so a peer node with another cwd reads the same
            # directory out of the manifest.
            object.__setattr__(self, "obs_dir",
                               str(Path(self.obs_dir).resolve()))
        if self.max_lease_expiries is None:
            object.__setattr__(self, "max_lease_expiries",
                               MAX_LEASE_EXPIRIES)
        for attr in ("timeout_s", "lease_timeout_s"):
            if getattr(self, attr) is not None and getattr(self, attr) <= 0:
                raise ValidationError(f"{attr} must be positive")
        if self.retries is not None and self.retries < 0:
            raise ValidationError("retries must be >= 0")
        if self.max_lease_expiries < 1:
            raise ValidationError("max_lease_expiries must be >= 1")
        # Imported here so config stays import-light.
        if self.health_policy is not None:
            from repro.engine.health import validate_health_policy

            validate_health_policy(self.health_policy)

    def lease_timeout(self, *, node: bool) -> float:
        """The lease timeout of a local crew (60 s) or of a node and its
        crew in a distributed build (15 s), unless set explicitly."""
        if self.lease_timeout_s is not None:
            return self.lease_timeout_s
        return NODE_LEASE_TIMEOUT_S if node else CREW_LEASE_TIMEOUT_S

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BuildOptions":
        """Inverse of :meth:`to_dict`. The manifest a node reads is
        outside input: a key this version does not know, or lacks,
        means a coordinator of another version, and is refused."""
        names = {f.name for f in fields(cls)}
        if set(data) != names:
            raise ValidationError(
                f"build options mismatch: unknown keys "
                f"{sorted(set(data) - names)}, missing keys "
                f"{sorted(names - set(data))}")
        return cls(**data)


@dataclass
class ExperimentMatrix:
    """The full Table-2 matrix instantiated for a profile."""

    profile: Profile = field(default_factory=get_profile)

    def _sizes_for_domain(self, domain: str) -> tuple[int, ...]:
        return {"ga": self.profile.ga_sizes,
                "clustering": self.profile.ga_sizes,
                "cf": self.profile.cf_sizes}[domain]

    def runs_for_algorithm(self, algorithm: str) -> list[PlannedRun]:
        """All planned runs of one algorithm (20 for varied-structure
        algorithms, 4 for fixed-structure ones)."""
        from repro.algorithms.registry import info

        domain = info(algorithm).domain
        seed = self.profile.seed
        if domain in ("ga", "clustering", "cf"):
            return [
                PlannedRun(algorithm, GraphSpec.for_domain(
                    domain, nedges=size, alpha=alpha, seed=seed))
                for size in self._sizes_for_domain(domain)
                for alpha in self.profile.alphas
            ]
        if domain == "matrix":
            return [PlannedRun(algorithm, GraphSpec.matrix(r, seed=seed))
                    for r in self.profile.matrix_rows]
        if domain == "grid":
            return [PlannedRun(algorithm, GraphSpec.grid(r, seed=seed))
                    for r in self.profile.grid_sides]
        if domain == "mrf":
            return [PlannedRun(algorithm, GraphSpec.mrf(m, seed=seed))
                    for m in self.profile.mrf_edges]
        raise ValidationError(f"unknown domain {domain!r}")

    def corpus_runs(self) -> list[PlannedRun]:
        """The behavior-corpus plan: 11 varied-structure algorithms × 20
        graphs = 220 planned runs (AD's largest-size runs fail by
        design, leaving the paper's 215)."""
        plan: list[PlannedRun] = []
        for algorithm in CORPUS_ALGORITHMS:
            plan.extend(self.runs_for_algorithm(algorithm))
        return plan

    def all_runs(self) -> list[PlannedRun]:
        """Corpus plan plus the fixed-structure algorithms."""
        plan = self.corpus_runs()
        for algorithm in FIXED_STRUCTURE_ALGORITHMS:
            plan.extend(self.runs_for_algorithm(algorithm))
        return plan

    def __iter__(self) -> Iterator[PlannedRun]:
        return iter(self.all_runs())
