"""Import layering: lower packages never import the layers above."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LOWER = ("_util", "graph", "generators", "algorithms", "engine")
UPPER = ("repro.experiments", "repro.cli")
#: The upward edges that remain, kept exact so a new one is a decision.
ALLOWED = {("behavior/run.py", "repro.experiments.config"),
           ("behavior/run.py", "repro.experiments.graph_cache"),
           ("obs/stats.py", "repro.experiments.reporting"),
           ("obs/stats.py", "repro.experiments.corpus")}


def _imports(*packages):
    """``(file, imported repro module)`` for every import statement."""
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    assert node.level == 0, f"relative import in {path}"
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                yield from ((path.relative_to(SRC).as_posix(), name)
                            for name in names if name.startswith("repro"))


def test_lower_layers_do_not_import_upward():
    assert [e for e in _imports(*LOWER) if e[1].startswith(UPPER)] == []


def test_util_imports_only_util():
    assert [e for e in _imports("_util")
            if not e[1].startswith("repro._util")] == []


def test_upward_allow_list_is_exact():
    assert {e for e in _imports("behavior", "obs")
            if e[1].startswith(UPPER)} == ALLOWED


# ----------------------------------------------------------------------
# One kernel layer: engine/kernels.py is the only place a program's
# gather / scatter callbacks are evaluated
# ----------------------------------------------------------------------
KERNELS = "engine/kernels.py"


def _attributes(package=""):
    """``(file, attribute name, is the callee of a call)`` for every
    attribute access under ``src/repro/<package>``."""
    for path in sorted((SRC / package).rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        callees = {id(node.func) for node in ast.walk(tree)
                   if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                yield (path.relative_to(SRC).as_posix(), node.attr,
                       id(node) in callees)


def test_only_the_kernel_layer_calls_the_program_callbacks():
    callers = {file for file, attr, called in _attributes("engine")
               if called and attr in ("gather_edge", "scatter_edges")}
    assert callers == {KERNELS}


def test_only_the_kernel_layer_reads_what_a_program_can_fuse():
    assert {file for file, attr, _ in _attributes()
            if attr in ("can_gather", "can_scatter")} == {KERNELS}


def test_the_engine_oracles_left_src():
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text("utf-8")
        for gone in ("REPRO_VERIFY_FUSED", "VERIFY_ENV", "_gather_reference",
                     "_scatter_reference"):
            assert gone not in text, f"{gone} in {path}"
    for path in sorted((SRC / "engine").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Options")):
                fields = {stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)}
                assert "mode" not in fields, f"{node.name}.mode in {path}"


# ----------------------------------------------------------------------
# One fused step: the synchronous engine's pull decision is the only
# caller that asks for a dense kernel, and nothing steers it by option
# ----------------------------------------------------------------------
def test_only_the_synchronous_step_asks_for_a_dense_kernel():
    dense_callers = set()
    for path in sorted((SRC / "engine").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and any(
                    keyword.arg == "dense" for keyword in node.keywords):
                dense_callers.add(path.relative_to(SRC).as_posix())
            if (isinstance(node, ast.ClassDef)
                    and node.name.endswith("Options")):
                for stmt in node.body:
                    assert not (isinstance(stmt, ast.AnnAssign)
                                and stmt.target.id.startswith("direction")), \
                        f"{node.name}.{stmt.target.id} in {path}"
    assert dense_callers == {"engine/engine.py"}


# ----------------------------------------------------------------------
# One way to build a frontier set: the engine knows its ids lie in
# [0, n), so it never pays for a general-purpose ``unique``
# ----------------------------------------------------------------------
def test_the_engine_builds_no_set_with_unique():
    callers = {(file, attr) for file, attr, called in _attributes("engine")
               if called and "unique" in attr}
    assert callers == set()
    for path in sorted((SRC / "engine").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert (node.func.id == "sorted_unique_ids"
                        or "unique" not in node.func.id), path


def test_sorted_unique_ids_is_defined_once():
    definitions = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.FunctionDef)
        and node.name == "sorted_unique_ids"]
    assert definitions == ["_util/segments.py"]


# ----------------------------------------------------------------------
# Options follow the traffic: the paths no workload, smoke, figure
# benchmark or example took stay out of src/
# ----------------------------------------------------------------------
STORES = {"experiments/results.py"}


def test_the_untaken_paths_left_src():
    for path in sorted(SRC.rglob("*.py")):
        file = path.relative_to(SRC).as_posix()
        text = path.read_text("utf-8")
        gone = ["speculative", "speculated", "resolve_workers",
                "render_prometheus", "REPRO_COUNT_MATERIALIZE",
                "use_shm", "graph_cache_bytes", "REPRO_GRAPH_CACHE_BYTES",
                "configure_default_cache", "health_window", "breaker_",
                "CircuitBreaker", "degraded_to_inline", "_inline_step",
                "health_check_every", "Worksite", "class Heartbeat:",
                "read_heartbeats", "_write_beat_file", "hb-",
                "repro-worksite-", "work_dir", "node_workdir",
                "WORK_DIRNAME", "PairwiseBlocks", ".columns(",
                "SchedulerConfig", "heartbeat_every", "pending_claim",
                "_drain_requeues", "backoff_cap_s", "checkpoint",
                "CheckpointConfig", "SnapshotStore", "snapshot_keys",
                "REPRO_CHECKPOINT_DIR", "REPRO_INJECT_KILL", "state_dict",
                "gather_source_exact", "telemetry.json", "merge_snapshot",
                "counter_value", "counter_total", "obs_snapshot",
                "gauge_max", "record_peak_rss", "write_worker_metrics",
                "node_metrics_path", "class Histogram", "tel.inc(",
                "tel.observe(", "shm_available", "install_problem",
                "discard_problem", "_LOCAL_PROBLEMS",
                "_specs_needing_materialization"]
        if file in ("experiments/scheduler.py",
                    "experiments/nodeagent.py"):
            gone.append("self.manifests")
        if file not in STORES:
            gone.append("gc_quarantine")
        if file.startswith("ensemble/"):
            gone += ["precision", "ThreadPoolExecutor"]
        if file == "ensemble/search.py":
            gone.append("block_bytes")
        for name in gone:
            assert name not in text, f"{name} in {path}"


def test_the_poison_verdict_is_built_once():
    """``quarantined-poison`` is spelled into a failure in one place,
    and the worker's board and the node's coordinator both ask it."""
    builders, askers = [], set()
    for path in sorted(SRC.rglob("*.py")):
        file = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            values = list(node.args) + [k.value for k in node.keywords]
            if any(isinstance(v, ast.Constant)
                   and v.value == "quarantined-poison" for v in values):
                builders.append(file)
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "poison"):
                askers.add(file)
    assert builders == ["experiments/failures.py"]
    assert askers == {"experiments/scheduler.py",
                      "experiments/distqueue.py"}


#: Functions that may take a parameter named after a BuildOptions field:
#: the pure task board (property tests drive it with explicit values),
#: the build door's ``obs_dir`` request (resolved into the options'
#: field), and the result store's replay rule, which takes the one
#: flag it reads (every build passes ``options.resume``).
SPELLED_ELSEWHERE = {("experiments/scheduler.py", "TaskBoard.__init__"),
                     ("experiments/corpus.py", "build_corpus"),
                     ("experiments/results.py", "ResultStore.replay"),
                     ("experiments/results.py", "ResultStore.outcome"),
                     ("experiments/results.py", "ResultStore._replay")}


def test_a_build_setting_is_spelled_once():
    """No function under experiments/ or in the CLI restates a
    BuildOptions field as a parameter: a setting enters a build as
    the one options object."""
    from dataclasses import fields

    from repro.experiments.config import BuildOptions

    names = {f.name for f in fields(BuildOptions)}
    spelled = {}
    paths = sorted((SRC / "experiments").glob("*.py")) + [SRC / "cli.py"]
    for path in paths:
        file = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text("utf-8"))
        owners = {id(fn): cls.name for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            taken = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)} & names
            name = getattr(node, "name", "<lambda>")
            if id(node) in owners:
                name = f"{owners[id(node)]}.{name}"
            if taken and not name.startswith("BuildOptions."):
                spelled[(file, name)] = taken
    assert set(spelled) == SPELLED_ELSEWHERE, spelled
    assert spelled[("experiments/corpus.py", "build_corpus")] == {"obs_dir"}
    assert spelled[("experiments/scheduler.py", "TaskBoard.__init__")] == {
        "lease_timeout_s", "max_lease_expiries"}


def _fresh(probe):
    """What *probe* prints in a fresh interpreter running this tree."""
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return out.stdout.strip()


def test_import_repro_leaves_the_offline_obs_tools_unloaded():
    """``obs/__init__`` re-exports nothing, so neither ``import repro``
    nor the CLI's import pulls in the bench comparer or the
    critical-path report — nor any of SciPy, which is imported where it
    is used."""
    assert _fresh("import sys, repro, repro.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m in ('repro.obs.benchdiff', 'repro.obs.critpath') "
                  "or m.split('.')[0] == 'scipy'))") == "[]"


def test_a_run_loads_no_search_code():
    """Running a cell needs no ``scipy.spatial``: only the ensemble
    search loads it."""
    assert _fresh(
        "import sys; from repro.behavior.run import run_computation; "
        "from repro.experiments.config import GraphSpec; "
        "run_computation('cc', GraphSpec.ga(nedges=300, alpha=2.5, seed=1)); "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('scipy.spatial')))") == "[]"


def test_the_crew_loads_scipy_sparse_before_it_forks():
    """Every worker's fused scatter needs ``scipy.sparse``; the crew
    imports it once in the parent, so no worker imports it again."""
    assert _fresh(
        "import sys; from repro.experiments.worksite import WorkerCrew; "
        "from repro.experiments.config import BuildOptions; "
        "before = 'scipy.sparse' in sys.modules; "
        "WorkerCrew(0, 1.0, BuildOptions(), None, None); "
        "print(before, 'scipy.sparse' in sys.modules)") == "False True"


def test_a_run_loads_scipy_sparse_before_the_engine_clock():
    """A run whose program has a fused scatter imports ``scipy.sparse``
    before the engine starts, so no import lands in its engine seconds
    (inline builds and ``repro run`` included); a run without one (CC)
    does not load it."""
    assert _fresh(
        "import sys; from repro.engine.engine import SynchronousEngine; "
        "seen = []; run = SynchronousEngine.run; "
        "SynchronousEngine.run = lambda self, *a: "
        "(seen.append('scipy.sparse' in sys.modules), run(self, *a))[1]; "
        "from repro.behavior.run import run_computation; "
        "from repro.experiments.config import GraphSpec; "
        "spec = GraphSpec.ga(nedges=300, alpha=2.5, seed=1); "
        "run_computation('cc', spec); run_computation('pagerank', spec); "
        "print(seen)") == "[False, True]"


def test_nothing_imports_scipy_at_module_level():
    """SciPy is imported inside the function that calls it, never when
    a module of the package is imported."""
    def module_level(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from module_level(getattr(node, field, ()))

    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in module_level(ast.parse(path.read_text("utf-8")).body):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(path.relative_to(SRC).as_posix(), name)
                      for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_the_build_dag_has_two_task_kinds():
    """materialize → run: nothing under experiments/ names a third."""
    kinds = set()
    for path in sorted((SRC / "experiments").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Compare)
                    and isinstance(node.left, ast.Attribute)
                    and node.left.attr == "kind"
                    and isinstance(node.left.value, ast.Name)
                    and node.left.value.id in ("task", "envelope")):
                kinds |= {c.value for c in node.comparators
                          if isinstance(c, ast.Constant)}
    assert kinds == {"materialize", "run"}
    assert '"store"' not in (
        SRC / "experiments" / "scheduler.py").read_text("utf-8")


# ----------------------------------------------------------------------
# Graph construction is stated once (DESIGN §5): one redraw loop, one
# first-occurrence dedup, one arc sort
# ----------------------------------------------------------------------
def _functions_naming(package, name):
    """``file::function`` for every function under ``package`` whose
    body mentions the identifier ``name``."""
    found = set()
    for path in sorted((SRC / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                    (isinstance(inner, ast.Name) and inner.id == name)
                    or (isinstance(inner, ast.Attribute)
                        and inner.attr == name)
                    for inner in ast.walk(node)):
                found.add(f"{path.relative_to(SRC).as_posix()}"
                          f"::{node.name}")
    return found


def test_generators_keep_edge_keys_in_arrays():
    """No Python container of edge keys: no ``set``, no ``.tolist()``
    feeding one, no per-edge ``fromiter``."""
    for path in sorted((SRC / "generators").rglob("*.py")):
        text = path.read_text("utf-8")
        for gone in (".tolist()", "fromiter", "return_index=True",
                     "edge_tolerance"):
            assert gone not in text, f"{gone} in {path}"
        for node in ast.walk(ast.parse(text)):
            assert not isinstance(node, (ast.Set, ast.SetComp)), path
            assert not (isinstance(node, ast.Name)
                        and node.id == "set"), path


def test_the_redraw_loop_exists_once():
    assert _functions_naming("", "MAX_REDRAW_ROUNDS") == {
        "generators/pairs.py::distinct_pairs"}
    callers = _functions_naming("", "distinct_pairs")
    assert callers == {"generators/powerlaw.py::powerlaw_graph",
                       "generators/uniform.py::erdos_renyi_graph",
                       "generators/bipartite.py::bipartite_rating_graph",
                       "generators/mrf.py::mrf_problem"}


def test_the_first_occurrence_dedup_exists_once():
    csr = (SRC / "graph" / "csr.py").read_text("utf-8")
    assert "return_index=True" not in csr
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                assert not any(k.arg == "return_index"
                               for k in node.keywords), path
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "first_occurrences"):
                assert path.relative_to(SRC).as_posix() == \
                    "_util/segments.py"
    assert _functions_naming("", "first_occurrences") == {
        "graph/csr.py::from_edges",
        "generators/pairs.py::distinct_pairs",
        "generators/uniform.py::regular_graph"}


def test_the_arc_sort_exists_once():
    """One stable single-key sort, in ``_build_csr``; ``from_edges``
    calls it once per *stored* adjacency and sorts nothing itself."""
    csr = (SRC / "graph" / "csr.py").read_text("utf-8")
    assert "lexsort" not in csr
    assert _functions_naming("graph", "lexsort") == set()
    assert _functions_naming("graph", "_build_csr") == {
        "graph/csr.py::from_edges"}
    # edge_endpoints orders slots by eid — a read, not construction.
    assert _functions_naming("graph", "argsort") == {
        "graph/csr.py::_build_csr", "graph/csr.py::edge_endpoints"}
    assert _functions_naming("generators", "argsort") == set()


# ----------------------------------------------------------------------
# One module knows the stored formats (DESIGN §7): the summary index's
# file and record keys, and the parse of an entry into a RunTrace
# ----------------------------------------------------------------------
RESULTS = "experiments/results.py"


def test_the_summary_index_format_stays_in_the_result_store():
    names = ("index/", "summaries.json", "entry_blake2b", "metric_values",
             "degraded_flag", "health_verdict", "graph_origin",
             "failure_record")
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text("utf-8")
        for name in names:
            if path.relative_to(SRC).as_posix() == RESULTS:
                assert name in text, f"{name} left {path}: update this scan"
            else:
                assert name not in text, f"{name} in {path}"


def test_only_the_result_store_parses_entries():
    parsers = set()
    for path in sorted((SRC / "experiments").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_dict"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "RunTrace"):
                parsers.add(path.relative_to(SRC).as_posix())
    assert parsers == {RESULTS}
