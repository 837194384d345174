"""Algorithm registry: name → vertex program class + run defaults.

The registry is the single source of truth binding an algorithm name to

- its :class:`~repro.engine.program.VertexProgram` class,
- the input domain it consumes (which picks the generator),
- default algorithm parameters, and
- default engine limits (e.g. the paper caps NMF and SGD at 20
  iterations because they do not converge — Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro._util.errors import ValidationError
from repro.engine.program import VertexProgram


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry record for one algorithm."""

    name: str
    cls: type[VertexProgram]
    domain: str
    #: Default algorithm parameters, overridable per run.
    default_params: dict[str, Any] = field(default_factory=dict)
    #: Default engine-option overrides (e.g. {"max_iterations": 20}).
    default_options: dict[str, Any] = field(default_factory=dict)
    #: Paper section/abbreviation for documentation.
    abbrev: str = ""
    #: True if the paper reports the algorithm keeps every vertex active
    #: for its whole lifecycle (AD, KM, NMF, SGD, SVD, Jacobi, DD).
    always_active: bool = False


_REGISTRY: dict[str, AlgorithmInfo] = {}


def register(info_record: AlgorithmInfo) -> None:
    """Register an algorithm; name collisions are an error."""
    if info_record.name in _REGISTRY:
        raise ValidationError(
            f"algorithm {info_record.name!r} already registered")
    _REGISTRY[info_record.name] = info_record


def registered(
    name: str,
    *,
    domain: str,
    abbrev: str = "",
    default_params: dict[str, Any] | None = None,
    default_options: dict[str, Any] | None = None,
    always_active: bool = False,
) -> Callable[[type[VertexProgram]], type[VertexProgram]]:
    """Class decorator registering a vertex program."""

    def wrap(cls: type[VertexProgram]) -> type[VertexProgram]:
        register(AlgorithmInfo(
            name=name,
            cls=cls,
            domain=domain,
            default_params=dict(default_params or {}),
            default_options=dict(default_options or {}),
            abbrev=abbrev or name.upper(),
            always_active=always_active,
        ))
        cls.name = name
        cls.domain = domain
        return cls

    return wrap


def _ensure_loaded() -> None:
    """Import algorithm modules so their decorators run."""
    # Imported lazily to avoid import cycles at package import time.
    import repro.algorithms.analytics  # noqa: F401
    import repro.algorithms.cf  # noqa: F401
    import repro.algorithms.clustering  # noqa: F401
    import repro.algorithms.solvers  # noqa: F401


def info(name: str) -> AlgorithmInfo:
    """Look up an algorithm's registry record."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise ValidationError(
            f"unknown algorithm {name!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def create(name: str, **params: Any) -> VertexProgram:
    """Instantiate an algorithm with defaults merged with ``params``."""
    record = info(name)
    merged = dict(record.default_params)
    merged.update(params)
    return record.cls(**merged)


def iter_algorithms() -> Iterator[AlgorithmInfo]:
    """All registered algorithms in name order."""
    _ensure_loaded()
    for name in sorted(_REGISTRY):
        yield _REGISTRY[name]


def _algorithm_names() -> list[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


class _LazyNames:
    """Sequence-like view of algorithm names that defers module loading."""

    def __iter__(self):
        return iter(_algorithm_names())

    def __len__(self) -> int:
        return len(_algorithm_names())

    def __contains__(self, item: object) -> bool:
        return item in _algorithm_names()

    def __getitem__(self, index):
        return _algorithm_names()[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(_algorithm_names())


#: Lazily evaluated list of registered algorithm names.
ALGORITHM_NAMES = _LazyNames()
