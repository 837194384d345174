"""The Ensemble abstraction (paper Equation 3).

``Ensemble_k = {GC_1, GC_2, ..., GC_N}`` — a set of graph computations,
represented here by their behavior vectors (each tagged with the run's
identity). A benchmark suite *is* an ensemble; so is any ad-hoc set of
performance experiments, which is what lets the paper compare published
comparative studies on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro._util.errors import ValidationError
from repro.behavior.space import BehaviorSpace, BehaviorVector


@dataclass(frozen=True)
class Ensemble:
    """An immutable set of behavior-space points.

    Members keep their insertion order (search results sort by corpus
    index); duplicates are allowed — an ensemble is a multiset of runs.
    """

    members: tuple[BehaviorVector, ...]
    name: str = ""

    @classmethod
    def of(cls, vectors: Iterable[BehaviorVector],
           name: str = "") -> "Ensemble":
        return cls(members=tuple(vectors), name=name)

    @property
    def size(self) -> int:
        return len(self.members)

    def matrix(self, space: BehaviorSpace | None = None) -> np.ndarray:
        """Members stacked as an ``(N, dims)`` matrix."""
        space = space or BehaviorSpace()
        return space.to_matrix(self.members)

    def tags(self) -> list:
        return [m.tag for m in self.members]

    def algorithms(self) -> list[str]:
        """Algorithm names of members whose tag is (algorithm, ...)."""
        out = []
        for tag in self.tags():
            if isinstance(tag, (tuple, list)) and tag:
                out.append(str(tag[0]))
            elif tag is not None:
                out.append(str(tag))
        return out

    def with_member(self, vector: BehaviorVector) -> "Ensemble":
        return Ensemble(members=self.members + (vector,), name=self.name)

    def subset(self, indices: Iterable[int]) -> "Ensemble":
        indices = list(indices)
        if any(i < 0 or i >= self.size for i in indices):
            raise ValidationError("subset index out of range")
        return Ensemble(members=tuple(self.members[i] for i in indices),
                        name=self.name)

    def __iter__(self) -> Iterator[BehaviorVector]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.size

    def describe(self) -> str:
        """Multi-line listing of members (paper Table 3 style)."""
        lines = [f"Ensemble {self.name or '(unnamed)'} — {self.size} members"]
        for m in self.members:
            tag = m.tag if m.tag is not None else "?"
            lines.append(
                f"  {tag}: <{m.updt:.3f}, {m.work:.3f}, "
                f"{m.eread:.3f}, {m.msg:.3f}>"
            )
        return "\n".join(lines)
