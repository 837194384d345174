"""Centralized random-number-generator construction.

Nothing in repro touches NumPy's global RNG: every stochastic component
takes an explicit seed and builds a ``np.random.Generator`` here. Streams
for sub-components are derived with ``spawn_rngs`` so that, e.g., the
degree sequence and the endpoint pairing of a generator draw from
independent, reproducible streams.
"""

from __future__ import annotations

import numpy as np

from repro._util.errors import ValidationError


def make_rng(seed: int | np.random.Generator,
             *context: int | str) -> np.random.Generator:
    """Build a deterministic Generator from a seed and a context path.

    ``context`` elements (ints or strings) namespace the stream so two
    call sites with the same root seed get independent streams::

        rng_deg = make_rng(seed, "powerlaw", "degrees")
        rng_pair = make_rng(seed, "powerlaw", "pairing")
    """
    if isinstance(seed, np.random.Generator):
        if context:
            raise ValidationError(
                "cannot re-namespace an existing Generator; pass the root seed"
            )
        return seed
    entropy: list[int] = [int(seed) & 0xFFFFFFFF]
    for item in context:
        if isinstance(item, str):
            entropy.append(hash_str(item))
        else:
            entropy.append(int(item) & 0xFFFFFFFF)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy)))


def spawn_rngs(seed: int, count: int,
               *context: int | str) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed + context."""
    if count < 0:
        raise ValidationError("count must be non-negative")
    return [make_rng(seed, *context, i) for i in range(count)]


def hash_str(text: str) -> int:
    """Stable 32-bit FNV-1a hash of a string (``hash()`` is salted per run)."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value
