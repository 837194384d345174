"""Retry delays shared by every layer that retries."""

from __future__ import annotations

import hashlib
import random


def full_jitter_backoff(base_s: float, attempt: int, *,
                        key: str = "", cap_s: float = 30.0) -> float:
    """Full-jitter exponential backoff delay for retry ``attempt``.

    Deterministic retry backoff makes simultaneously failing workers
    retry in lockstep — after a shared-resource hiccup every affected
    cell hammers the resource again at the same instant. Full jitter
    (``U(0, min(cap, base * 2^(attempt-1)))``) decorrelates them while
    keeping the expected delay on the exponential envelope.

    The draw is seeded from ``(key, attempt)`` rather than global RNG
    state, so one cell's retry schedule is reproducible run-to-run
    (the corpus stays deterministic) while *different* cells — distinct
    cache keys — land at uncorrelated offsets. ``attempt`` counts from
    1 (the first retry waits at most ``base_s``).
    """
    if base_s <= 0 or attempt < 1:
        return 0.0
    ceiling = min(cap_s, base_s * (2.0 ** (attempt - 1)))
    seed = int.from_bytes(
        hashlib.blake2b(f"{key}:{attempt}".encode("utf-8"),
                        digest_size=8).digest(), "big")
    return random.Random(seed).uniform(0.0, ceiling)
