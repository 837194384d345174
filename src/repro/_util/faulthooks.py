"""Parsing shared by the ``REPRO_INJECT_*`` / ``REPRO_CHAOS_*`` fault
hooks the resilience tests and smoke scripts drive."""

from __future__ import annotations

import os
from pathlib import Path


def hook_value(env: str, key: str) -> "str | None":
    """The value of the ``"<substring>:<value>"`` hook in ``$env`` when
    its substring occurs in ``key``; None when the hook is unset,
    malformed or aimed at another key. The split is at the *last*
    colon, so substrings may contain colons."""
    pattern, _, value = os.environ.get(env, "").rpartition(":")
    return value if pattern and pattern in key else None


def claim_token(token_dir: Path) -> bool:
    """Atomically claim one token file; False once the budget is spent.

    Tokens are plain files; ``os.unlink`` is atomic, so concurrent
    workers can never double-spend one — a chaos run therefore injects
    a bounded number of faults and always terminates.
    """
    try:
        tokens = sorted(token_dir.iterdir())
    except FileNotFoundError:
        return False
    for token in tokens:
        try:
            token.unlink()
        except FileNotFoundError:
            continue
        return True
    return False
