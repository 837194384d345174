"""Unified telemetry plane: one event log, and folds over it.

Every process appends structured events to its own JSONL log; a build
folds them into one ``events.jsonl``, and ``repro stats`` / ``repro
trace`` / ``repro critical-path`` are folds over that log. There is no
second record. See docs/observability.md for the event schema, the span
model and how per-process logs are folded together.
"""
