"""Unified telemetry plane: metrics registry, event log, exporters.

See docs/observability.md for the event schema, the span model, and
the merge semantics used to fold pool-worker telemetry back into the
parent registry.
"""
