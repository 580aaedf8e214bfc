"""Trace export: persist a run's full event log as JSON.

Every experiment is computed from traces; exporting them lets external
tooling (spreadsheets, notebooks, the paper-artifact parsing scripts this
mirrors) post-process a run without re-simulating. The format is a flat
list of events plus a small header; round-tripping is exact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import ExperimentError
from repro.sim.trace import Trace, TraceKind

#: Format identifier for forward compatibility.
TRACE_FORMAT_VERSION = 1


def trace_to_dict(trace: Trace, label: str = "") -> dict:
    """JSON-serializable representation of a trace.

    Reads the trace's stored rows directly, so exporting (and digesting)
    a trace never materializes its :class:`~repro.sim.trace.TraceEvent`
    objects.
    """
    return {
        "format": TRACE_FORMAT_VERSION,
        "label": label,
        "events": [
            {
                "time": time,
                "kind": kind.value,
                "app_id": app_id,
                "task_id": task_id,
                "slot": slot,
                "detail": detail,
            }
            for time, kind, app_id, task_id, slot, detail in trace._rows
        ],
    }


def trace_from_dict(payload: dict) -> Trace:
    """Rebuild a trace exported by :func:`trace_to_dict`."""
    if not isinstance(payload, dict):
        raise ExperimentError(
            f"expected an object, got {type(payload).__name__}"
        )
    if payload.get("format") != TRACE_FORMAT_VERSION:
        raise ExperimentError(
            f"unsupported trace format {payload.get('format')!r}"
        )
    events = payload.get("events")
    if not isinstance(events, list):
        raise ExperimentError("trace file has no events list")
    trace = Trace()
    for index, raw in enumerate(events):
        try:
            trace.record(
                time=float(raw["time"]),
                kind=TraceKind(raw["kind"]),
                app_id=raw.get("app_id"),
                task_id=raw.get("task_id"),
                slot=raw.get("slot"),
                detail=raw.get("detail"),
            )
        except (KeyError, ValueError) as error:
            raise ExperimentError(
                f"bad trace event {index}: {error}"
            ) from None
    return trace


def save_trace(
    trace: Trace, path: Union[str, Path], label: str = ""
) -> Path:
    """Write a trace to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(trace_to_dict(trace, label)) + "\n", encoding="utf-8"
    )
    return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no trace file at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ExperimentError(f"{path} is not valid JSON: {error}") from None
    return trace_from_dict(payload)
