"""The JSON-lines admission protocol.

One request per line, one response per line, both JSON objects:

request::

    {"op": "design", "id": 7,
     "num_cores": 2, "seed": 2020, "normalized_range": [0.05, 0.2],
     "group_index": 0, "schemes": ["HYDRA-C"], "search_mode": "binary",
     "timeout": 30.0}

    {"op": "admit", "id": 8, "num_cores": 2,
     "rt_tasks": [{"name": "rt0", "wcet": 2, "period": 10}],
     "security_tasks": [{"name": "ids", "wcet": 1, "max_period": 50}]}

    {"op": "ping"} / {"op": "stats"} / {"op": "shutdown"}

response::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "...", "message": "..."}}

``id`` is an opaque client token echoed back verbatim (``null`` when
omitted) -- the daemon answers queries in arrival order on each
connection, but the token lets clients correlate regardless.  ``timeout``
(seconds, design/admit only) bounds one query's evaluation; an expired
query answers ``ok: false`` with ``type: "timeout"`` and the connection
stays usable.

Malformed input is answered, not dropped: every parse/validation failure
becomes an ``ok: false`` response carrying :class:`QueryError`'s message,
so interactive callers see *why* instead of a hung socket.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "QueryError",
    "OPS",
    "parse_request",
    "ok_response",
    "error_response",
    "require_int",
    "require_number",
    "require_range",
    "require_task_list",
]

#: The operations a daemon answers.
OPS = ("ping", "stats", "design", "admit", "shutdown")


class QueryError(ReproError):
    """An invalid query (unknown op, missing/ill-typed field, bad JSON)."""


def parse_request(line: str) -> Dict[str, object]:
    """Parse one request line into its envelope, validating ``op``."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise QueryError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise QueryError("request must be a JSON object")
    op = request.get("op")
    if op not in OPS:
        raise QueryError(
            f"unknown op {op!r} (supported: {', '.join(OPS)})"
        )
    timeout = request.get("timeout")
    if timeout is not None and not require_number(timeout, "'timeout'") > 0:
        raise QueryError("'timeout' must be a positive number of seconds")
    return request


def ok_response(
    request_id: object, result: Dict[str, object]
) -> Dict[str, object]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: object, error_type: str, message: str
) -> Dict[str, object]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


# -- field validation helpers (shared by the service's query handlers) --------


def require_int(
    request: Dict[str, object],
    field: str,
    minimum: Optional[int] = None,
    default: Optional[int] = None,
) -> int:
    value = request.get(field, default)
    if value is None:
        raise QueryError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"field {field!r} must be an integer")
    if minimum is not None and value < minimum:
        raise QueryError(f"field {field!r} must be >= {minimum}")
    return value


def require_number(value: object, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        # json.loads parses NaN and Infinity as numbers.
        raise QueryError(f"{where} must be a finite number")
    return number


def require_range(
    request: Dict[str, object], field: str
) -> Tuple[float, float]:
    value = request.get(field)
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise QueryError(f"field {field!r} must be a [low, high] pair")
    low = require_number(value[0], f"{field}[0]")
    high = require_number(value[1], f"{field}[1]")
    if not 0.0 <= low <= high:
        raise QueryError(f"field {field!r} must satisfy 0 <= low <= high")
    return (low, high)


def require_task_list(
    request: Dict[str, object],
    field: str,
    required: Tuple[str, ...],
    optional: Tuple[str, ...],
) -> List[Dict[str, object]]:
    """Validate a list of task objects carrying exactly the known fields."""
    value = request.get(field)
    if not isinstance(value, list):
        raise QueryError(f"field {field!r} must be a list of task objects")
    known = set(required) | set(optional)
    tasks: List[Dict[str, object]] = []
    for position, entry in enumerate(value):
        where = f"{field}[{position}]"
        if not isinstance(entry, dict):
            raise QueryError(f"{where} must be a task object")
        missing = [name for name in required if name not in entry]
        if missing:
            raise QueryError(
                f"{where} is missing required field(s) {', '.join(missing)}"
            )
        unknown = sorted(set(entry) - known)
        if unknown:
            raise QueryError(
                f"{where} has unknown field(s) {', '.join(unknown)}"
            )
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise QueryError(f"{where} needs a non-empty string 'name'")
        tasks.append(entry)
    return tasks
