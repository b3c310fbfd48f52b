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
(seconds, design/admit only) bounds one query's *evaluation*: an answer
the daemon has stored is returned whatever the budget, and a query that
must be evaluated and overruns it answers ``ok: false`` with ``type:
"timeout"``; the connection stays usable.

Bounds: a request line holds at most :data:`MAX_LINE_BYTES` (64 KiB)
before its newline -- a longer one is answered with a query error and
skipped up to its newline -- and ``num_cores`` is at most
:data:`MAX_CORES` (64), which keeps one evaluation to seconds: a design
query costs about six times as much per doubling of the cores (seed 7:
0.2 s at 32 cores, 1.1 s at 64, on the compiled tier of a 2-vCPU Xeon
host).

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
    "MAX_CORES",
    "LINE_TOO_LONG",
    "MAX_LINE_BYTES",
    "QueryError",
    "OPS",
    "canonical_json",
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

#: The longest request line, in bytes before its newline.
MAX_LINE_BYTES = 64 * 1024

#: The answer to a request line over :data:`MAX_LINE_BYTES`.
LINE_TOO_LONG = f"request line exceeds {MAX_LINE_BYTES} bytes"

#: The most cores a ``design`` or ``admit`` query may ask for.
MAX_CORES = 64

#: Compact JSON text: the encoding of every response line, stored answer
#: and answer key.
canonical_json = json.JSONEncoder(separators=(",", ":")).encode


class QueryError(ReproError):
    """An invalid query (unknown op, missing/ill-typed field, bad JSON)."""


def parse_request(line: str) -> Dict[str, object]:
    """Parse one request line into its envelope, validating ``op``."""
    if len(line.encode("utf-8", "replace")) > MAX_LINE_BYTES:
        raise QueryError(LINE_TOO_LONG)
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise QueryError(f"request is not valid JSON: {exc}") from exc
    except RecursionError:
        raise QueryError("request nests too deeply") from None
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
    maximum: Optional[int] = None,
) -> int:
    value = request.get(field, default)
    if value is None:
        raise QueryError(f"missing required field {field!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(f"field {field!r} must be an integer")
    if minimum is not None and value < minimum:
        raise QueryError(f"field {field!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise QueryError(f"field {field!r} must be <= {maximum}")
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
