"""Online admission service: interactive queries against a resident engine.

The batch layers answer *offline* questions ("evaluate 4000 task sets");
this package answers *online* ones: a long-lived ``hydra-c serve`` daemon
keeps the scheme engines resident and answers single admission/design
queries at interactive latency, without paying interpreter start-up or
scheme-registry resolution per query, and answers a re-asked query from
its answer store.

Layering:

* :mod:`repro.serve.protocol` -- the JSON-lines request/response envelope
  (one JSON object per line, ``op`` selects the query kind) and its
  validation;
* :mod:`repro.serve.service` -- :class:`AdmissionService`, the transport-
  independent engine in two steps: a cheap one that validates a query,
  builds its canonical key and looks it up in the answer store (an LRU of
  answers kept as canonical JSON text), and a pure one that computes a
  miss on a fresh context.  Per-configuration
  :class:`~repro.batch.service.BatchDesignService` instances are kept
  across queries, and a repeated query skips the analysis entirely while
  staying byte-identical to the cold answer (and to the frozen
  ``reference_evaluate_one`` oracle -- pinned by ``tests/serve/``);
* :mod:`repro.serve.daemon` -- the asyncio front end: a Unix-socket (or
  stdin/stdout) JSON-lines server whose event loop owns the answer store
  and answers stored queries itself; only misses leave the loop, for one
  evaluation thread or for the workers of the shared
  :class:`~repro.exec.PersistentPool`.  Per-query timeouts and a graceful
  drain on SIGTERM;
* :mod:`repro.serve.client` -- a small blocking client used by
  ``hydra-c query``, the CI smoke stage and the tests.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import (
    QueryError,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.service import AdmissionService

__all__ = [
    "AdmissionService",
    "QueryError",
    "ServeClient",
    "ServeDaemon",
    "error_response",
    "ok_response",
    "parse_request",
]
