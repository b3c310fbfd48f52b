"""Online admission service: interactive queries against a resident engine.

The batch layers answer *offline* questions ("evaluate 4000 task sets");
this package answers *online* ones: a long-lived ``hydra-c serve`` daemon
keeps the scheme engines resident and answers single admission/design
queries at interactive latency, without paying interpreter start-up or
scheme-registry resolution per query, and answers a re-asked query from
its answer LRU.

Layering:

* :mod:`repro.serve.protocol` -- the JSON-lines request/response envelope
  (one JSON object per line, ``op`` selects the query kind) and its
  validation;
* :mod:`repro.serve.service` -- :class:`AdmissionService`, the transport-
  independent engine: per-configuration
  :class:`~repro.batch.service.BatchDesignService` instances and an LRU of
  answer payloads keyed by the canonical query are kept across queries,
  so a repeated query skips the analysis entirely while staying
  byte-identical to the cold answer (and to the frozen
  ``reference_evaluate_one`` oracle -- pinned by ``tests/serve/``);
* :mod:`repro.serve.daemon` -- the asyncio front end: a Unix-socket (or
  stdin/stdout) JSON-lines server dispatching queries onto the shared
  :class:`~repro.exec.PersistentPool`, with per-query timeouts and a
  graceful drain on SIGTERM;
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
