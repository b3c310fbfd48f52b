"""The asyncio front end of ``hydra-c serve``.

One long-lived process, a JSON-lines protocol (see
:mod:`repro.serve.protocol`) over a Unix domain socket (``--socket``) or
stdin/stdout (``--stdio``), and the warm
:class:`~repro.serve.service.AdmissionService` behind it:

* **dispatch** -- cheap ops (``ping``, ``stats``, ``shutdown``) are
  answered on the event loop; evaluation ops (``design``, ``admit``) are
  dispatched off it.  With ``jobs <= 1`` they run on a single-thread
  executor wrapping the in-process service, so every query shares one
  answer LRU and the event loop stays responsive while the kernel
  grinds.  With ``jobs > 1`` raw request lines are submitted to the shared
  :class:`~repro.exec.PersistentPool`; each (forked) worker process builds
  its own :class:`AdmissionService` on first use and keeps it -- and its
  answer LRU -- for the daemon's lifetime.  A worker crash surfaces as
  ``BrokenProcessPool``; the pool is :meth:`~repro.exec.PersistentPool.reset`
  and the query retried once before an error response is returned;

* **per-query timeout** -- a query's ``timeout`` field (or the daemon's
  ``--timeout`` default) bounds its evaluation via ``asyncio.wait_for``;
  expiry answers ``ok: false`` / ``type: "timeout"`` and cancels the
  dispatched future (work already *running* on an executor cannot be
  interrupted mid-kernel -- it is abandoned to finish in the background,
  its result discarded; queued work is truly cancelled);

* **graceful drain** -- SIGTERM/SIGINT (or a ``shutdown`` query) stop the
  listener; every connection finishes the query it is answering, the
  response is flushed, idle connections close, the executors shut down,
  the socket file is removed, and the daemon exits 0.  The CI smoke stage
  pins exactly this sequence.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.exec import PersistentPool
from repro.rta.compiled import DEFAULT_KERNEL
from repro.serve.protocol import QueryError, error_response, parse_request
from repro.serve.service import DEFAULT_MAX_CONTEXTS, AdmissionService

__all__ = ["ServeDaemon"]

#: Ops answered directly on the event loop (no evaluation work).
_INLINE_OPS = frozenset({"ping", "stats", "shutdown"})

#: Per-worker-process service, created lazily on first query (the pool
#: forks workers, so the parent's ``None`` is what each worker starts from).
_WORKER_SERVICE: Optional[AdmissionService] = None


def _answer_in_worker(payload: Tuple[str, int, str]) -> Dict[str, object]:
    """Pool entry point: answer one raw request line in this worker."""
    global _WORKER_SERVICE
    line, max_contexts, kernel = payload
    if _WORKER_SERVICE is None:
        # First query in this worker: the service is built once and kept
        # warm for the daemon's lifetime.  Its kernel tier is already
        # resolved: the worker was forked from the daemon, whose own
        # service loaded the compiled backend before the socket opened.
        _WORKER_SERVICE = AdmissionService(
            max_contexts=max_contexts, kernel=kernel
        )
    return _WORKER_SERVICE.handle_line(line)


class _BlockingStreamWriter:
    """``StreamWriter`` lookalike over a blocking byte stream.

    ``connect_write_pipe`` refuses regular files (the event loop cannot
    poll them), so when stdout is redirected to a file the responses are
    written through the default executor instead.  Only the four methods
    ``_serve_stream`` uses are provided.
    """

    def __init__(self, stream, loop: asyncio.AbstractEventLoop) -> None:
        self._stream = stream
        self._loop = loop
        self._pending: list = []

    def write(self, data: bytes) -> None:
        self._pending.append(data)

    async def drain(self) -> None:
        data = b"".join(self._pending)
        self._pending.clear()
        if data:
            await self._loop.run_in_executor(None, self._write_now, data)

    def _write_now(self, data: bytes) -> None:
        self._stream.write(data)
        self._stream.flush()

    def close(self) -> None:  # the stream is stdout: never actually closed
        pass

    async def wait_closed(self) -> None:
        pass


class ServeDaemon:
    """A JSON-lines admission daemon over a warm :class:`AdmissionService`.

    Parameters
    ----------
    jobs:
        ``<= 1`` answers queries in-process (one shared warm service);
        ``> 1`` fans evaluation queries out to that many worker processes,
        each with its own warm service.
    timeout:
        Default per-query evaluation timeout in seconds (``None`` = no
        limit); a query's own ``timeout`` field overrides it.
    max_contexts:
        Answer LRU size of each service (see :class:`AdmissionService`).
    kernel:
        Fixed-point kernel tier of each service (``"auto"``, the default,
        ``"python"`` or ``"compiled"``; byte-equal results across tiers).
        The daemon's own service resolves it at construction, before the
        listener opens; the lifecycle log names the resolved tier.
    quiet:
        Suppress the stderr lifecycle log lines.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        max_contexts: int = DEFAULT_MAX_CONTEXTS,
        kernel: str = DEFAULT_KERNEL,
        quiet: bool = False,
    ) -> None:
        if timeout is not None and not timeout > 0:
            raise ConfigurationError(
                f"timeout must be a positive number of seconds, got {timeout}"
            )
        self._jobs = max(1, jobs)
        self._timeout = timeout
        self._max_contexts = max_contexts
        self._kernel = kernel
        self._quiet = quiet
        self._service = AdmissionService(max_contexts=max_contexts, kernel=kernel)
        self._thread_executor: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[PersistentPool] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._connection_tasks: Set[asyncio.Task] = set()

    # -- plumbing --------------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self._quiet:
            print(f"hydra-c serve: {message}", file=sys.stderr, flush=True)

    def _describe(self) -> str:
        return f"jobs={self._jobs}, kernel={self._service.kernel_tier}"

    def stop(self) -> None:
        """Begin the graceful drain (idempotent; safe from signal handlers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def _dispatch(
        self, line: str, request: Dict[str, object]
    ) -> Dict[str, object]:
        """Run one evaluation query off the event loop."""
        loop = asyncio.get_running_loop()
        if self._jobs <= 1:
            if self._thread_executor is None:
                # One thread: queries from all connections serialise onto
                # the single warm service (which is not thread-safe).
                self._thread_executor = ThreadPoolExecutor(max_workers=1)
            return await loop.run_in_executor(
                self._thread_executor, self._service.handle, request
            )
        if self._pool is None:
            self._pool = PersistentPool(max_workers=self._jobs)
        payload = (line, self._max_contexts, self._kernel)
        try:
            return await asyncio.wrap_future(
                self._pool.submit(_answer_in_worker, payload)
            )
        except BrokenProcessPool:
            # A worker died mid-query; discard the broken executor and
            # retry once on a fresh one (queries are pure).
            self._pool.reset()
            return await asyncio.wrap_future(
                self._pool.submit(_answer_in_worker, payload)
            )

    async def _answer(self, line: str) -> Tuple[Dict[str, object], bool]:
        """Answer one raw request line; returns (response, is_shutdown)."""
        try:
            request = parse_request(line)
        except QueryError as exc:
            return error_response(None, "query", str(exc)), False
        request_id = request.get("id")
        op = request.get("op")
        if op in _INLINE_OPS:
            # Cheap ops stay on the loop; with worker processes the stats
            # are the front end's (workers keep their own counters).
            return self._service.handle(request), op == "shutdown"
        timeout = request.get("timeout", self._timeout)
        work = asyncio.ensure_future(self._dispatch(line, request))
        try:
            return await asyncio.wait_for(work, timeout), False
        except asyncio.TimeoutError:
            # wait_for already cancelled `work`; running kernel work on an
            # executor finishes in the background and is discarded.
            return (
                error_response(
                    request_id,
                    "timeout",
                    f"query exceeded its {timeout} s evaluation budget",
                ),
                False,
            )
        except Exception as exc:  # unexpected: answer, don't kill the daemon
            return (
                error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                ),
                False,
            )

    # -- connection handling ---------------------------------------------------

    async def _serve_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: answer queries in order until EOF or drain."""
        assert self._stop_event is not None
        stop_wait = asyncio.ensure_future(self._stop_event.wait())
        try:
            while True:
                read = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {read, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if read not in done:
                    # Draining while idle: close without reading further.
                    read.cancel()
                    break
                raw = read.result()
                if not raw:
                    break  # client closed
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                response, is_shutdown = await self._answer(line)
                writer.write(
                    (json.dumps(response, separators=(",", ":")) + "\n").encode()
                )
                await writer.drain()
                if is_shutdown:
                    self.stop()
                if self._stop_event.is_set():
                    break
        finally:
            stop_wait.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass
            except NotImplementedError:
                # The bare stdio pipe protocol has no close waiter.
                pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connection_tasks.add(task)
        try:
            await self._serve_stream(reader, writer)
        finally:
            self._connection_tasks.discard(task)

    # -- lifecycles ------------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass

    def _shutdown_executors(self) -> None:
        if self._thread_executor is not None:
            self._thread_executor.shutdown(wait=True)
            self._thread_executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def run_unix(self, socket_path) -> int:
        """Serve on a Unix domain socket until stopped; returns exit code."""
        self._stop_event = asyncio.Event()
        self._install_signal_handlers()
        path = Path(socket_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=str(path)
        )
        self._log(f"listening on {path} ({self._describe()})")
        try:
            await self._stop_event.wait()
            self._log("draining")
            server.close()
            await server.wait_closed()
            if self._connection_tasks:
                await asyncio.gather(
                    *tuple(self._connection_tasks), return_exceptions=True
                )
        finally:
            self._shutdown_executors()
            path.unlink(missing_ok=True)
        self._log("stopped")
        return 0

    async def run_stdio(self) -> int:
        """Serve one JSON-lines session over stdin/stdout; returns exit code."""
        self._stop_event = asyncio.Event()
        self._install_signal_handlers()
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        try:
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
            )
        except ValueError:
            # stdin is a regular file (e.g. `hydra-c serve --stdio < q.txt`):
            # pump it into the reader from a thread instead.
            def _pump() -> None:
                for chunk in iter(sys.stdin.buffer.readline, b""):
                    loop.call_soon_threadsafe(reader.feed_data, chunk)
                loop.call_soon_threadsafe(reader.feed_eof)

            threading.Thread(target=_pump, daemon=True).start()
        try:
            transport, protocol = await loop.connect_write_pipe(
                asyncio.streams.FlowControlMixin, sys.stdout
            )
            writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        except ValueError:
            # stdout is a regular file: write through the executor.
            writer = _BlockingStreamWriter(sys.stdout.buffer, loop)
        self._log(f"serving on stdio ({self._describe()})")
        try:
            await self._serve_stream(reader, writer)
        finally:
            self._shutdown_executors()
        self._log("stopped")
        return 0

    def serve(self, socket_path=None) -> int:
        """Blocking entry point: run until drained, return the exit code."""
        if socket_path is not None:
            return asyncio.run(self.run_unix(socket_path))
        return asyncio.run(self.run_stdio())
