"""The asyncio front end of ``hydra-c serve``.

One long-lived process, a JSON-lines protocol (see
:mod:`repro.serve.protocol`) over a Unix domain socket (``--socket``) or
stdin/stdout (``--stdio``), and the warm
:class:`~repro.serve.service.AdmissionService` behind it:

* **the loop owns the state** -- the event loop alone runs the service's
  cheap step (:meth:`~AdmissionService.triage`: validation, the canonical
  key, the answer-store lookup) and owns the answer store, the counters
  and the engine table.  ``ping``, ``stats``, ``shutdown``, invalid
  queries and stored answers are answered there; a stored answer is
  written out as ``{"id":<id>,"ok":true,"result":<stored text>}`` without
  re-encoding it;

* **only misses leave the loop** -- a design/admit key the store does not
  hold is computed (:meth:`~AdmissionService.compute`) on a one-thread
  executor (``jobs <= 1``) or on a worker of the shared
  :class:`~repro.exec.PersistentPool` (``jobs > 1``; each forked worker
  keeps warm engines but no answers).  The answer text and the kernel
  counters come back to the loop, which stores and merges them.  A key
  that is already being evaluated is awaited, not computed twice.  A
  worker crash surfaces as ``BrokenProcessPool``; the pool is
  :meth:`~repro.exec.PersistentPool.reset` and the miss retried once;

* **per-query timeout** -- a query's ``timeout`` field (or the daemon's
  ``--timeout`` default) bounds the wait for its evaluation; expiry
  answers ``ok: false`` / ``type: "timeout"``.  The evaluation itself is
  shared and shielded: it runs on and stores its answer, so a re-ask
  finds it (work already running cannot be interrupted mid-kernel);

* **graceful drain** -- SIGTERM/SIGINT (or a ``shutdown`` query) stop the
  listener; connections idle in their read are closed at once, every
  other connection finishes the query it is answering and flushes it, the
  executors shut down, the socket file is removed, and the daemon exits
  0.  The CI smoke stage pins exactly this sequence.

The socket path is claimed with care: a path where a daemon still
listens is refused, a stale socket is replaced, and anything else at the
path (a file, a directory) is left alone and refused.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import stat
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, ReproError, path_error
from repro.exec import PersistentPool
from repro.rta.compiled import DEFAULT_KERNEL
from repro.serve.protocol import (
    LINE_TOO_LONG,
    MAX_LINE_BYTES,
    QueryError,
    canonical_json,
    error_response,
    parse_request,
)
from repro.serve.service import DEFAULT_MAX_CONTEXTS, AdmissionService, Query

__all__ = ["ServeDaemon"]

#: Per-worker-process service, created lazily on first miss (the pool
#: forks workers, so the parent's ``None`` is what each worker starts from).
_WORKER_SERVICE: Optional[AdmissionService] = None


def _compute_in_worker(payload: Tuple[Query, str]) -> Tuple[str, Dict[str, int]]:
    """Pool entry point: compute one miss on this worker's warm engines."""
    global _WORKER_SERVICE
    query, kernel = payload
    if _WORKER_SERVICE is None:
        # First miss in this worker: the service is built once and kept
        # warm for the daemon's lifetime.  It stores no answers (the loop
        # does) and its kernel tier is already resolved: the worker was
        # forked from the daemon, whose own service loaded the compiled
        # backend before the socket opened.
        _WORKER_SERVICE = AdmissionService(max_contexts=0, kernel=kernel)
    return _WORKER_SERVICE.compute(query)


def _response_line(response: Dict[str, object]) -> bytes:
    return (canonical_json(response) + "\n").encode()


def _answer_line(request_id: object, text: str) -> bytes:
    """The ok line of an answer text, byte-equal to
    ``_response_line(ok_response(request_id, json.loads(text)))``."""
    return (
        f'{{"id":{canonical_json(request_id)},"ok":true,"result":{text}}}\n'
    ).encode()


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at EOF), or ``None`` for a line over
    the reader's limit, which is read and discarded up to its newline."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # the last line lacks its newline, or EOF
    except asyncio.LimitOverrunError as exc:
        scanned = exc.consumed
    while True:
        # The scanned bytes are still buffered: drop them and scan on.
        await reader.readexactly(scanned)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            scanned = exc.consumed


def _claim_socket_path(path: Path) -> None:
    """Make *path* free for a new listener, or refuse it.

    Only a stale socket (nothing accepts on it) is removed; a live one
    belongs to another daemon, and any other file is not ours to delete.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as exc:
        raise path_error("socket path", path, exc) from None
    if not stat.S_ISSOCK(mode):
        raise ConfigurationError(
            f"socket path {path} exists and is not a socket; refusing to "
            f"replace it"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except ConnectionRefusedError:
        path.unlink(missing_ok=True)  # stale: its daemon is gone
        return
    except OSError as exc:  # e.g. a daemon too busy to accept in time
        raise path_error("socket path", path, exc) from None
    finally:
        probe.close()
    raise ConfigurationError(
        f"another hydra-c serve daemon is listening on {path}"
    )


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
        ``<= 1`` computes misses on one thread of this process; ``> 1``
        on that many worker processes, each with warm engines.  Either
        way one answer store, in this process, serves every connection.
    timeout:
        Default per-query evaluation timeout in seconds (``None`` = no
        limit); a query's own ``timeout`` field overrides it.
    max_contexts:
        Answer store size (see :class:`AdmissionService`).
    kernel:
        Fixed-point kernel tier (``"auto"``, the default, ``"python"`` or
        ``"compiled"``; byte-equal results across tiers).  The daemon's
        own service resolves it at construction, before the listener
        opens; the lifecycle log names the resolved tier.
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
        self._kernel = kernel
        self._quiet = quiet
        self._service = AdmissionService(max_contexts=max_contexts, kernel=kernel)
        self._thread_executor: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[PersistentPool] = None
        self._stop_event: Optional[asyncio.Event] = None
        #: Every open connection's task, and whether it is idle in its read.
        self._connections: Dict[asyncio.Task, bool] = {}
        #: The shared evaluation of every key being computed.
        self._inflight: Dict[str, asyncio.Task] = {}

    # -- plumbing --------------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self._quiet:
            print(f"hydra-c serve: {message}", file=sys.stderr, flush=True)

    def _describe(self) -> str:
        return f"jobs={self._jobs}, kernel={self._service.kernel_tier}"

    def stop(self) -> None:
        """Begin the graceful drain (idempotent; safe from signal handlers).

        Connections idle in their read close now; busy ones close after
        flushing the answer they are working on.
        """
        if self._stop_event is None or self._stop_event.is_set():
            return
        self._stop_event.set()
        for task, idle in self._connections.items():
            if idle:
                task.cancel()

    async def _compute(self, query: Query) -> Tuple[str, Dict[str, int]]:
        """Compute one miss off the event loop."""
        if self._jobs <= 1:
            if self._thread_executor is None:
                # One thread: misses from all connections serialise onto
                # the warm engines (which are not thread-safe).
                self._thread_executor = ThreadPoolExecutor(max_workers=1)
            return await asyncio.get_running_loop().run_in_executor(
                self._thread_executor, self._service.compute, query
            )
        if self._pool is None:
            self._pool = PersistentPool(max_workers=self._jobs)
        payload = (query, self._kernel)
        try:
            return await asyncio.wrap_future(
                self._pool.submit(_compute_in_worker, payload)
            )
        except BrokenProcessPool:
            # A worker died mid-query; discard the broken executor and
            # retry once on a fresh one (queries are pure).
            self._pool.reset()
            return await asyncio.wrap_future(
                self._pool.submit(_compute_in_worker, payload)
            )

    async def _evaluate(self, query: Query) -> str:
        """The shared evaluation of one key: compute, then store on the loop."""
        text, kernel_counts = await self._compute(query)
        return self._service.store(query.key, text, kernel_counts)

    def _evaluation(self, query: Query) -> asyncio.Task:
        """The running evaluation of *query*'s key, started if there is none."""
        task = self._inflight.get(query.key)
        if task is None:
            task = asyncio.create_task(self._evaluate(query))
            self._inflight[query.key] = task
            task.add_done_callback(
                lambda done, key=query.key: self._settled(key, done)
            )
        return task

    def _settled(self, key: str, task: asyncio.Task) -> None:
        del self._inflight[key]
        if not task.cancelled():
            # A waiter that timed out no longer looks (``shield`` drops
            # its callback), so a failure none is left to see is
            # retrieved here instead of logged as never retrieved.
            task.exception()

    async def _answer(self, line: str) -> Tuple[bytes, bool]:
        """Answer one raw request line; returns (response line, is_shutdown)."""
        service = self._service
        try:
            request = parse_request(line)
        except QueryError as exc:
            return _response_line(service.refuse(exc)), False
        outcome = service.triage(request)
        if not isinstance(outcome, Query):
            return _response_line(outcome), request["op"] == "shutdown"
        if outcome.stored is not None:
            return _answer_line(outcome.request_id, outcome.stored), False
        timeout = request.get("timeout", self._timeout)
        # Shielded: one waiter's budget must not cancel the shared work.
        waiter = asyncio.shield(self._evaluation(outcome))
        try:
            if timeout is None:
                text = await waiter
            else:
                text = await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            response = error_response(
                outcome.request_id,
                "timeout",
                f"query exceeded its {timeout} s evaluation budget",
            )
        except ReproError as exc:
            response = error_response(
                outcome.request_id, "configuration", str(exc)
            )
        except Exception as exc:  # unexpected: answer, don't kill the daemon
            response = error_response(
                outcome.request_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        else:
            return _answer_line(outcome.request_id, text), False
        return _response_line(response), False

    # -- connection handling ---------------------------------------------------

    async def _serve_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: answer queries in order until EOF or drain."""
        stop_event = self._stop_event
        assert stop_event is not None
        task = asyncio.current_task()
        assert task is not None
        connections = self._connections
        connections[task] = False
        try:
            while not stop_event.is_set():
                connections[task] = True  # idle: a drain may cancel the read
                raw = await _read_line(reader)
                connections[task] = False
                if raw is None:
                    data = _response_line(
                        self._service.refuse(QueryError(LINE_TOO_LONG))
                    )
                    is_shutdown = False
                elif not raw:
                    break  # client closed
                else:
                    line = raw.decode("utf-8", errors="replace").strip()
                    if not line:
                        continue
                    data, is_shutdown = await self._answer(line)
                writer.write(data)
                await writer.drain()
                if is_shutdown:
                    self.stop()
        except asyncio.CancelledError:
            if not stop_event.is_set():
                raise
            # stop() cancelled this idle read: end normally, since the
            # server would log a connection task that ends cancelled.
        finally:
            del connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass
            except NotImplementedError:
                # The bare stdio pipe protocol has no close waiter.
                pass

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
            self._thread_executor.shutdown(wait=True, cancel_futures=True)
            self._thread_executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def run_unix(self, socket_path) -> int:
        """Serve on a Unix domain socket until stopped; returns exit code."""
        path = Path(socket_path)
        _claim_socket_path(path)
        self._stop_event = asyncio.Event()
        self._install_signal_handlers()
        try:
            server = await asyncio.start_unix_server(
                self._serve_stream, path=str(path), limit=MAX_LINE_BYTES
            )
        except OSError as exc:
            raise path_error("socket path", path, exc) from None
        self._log(f"listening on {path} ({self._describe()})")
        try:
            await self._stop_event.wait()
            self._log("draining")
            server.close()
            await server.wait_closed()
            if self._connections:
                await asyncio.gather(
                    *tuple(self._connections), return_exceptions=True
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
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
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
            # A task of its own, so a drain can cancel it while idle.
            await asyncio.create_task(self._serve_stream(reader, writer))
        finally:
            self._shutdown_executors()
        self._log("stopped")
        return 0

    def serve(self, socket_path=None) -> int:
        """Blocking entry point: run until drained, return the exit code."""
        if socket_path is not None:
            return asyncio.run(self.run_unix(socket_path))
        return asyncio.run(self.run_stdio())
