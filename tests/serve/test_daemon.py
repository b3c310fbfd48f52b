"""Integration tests for the ``hydra-c serve`` daemon.

Each test talks to a real daemon subprocess over its Unix socket -- the
same deployment shape the CI smoke stage drives -- covering the query
round-trip, the bytes of stored and computed answers, per-query timeouts
and shared evaluations, error answers, both drain paths (``shutdown`` op
and SIGTERM), the multi-process mode and the socket-path checks.
"""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch.reference import reference_evaluate_one
from repro.cli import main
from repro.serve import ServeClient
from repro.serve.daemon import _answer_line
from repro.serve.protocol import MAX_LINE_BYTES, ok_response
from repro.serve.service import AdmissionService

SRC = str(Path(__file__).resolve().parents[2] / "src")

DESIGN_QUERY = {
    "op": "design",
    "num_cores": 2,
    "seed": 2020,
    "normalized_range": [0.05, 0.2],
}


FEASIBLE_ADMIT = {
    "op": "admit",
    "num_cores": 2,
    "rt_tasks": [
        {"name": "nav", "wcet": 240, "period": 500},
        {"name": "radio", "wcet": 90, "period": 400, "deadline": 300},
    ],
    "security_tasks": [
        {"name": "tripwire", "wcet": 534, "max_period": 10000},
    ],
}

INFEASIBLE_ADMIT = {
    "op": "admit",
    "num_cores": 2,
    "rt_tasks": [
        {"name": f"rt{i}", "wcet": 9, "period": 10} for i in range(3)
    ],
    "security_tasks": [],
}

#: A miss that takes most of a second on the python tier, which the
#: drain and shared-evaluation tests pin their daemons to.
SLOW_QUERY = {
    "op": "design",
    "num_cores": 8,
    "seed": 7,
    "group_index": 3,
    "normalized_range": [0.3, 0.4],
}

#: Absent, int, float, non-ASCII string, nested list, nested object.
ABSENT = object()
ID_KINDS = [
    ABSENT,
    7,
    2.5,
    "q-\u00fc\u2713",
    [1, [2.5, "x"], None],
    {"a": {"b": [1, 2]}, "c": None},
]


def with_id(query, request_id):
    return dict(query) if request_id is ABSENT else dict(query, id=request_id)


def cold_line(service, request):
    """The bytes a daemon wrote before answers were stored as text: a
    full compact encode of ``handle``'s response."""
    response = service.handle(dict(request))
    return (json.dumps(response, separators=(",", ":")) + "\n").encode()


class RawConnection(ServeClient):
    """A client connection that sends and reads raw response lines."""

    def send(self, request):
        if isinstance(request, dict):
            request = (json.dumps(request) + "\n").encode()
        self._file.write(request)
        self._file.flush()

    def line(self):
        return self._file.readline()

    def ask(self, request):
        self.send(request)
        return self.line()


def start_daemon(socket_path, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            str(socket_path),
            "--quiet",
            *extra_args,
        ],
        env=env,
    )


@pytest.fixture
def daemon(tmp_path):
    socket_path = tmp_path / "serve.sock"
    process = start_daemon(socket_path)
    try:
        yield socket_path, process
    finally:
        if process.poll() is None:
            process.terminate()
            process.wait(timeout=30)


class TestRoundTrip:
    def test_full_session(self, daemon):
        socket_path, process = daemon
        with ServeClient.connect(socket_path) as client:
            assert client.request({"op": "ping", "id": 1}) == {
                "id": 1,
                "ok": True,
                "result": {"pong": True},
            }

            # A design query answers exactly what the frozen oracle says.
            response = client.request(dict(DESIGN_QUERY, id=2))
            assert response["ok"] and response["id"] == 2
            reference = reference_evaluate_one(2, 0, (0.05, 0.2), 2020)
            assert response["result"]["evaluation"] == reference.to_json()

            # The warm repeat is byte-identical.
            repeat = client.request(dict(DESIGN_QUERY, id=3))
            assert json.dumps(repeat["result"]) == json.dumps(
                response["result"]
            )

            # An infeasible admission is an answer, not an error.
            infeasible = client.request(
                {
                    "op": "admit",
                    "num_cores": 2,
                    "rt_tasks": [
                        {"name": f"rt{i}", "wcet": 9, "period": 10}
                        for i in range(3)
                    ],
                    "security_tasks": [],
                }
            )
            assert infeasible["ok"]
            assert infeasible["result"]["feasible"] is False

            # Malformed queries are answered with ok=false, and the
            # connection keeps working afterwards.
            bad = client.request({"op": "design"})
            assert not bad["ok"] and bad["error"]["type"] == "query"
            stats = client.request({"op": "stats"})
            assert stats["ok"] and stats["result"]["queries"] >= 4
        assert process.poll() is None  # daemon survives client disconnect

    def test_timeout_answers_and_connection_stays_usable(self, daemon):
        socket_path, _process = daemon
        with ServeClient.connect(socket_path) as client:
            response = client.request(
                dict(DESIGN_QUERY, timeout=1e-6, id="slow")
            )
            assert not response["ok"]
            assert response["error"]["type"] == "timeout"
            assert response["id"] == "slow"
            assert client.request({"op": "ping"})["ok"]

    def test_non_finite_numbers_answer_query_errors(self, daemon):
        """``json.loads`` parses NaN and Infinity: a NaN budget once
        expired at once (``type: timeout``) and an infinite range bound
        crashed the evaluation (``type: internal``)."""
        socket_path, _process = daemon
        with ServeClient.connect(socket_path) as client:
            nan_budget = client.request(
                dict(DESIGN_QUERY, timeout=float("nan"))
            )
            infinite_bound = client.request(
                dict(DESIGN_QUERY, normalized_range=[0.05, float("inf")])
            )
            for response in (nan_budget, infinite_bound):
                assert not response["ok"]
                assert response["error"]["type"] == "query"
                assert "finite" in response["error"]["message"]
            assert client.request(dict(DESIGN_QUERY))["ok"]

    def test_shutdown_op_drains_and_exits_zero(self, daemon):
        socket_path, process = daemon
        with ServeClient.connect(socket_path) as client:
            response = client.request({"op": "shutdown"})
            assert response["ok"] and response["result"]["stopping"]
        assert process.wait(timeout=30) == 0
        assert not socket_path.exists()

    def test_sigterm_drains_and_exits_zero(self, daemon):
        socket_path, process = daemon
        with ServeClient.connect(socket_path) as client:
            assert client.request({"op": "ping"})["ok"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        assert not socket_path.exists()


class TestStdio:
    @pytest.mark.parametrize("via_pipe", [True, False])
    def test_stdio_session_answers_and_exits_zero(self, tmp_path, via_pipe):
        """--stdio works whether stdin/stdout are pipes or regular files."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        queries = "\n".join(
            [
                '{"op": "ping", "id": 1}',
                json.dumps(dict(DESIGN_QUERY, id=2)),
                '{"op": "shutdown", "id": 3}',
            ]
        )
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--stdio",
            "--quiet",
        ]
        if via_pipe:
            completed = subprocess.run(
                command,
                env=env,
                input=queries,
                capture_output=True,
                text=True,
                timeout=120,
            )
            stdout = completed.stdout
        else:
            in_path = tmp_path / "queries.txt"
            out_path = tmp_path / "answers.txt"
            in_path.write_text(queries + "\n")
            with in_path.open("rb") as stdin, out_path.open("wb") as stdout_f:
                completed = subprocess.run(
                    command,
                    env=env,
                    stdin=stdin,
                    stdout=stdout_f,
                    stderr=subprocess.PIPE,
                    timeout=120,
                )
            stdout = out_path.read_text()
        assert completed.returncode == 0, completed.stderr
        responses = [json.loads(line) for line in stdout.splitlines()]
        assert responses[0] == {"id": 1, "ok": True, "result": {"pong": True}}
        reference = reference_evaluate_one(2, 0, (0.05, 0.2), 2020)
        assert responses[1]["result"]["evaluation"] == reference.to_json()
        assert responses[2]["result"] == {"stopping": True}


class TestLifecycleLog:
    def test_log_names_the_resolved_kernel_tier(self):
        """``auto`` falls back silently, so the log says which tier
        answers: here the forced python fallback."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_DISABLE_COMPILED"] = "1"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio"],
            env=env,
            input='{"op": "shutdown"}\n',
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "serving on stdio (jobs=1, kernel=python)" in completed.stderr


def stop_daemon(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


class TestAnswerBytes:
    def test_answer_line_equals_a_full_encode_for_every_id_kind(self):
        text = json.dumps({"evaluation": {"x": [1.5, None]}}, separators=(",", ":"))
        for request_id in ID_KINDS[1:] + [None]:
            full = ok_response(request_id, json.loads(text))
            assert _answer_line(request_id, text) == (
                json.dumps(full, separators=(",", ":")) + "\n"
            ).encode()

    def test_stored_and_computed_answers_match_the_cold_line(self, daemon):
        """The first ask is computed, the rest come from the store; every
        line equals a full encode of a cold service's response."""
        socket_path, _process = daemon
        cold = AdmissionService(max_contexts=0)
        with RawConnection.connect(socket_path) as connection:
            for request_id in ID_KINDS:
                request = with_id(DESIGN_QUERY, request_id)
                assert connection.ask(request) == cold_line(cold, request)
            stats = json.loads(connection.ask({"op": "stats"}))["result"]
        assert stats["context_hits"] == len(ID_KINDS) - 1

    def test_interleaved_connections_get_the_cold_bytes(self, daemon):
        """Two connections pipeline their queries alternately, so one's
        stored answers and pings are written while the other's misses
        compute; each gets exactly what a single cold service answers."""
        socket_path, _process = daemon
        first = [
            with_id(DESIGN_QUERY, 1),
            with_id(FEASIBLE_ADMIT, "a2"),
            {"op": "ping", "id": 3},
            with_id(dict(DESIGN_QUERY, seed=21), [4]),
            {"op": "design", "id": 5},
            with_id(INFEASIBLE_ADMIT, 6),
        ]
        second = [
            with_id(dict(DESIGN_QUERY, seed=21), {"b": 1}),
            with_id(DESIGN_QUERY, 2.5),
            with_id(INFEASIBLE_ADMIT, None),
            with_id(FEASIBLE_ADMIT, "b4"),
            {"op": "ping"},
            with_id(DESIGN_QUERY, "b6"),
        ]
        cold = AdmissionService(max_contexts=0)
        expected = [
            [cold_line(cold, request) for request in stream]
            for stream in (first, second)
        ]
        with RawConnection.connect(socket_path) as one, RawConnection.connect(
            socket_path
        ) as other:
            for pair in zip(first, second):
                for connection, request in zip((one, other), pair):
                    connection.send(request)
            for connection, lines in zip((one, other), expected):
                assert [connection.line() for _ in lines] == lines


class TestMalformedLines:
    @pytest.mark.parametrize(
        "raw,message",
        [
            (
                b'{"op":"ping","pad":"' + b"x" * 70000 + b'"}\n',
                "request line exceeds 65536 bytes",
            ),
            (
                # Several times the read limit: discarded over many reads.
                b'{"op":"ping","pad":"' + b"x" * 300000 + b'"}\n',
                "request line exceeds 65536 bytes",
            ),
            (b"[" * 5000 + b"]" * 5000 + b"\n", "request nests too deeply"),
        ],
        ids=["oversized", "far-oversized", "deeply-nested"],
    )
    def test_line_is_answered_and_connection_stays_usable(
        self, daemon, raw, message
    ):
        """Regression: both lines ended the connection without an answer
        (a ValueError from the reader, a RecursionError from the parser)."""
        socket_path, _process = daemon
        refusal = {"id": None, "ok": False, "error": {"type": "query", "message": message}}
        with RawConnection.connect(socket_path) as connection:
            assert json.loads(connection.ask(raw)) == refusal
            assert json.loads(connection.ask({"op": "ping", "id": 1}))["ok"]

    def test_line_at_the_limit_is_read(self, daemon):
        socket_path, _process = daemon
        head = b'{"op":"ping","id":1,"pad":"'
        raw = head + b"x" * (MAX_LINE_BYTES - len(head) - 2) + b'"}\n'
        assert len(raw) == MAX_LINE_BYTES + 1
        with RawConnection.connect(socket_path) as connection:
            assert json.loads(connection.ask(raw)) == {
                "id": 1,
                "ok": True,
                "result": {"pong": True},
            }


class TestSharedEvaluation:
    def test_timed_out_query_reasked_while_running_is_evaluated_once(
        self, tmp_path
    ):
        """The re-ask waits on the evaluation the timed-out query started
        instead of queueing a second one: the kernel counters are one cold
        evaluation's, and no stored answer was used."""
        socket_path = tmp_path / "serve.sock"
        process = start_daemon(socket_path, "--kernel", "python")
        try:
            with ServeClient.connect(socket_path) as client:
                late = client.request(dict(SLOW_QUERY, timeout=0.05, id=1))
                assert late["error"]["type"] == "timeout"
                answer = client.request(dict(SLOW_QUERY, id=2))
                stats = client.request({"op": "stats"})["result"]
        finally:
            stop_daemon(process)
        cold = AdmissionService(kernel="python")
        assert answer == cold.handle(dict(SLOW_QUERY, id=2))
        assert stats["context_hits"] == 0
        assert stats["kernel"] == cold.handle({"op": "stats"})["result"]["kernel"]


class TestDrain:
    @pytest.mark.parametrize("trigger", ["sigterm", "shutdown"])
    def test_drain_flushes_a_pending_miss_and_closes_idle_connections(
        self, tmp_path, trigger
    ):
        socket_path = tmp_path / "serve.sock"
        process = start_daemon(socket_path, "--kernel", "python")
        try:
            with RawConnection.connect(socket_path) as busy, RawConnection.connect(
                socket_path
            ) as idle:
                busy.send(dict(SLOW_QUERY, id="slow"))
                # The daemon reads the busy line before it answers this ping.
                assert json.loads(idle.ask({"op": "ping"}))["ok"]
                if trigger == "sigterm":
                    process.send_signal(signal.SIGTERM)
                else:
                    with RawConnection.connect(socket_path) as third:
                        stopping = json.loads(third.ask({"op": "shutdown"}))
                        assert stopping["result"] == {"stopping": True}
                        assert third.line() == b""
                assert idle.line() == b""
                answer = json.loads(busy.line())
                assert answer["id"] == "slow" and answer["ok"]
                assert answer["result"]["evaluation"] is not None
                assert busy.line() == b""
            assert process.wait(timeout=60) == 0
            assert not socket_path.exists()
        finally:
            stop_daemon(process)


class TestAnswerStoreSize:
    def test_max_contexts_zero_answers_every_query_cold(self, tmp_path):
        """Nothing is stored, so every answer is computed, and every line
        -- the stats included -- equals a cold in-process service's."""
        socket_path = tmp_path / "serve.sock"
        process = start_daemon(socket_path, "--max-contexts", "0")
        requests = [with_id(DESIGN_QUERY, position) for position in range(3)]
        requests += [dict(FEASIBLE_ADMIT), dict(FEASIBLE_ADMIT), {"op": "stats"}]
        try:
            with RawConnection.connect(socket_path) as connection:
                lines = [connection.ask(request) for request in requests]
        finally:
            stop_daemon(process)
        cold = AdmissionService(max_contexts=0)
        assert lines == [cold_line(cold, request) for request in requests]
        stats = json.loads(lines[-1])["result"]
        assert stats["context_hits"] == 0 and stats["contexts"] == 0


class TestWorkerProcesses:
    def test_jobs_mode_answers_identically(self, tmp_path):
        socket_path = tmp_path / "serve-jobs.sock"
        process = start_daemon(socket_path, "--jobs", "2")
        try:
            with ServeClient.connect(socket_path) as client:
                first = client.request(dict(DESIGN_QUERY))
                second = client.request(dict(DESIGN_QUERY))
                assert first["ok"] and second["ok"]
                reference = reference_evaluate_one(2, 0, (0.05, 0.2), 2020)
                assert first["result"]["evaluation"] == reference.to_json()
                assert second["result"] == first["result"]
                client.request({"op": "shutdown"})
            assert process.wait(timeout=30) == 0
        finally:
            stop_daemon(process)

    def test_one_answer_store_and_counters_for_every_worker(
        self, tmp_path, daemon
    ):
        """Workers compute misses only: the daemon stores their answers and
        merges their kernel counters, so ``stats`` and every reply equal a
        ``--jobs 1`` daemon's bytes.  (Each worker once kept its own
        answers and counters, and ``stats`` read ``queries: 1``.)"""
        single_path, _single = daemon
        socket_path = tmp_path / "serve-jobs.sock"
        process = start_daemon(socket_path, "--jobs", "2")
        requests = [with_id(DESIGN_QUERY, position) for position in range(4)]
        requests.append({"op": "stats"})
        requests += [dict(FEASIBLE_ADMIT), dict(INFEASIBLE_ADMIT)] * 2
        requests.append({"op": "stats"})
        try:
            replies = []
            for path in (socket_path, single_path):
                with RawConnection.connect(path) as connection:
                    replies.append([connection.ask(request) for request in requests])
            # A drain, not a kill: a killed daemon's workers outlive it.
            with ServeClient.connect(socket_path) as client:
                client.request({"op": "shutdown"})
            assert process.wait(timeout=30) == 0
        finally:
            stop_daemon(process)
        assert replies[0] == replies[1]
        stats = json.loads(replies[0][4])["result"]
        assert stats["queries"] == 5 and stats["context_hits"] == 3
        cold = AdmissionService()
        cold.handle(dict(DESIGN_QUERY))
        assert stats["kernel"] == cold.handle({"op": "stats"})["result"]["kernel"]
        assert stats["kernel"]["exact_solves"] > 0
        final = json.loads(replies[0][-1])["result"]
        assert final["queries"] == 10 and final["context_hits"] == 5


class TestSocketPath:
    """``serve --socket`` refuses a path it cannot own: exit 2, one
    ``error:`` line, and whatever is at the path left as it was."""

    def test_live_socket_is_refused_and_its_daemon_keeps_answering(
        self, daemon, capsys
    ):
        """Regression: a second daemon silently took the path over (and
        removed it on exit), so the first could never be reached again."""
        socket_path, process = daemon
        with ServeClient.connect(socket_path) as client:
            assert client.request({"op": "ping"})["ok"]
        assert main(["serve", "--socket", str(socket_path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: another hydra-c serve daemon is listening on {socket_path}\n"
        )
        with ServeClient.connect(socket_path) as client:
            assert client.request({"op": "ping"})["ok"]
        assert process.poll() is None

    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_foreign_file_is_refused_untouched(self, tmp_path, capsys, kind):
        path = tmp_path / "serve.sock"
        if kind == "file":
            path.write_text("not a socket\n")
        else:
            path.mkdir()
            (path / "keep").write_text("x")
        assert main(["serve", "--socket", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: socket path {path} exists and is not a socket; "
            "refusing to replace it\n"
        )
        if kind == "file":
            assert path.read_text() == "not a socket\n"
        else:
            assert [entry.name for entry in path.iterdir()] == ["keep"]

    def test_parent_that_is_a_file_is_refused(self, tmp_path, capsys):
        blocker = tmp_path / "notes.txt"
        blocker.write_text("mine\n")
        path = blocker / "serve.sock"
        assert main(["serve", "--socket", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot use socket path {path}: {blocker} is not a "
            "directory\n"
        )
        assert blocker.read_text() == "mine\n"

    def test_stale_socket_is_replaced(self, tmp_path):
        """A socket file left by a killed daemon accepts nothing; a new
        daemon takes its place."""
        path = tmp_path / "serve.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()
        assert path.exists()
        process = start_daemon(path)
        try:
            with ServeClient.connect(path) as client:
                assert client.request({"op": "ping"})["ok"]
                client.request({"op": "shutdown"})
            assert process.wait(timeout=30) == 0
        finally:
            stop_daemon(process)


class TestQueryCli:
    def test_hydra_c_query_round_trip(self, daemon):
        socket_path, _process = daemon
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "query",
                "--socket",
                str(socket_path),
                '{"op": "ping", "id": 42}',
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        response = json.loads(completed.stdout.strip())
        assert response == {"id": 42, "ok": True, "result": {"pong": True}}

    def test_hydra_c_query_exits_nonzero_on_error_response(self, daemon):
        socket_path, _process = daemon
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "query",
                "--socket",
                str(socket_path),
                '{"op": "design"}',
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 1
        response = json.loads(completed.stdout.strip())
        assert not response["ok"]
