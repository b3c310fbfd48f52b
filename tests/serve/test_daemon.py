"""Integration tests for the ``hydra-c serve`` daemon.

Each test talks to a real daemon subprocess over its Unix socket -- the
same deployment shape the CI smoke stage drives -- covering the query
round-trip, per-query timeouts, error answers, both drain paths
(``shutdown`` op and SIGTERM) and the multi-process dispatch mode.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch.reference import reference_evaluate_one
from repro.serve import ServeClient

SRC = str(Path(__file__).resolve().parents[2] / "src")

DESIGN_QUERY = {
    "op": "design",
    "num_cores": 2,
    "seed": 2020,
    "normalized_range": [0.05, 0.2],
}


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
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)


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
