"""The per-test hang watchdog of ``tests/conftest.py``.

A test that outlives its budget must end the run with a traceback on
stderr instead of hanging it; the watchdog is exercised on a sleeping
test in a child pytest run.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_DIR = TESTS_DIR.parent

HANGING_TEST = '''
import time

import pytest


@pytest.mark.watchdog(1)
def test_hangs():
    time.sleep(60)
'''


def test_hanging_test_fails_with_a_traceback(tmp_path):
    (tmp_path / "test_hang.py").write_text(HANGING_TEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(TESTS_DIR), str(REPO_DIR / "src"), env.get("PYTHONPATH", "")]
    )
    started = time.monotonic()
    finished = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider",
            # The suite's conftest as a plugin: its autouse watchdog.
            "-p", "conftest",
            "-c", str(REPO_DIR / "pytest.ini"),
            "--rootdir", str(tmp_path),
            str(tmp_path / "test_hang.py"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert finished.returncode != 0
    assert elapsed < 30
    assert "Timeout" in finished.stderr
    assert "test_hangs" in finished.stderr
