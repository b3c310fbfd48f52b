"""The per-test hang watchdog of the repository-root ``conftest.py``.

A test that outlives its budget must end the run with a traceback on
stderr instead of hanging it.  The watchdog is exercised on a sleeping
test in a child pytest run over a copy of the repository's root layout
(``pytest.ini`` and ``conftest.py``), once under ``tests/`` and once
under ``benchmarks/``: ordinary conftest discovery must arm it in both.
"""

import os
import shutil
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


def _run_hanging_test(root: Path, directory: str) -> None:
    """Run a 1 s-budget sleeping test in ``root/directory`` and check the
    watchdog ended the run with its traceback."""
    for name in ("pytest.ini", "conftest.py"):
        shutil.copy(REPO_DIR / name, root / name)
    (root / directory).mkdir()
    (root / directory / "test_hang.py").write_text(HANGING_TEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_DIR / "src"), env.get("PYTHONPATH", "")]
    )
    started = time.monotonic()
    finished = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider",
            str(Path(directory) / "test_hang.py"),
        ],
        cwd=root,
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


def test_hanging_test_fails_with_a_traceback(tmp_path):
    _run_hanging_test(tmp_path, "tests")


def test_hanging_benchmark_fails_with_a_traceback(tmp_path):
    """``benchmarks/`` has no watchdog of its own; the root conftest's
    reaches it (its compiled-kernel gates run the C fixed points)."""
    _run_hanging_test(tmp_path, "benchmarks")
