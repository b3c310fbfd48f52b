"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index) and prints the
corresponding rows/series so the output can be compared against the paper
side by side.  The workloads are scaled down from the paper's 250 task sets
per utilization group so the whole harness finishes in a few minutes; pass
``--paper-scale`` to pytest to run the full-size sweeps.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_FIGURES_PATH = Path(__file__).parent / "figures_output.txt"


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the sweeps at the paper's full scale (250 tasksets/group)",
    )


def pytest_collection_modifyitems(items):
    """Mark every test in this directory ``bench``.

    The benchmark harness regenerates whole figures, so it dominates the
    suite's runtime; ``pytest -m "not bench"`` keeps the tier-1 run fast
    (the marker is registered in the repository-root ``pytest.ini``).
    """
    bench_dir = Path(__file__).parent
    for item in items:
        if Path(str(item.fspath)).is_relative_to(bench_dir):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def tasksets_per_group(request) -> int:
    """Task sets per utilization group used by the synthetic sweeps."""
    return 250 if request.config.getoption("--paper-scale") else 5


@pytest.fixture(scope="session")
def sweep_jobs() -> int:
    """Worker processes used by the synthetic sweeps."""
    import os

    return max(1, min(16, (os.cpu_count() or 2) - 2))


@pytest.fixture(scope="session")
def figure_report():
    """Print a regenerated figure table and persist it to figures_output.txt.

    pytest captures stdout of passing tests, so the tables are additionally
    appended to ``benchmarks/figures_output.txt`` where they can be compared
    against the paper after a benchmark run.
    """
    _FIGURES_PATH.write_text("", encoding="utf-8")

    def _report(text: str) -> None:
        with _FIGURES_PATH.open("a", encoding="utf-8") as handle:
            handle.write(text + "\n\n")
        print()
        print(text)

    return _report
