"""Repository-wide pytest configuration: the per-test hang watchdog.

It lives at the repository root so that every collected test -- the unit
suites under ``tests/`` and the figure and speed gates under
``benchmarks/``, whose compiled-kernel gates run the same C fixed points
-- runs under it.
"""

from __future__ import annotations

import faulthandler
import os

import pytest

#: Seconds a test may run before the hang watchdog ends the run; the
#: slowest tests take ~50 s.  ``@pytest.mark.watchdog(seconds)`` overrides.
WATCHDOG_SECONDS = 300


@pytest.fixture(scope="session")
def _watchdog_stream(request):
    """The run's real stderr, outside pytest's output capture: the
    watchdog ends the process, so a dump into a capture buffer would be
    lost with it."""
    capture = request.config.pluginmanager.getplugin("capturemanager")
    if capture is not None:
        with capture.global_and_fixture_disabled():
            fd = os.dup(2)
    else:
        fd = os.dup(2)
    with os.fdopen(fd, "w") as stream:
        yield stream


@pytest.fixture(autouse=True)
def _hang_watchdog(request, _watchdog_stream):
    """Fail a hanging test loudly instead of spinning forever: after the
    test's budget every thread's traceback goes to stderr and the run
    exits non-zero (a compiled fixed point that never converges holds the
    interpreter in C, where no Python-level timeout can interrupt it)."""
    marker = request.node.get_closest_marker("watchdog")
    seconds = marker.args[0] if marker is not None else WATCHDOG_SECONDS
    faulthandler.dump_traceback_later(seconds, exit=True, file=_watchdog_stream)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
