"""Shared fixtures for the test suite."""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.model import Platform, RealTimeTask, SecurityTask, TaskSet
from repro.rover.case_study import rover_rt_allocation, rover_taskset


@pytest.fixture
def dual_core() -> Platform:
    return Platform.dual_core()


@pytest.fixture
def quad_core() -> Platform:
    return Platform.quad_core()


@pytest.fixture
def simple_taskset() -> TaskSet:
    """A small, comfortably schedulable dual-core task set."""
    return TaskSet.create(
        [
            RealTimeTask(name="rt-fast", wcet=2, period=10),
            RealTimeTask(name="rt-slow", wcet=20, period=100),
        ],
        [
            SecurityTask(name="ids-a", wcet=5, max_period=200, coverage_units=10),
            SecurityTask(name="ids-b", wcet=3, max_period=300, coverage_units=6),
        ],
    )


@pytest.fixture
def simple_allocation() -> dict:
    return {"rt-fast": 0, "rt-slow": 1}


@pytest.fixture
def rover() -> TaskSet:
    return rover_taskset()


@pytest.fixture
def rover_allocation() -> dict:
    return rover_rt_allocation()


@pytest.fixture(params=["sqlite", "png"])
def binary_file(request, tmp_path) -> Path:
    """A file holding newlines and bytes that are not UTF-8: a database
    written by stdlib ``sqlite3``, or a file opening with the PNG
    signature.  Pointing ``--checkpoint`` at either must be refused."""
    path = tmp_path / f"binary.{request.param}"
    if request.param == "sqlite":
        # The schema text is stored verbatim, so its newline lands in the
        # file after the binary page header.
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE meta (\n    field TEXT PRIMARY KEY,\n"
            "    record TEXT NOT NULL\n)"
        )
        connection.execute(
            "INSERT INTO meta VALUES ('header', ?)", ('{"kind":"header"}',)
        )
        connection.commit()
        connection.close()
        assert b"\n" in path.read_bytes()
    else:
        path.write_bytes(
            b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\x00\x00\x00\x10\x00\x00\x00\x10"
            b"\x08\x06\x00\x00\x00\x1f\xf3\xffa\n"
        )
    return path
