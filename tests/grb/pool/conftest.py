"""Fixtures for the worker-pool suite.

The process-global pool is deliberately left alive between tests (same
worker count → same pool), so the spawn cost is paid once per pytest
session; ``repro.grb.pool``'s atexit hook reaps it.  ``POOL_MIN_WORK``
is zeroed so test-sized operands cross the sharding threshold.  The plan
cache stays on: the pool state and threshold are part of its key, so a
serial reference computed next to a sharded run never reuses the other's
claimed rule.
"""

from __future__ import annotations

import pytest

from repro.grb.engine import cost


@pytest.fixture
def pool_on(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_WORKERS", "2")
    monkeypatch.setattr(cost, "POOL_MIN_WORK", 0)
    yield monkeypatch


@pytest.fixture
def pool_off(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_WORKERS", "0")
    yield monkeypatch
