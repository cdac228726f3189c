"""Shared pytest configuration.

BDD kernel sanitizer shard
--------------------------
Exporting ``REPRO_DEBUG_CHECKS=1`` turns on
:meth:`repro.bdd.BddManager._debug_validate` for every manager the suite
constructs: the autouse fixture below normalises the value so worker
subprocesses (the service pool, shard executors) inherit the canonical
``"1"``, and managers consult the variable at construction time.  One CI
shard runs the BDD-heavy test files this way; any refcount, free-list,
unique-table or op-cache corruption then fails the owning test at the next
GC safe point instead of surfacing later as a wrong verdict.

Manager factory
---------------
Tests that take the ``make_manager`` fixture run twice: ``[array]`` on a
plain :class:`~repro.bdd.BddManager`, and ``[overlay]`` on a
:class:`~repro.bdd.SnapshotOverlayManager` over an empty frozen base, whose
nodes all live in its private tail.  The overlay keeps its own ``_mk``,
tail-only sweep and tail-rooted ``count_sat`` recursion, so the second run
covers the one other node-allocation path.
"""

import os

import pytest

from repro.bdd import BddManager, SnapshotOverlayManager, SnapshotView
from repro.bdd import snapshot as bdd_snapshot

DEBUG_CHECKS = os.environ.get("REPRO_DEBUG_CHECKS", "") not in ("", "0")


@pytest.fixture(autouse=True)
def bdd_debug_checks(monkeypatch):
    """Propagate the sanitizer switch to every test (and its subprocesses)."""
    if DEBUG_CHECKS:
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
    yield


@pytest.fixture(params=["array", "overlay"])
def make_manager(request):
    """``make_manager(names, **kwargs)`` builds the parametrised manager."""
    views = []

    def make(names, **kwargs):
        if request.param == "array":
            return BddManager(names, **kwargs)
        name = bdd_snapshot.freeze(BddManager(names))
        try:
            view = SnapshotView(name)
        finally:
            bdd_snapshot.unlink(name)  # the attachment keeps the mapping
        views.append(view)
        return SnapshotOverlayManager(view, **kwargs)

    yield make
    for view in views:
        view.close()
