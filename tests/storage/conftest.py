"""Storage-suite fixtures."""

from __future__ import annotations

import pytest

from repro.storage.wal import WriteAheadLog


@pytest.fixture(autouse=True)
def close_wal_handles(monkeypatch):
    """Close every log file a test opened, once its assertions ran.

    Recovery tests model a crash by abandoning a log mid-life, so they
    never call ``close()``; the open handle would otherwise be
    finalized by the garbage collector as an unclosed-file warning.
    Closing the raw handle here (no sync, no anchor ratchet) leaves
    every simulated crash exactly as the test saw it.
    """
    opened = []
    real_init = WriteAheadLog.__init__

    def tracked_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(WriteAheadLog, "__init__", tracked_init)
    yield
    for wal in opened:
        if not wal._handle.closed:
            wal._handle.close()
