"""Faulted reports, byte for byte: the rows every fault gives stay as recorded.

``tests/test_faults.py`` checks that each fault fails some row and raises
nowhere; it does not notice a change to the text or the number of the
failed rows.  Here each fault of ``helpers.sampled_faults(q)`` is applied
to a fresh context, ``sweeps.run_field`` runs every suite on it, and the
rows, encoded by ``json.dumps`` as ``verify`` writes them, are hashed with
the fault's name, one digest per field.  A change that moves any faulted
row has to record the new digest on purpose, with the rows it moved.
"""

import hashlib
import json

import pytest

from charprod import sweeps
from charprod.ffield import mk_field
from helpers import sampled_faults

# sha256 over "<fault name>\n" and the rows' JSON lines, fault by fault
FAULT_DIGESTS = {
    (13, 1): "b8c51e39e6b0252811e548b63ba7e04a0f894237e412d8afca855495246d2ad4",
    (3, 2): "e429a8d85bb55ca46bac0e6ad8c0a48877f3a8d80181a63750664c9e7f73558b",
    (3, 3): "052403c90bb3805d754b67de22228fe43de2cfc44c9a66ab7c6cba7063d6ee54",
    (5, 2): "4b7e1e90f2dfdd2bf43207833ec9ad4c353ff6ee0578de15c24748a232838b89",
    (7, 2): "7965c4490d48552f6c39d9c4d2760bfefb73affe087997f4f411792d7762fd6d",
}


def fault_report_digest(monkeypatch, p, n) -> str:
    """The digest of every fault's rows at p^n, all suites on a fresh context."""
    digest = hashlib.sha256()
    for name, fault in sampled_faults(p ** n):
        def corrupted(p, n=1):
            ctx = mk_field(p, n)
            fault(ctx)
            return ctx

        monkeypatch.setattr(sweeps, "mk_field", corrupted)
        digest.update(f"{name}\n".encode())
        for row in sweeps.run_field(p, n, sweeps.ALL_SUITES):
            digest.update((json.dumps(row) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("p, n", list(FAULT_DIGESTS))
def test_faulted_reports_are_the_recorded_ones(monkeypatch, p, n):
    assert fault_report_digest(monkeypatch, p, n) == FAULT_DIGESTS[p, n]
