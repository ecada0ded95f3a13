"""Fixtures shared by the test modules.

The acceptance suite (there is one) has its flows and fields built once
per session. The fixture runs the ten criteria on one
`acceptance._Artifacts("full")` before any test reads it, so each
criterion's elapsed time still covers its own builds, whatever the test
order. It then sets every array of the
cached histories and fields read-only: a test that writes into a shared
artifact raises ValueError instead of changing what later tests read.
"""

import numpy as np
import pytest

from expanderlab import acceptance


def _read_only(obj):
    """Set every ndarray reachable from obj through attributes, dicts,
    lists and tuples read-only; returns obj."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, dict):
        for v in obj.values():
            _read_only(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _read_only(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            _read_only(v)
    return obj


@pytest.fixture(scope="session")
def read_only():
    """The read-only walk, for a module that caches its own builds."""
    return _read_only


@pytest.fixture(scope="session")
def acceptance_run():
    """(artifacts, results): the acceptance suite's shared flows and fields,
    read-only, and its ten CriterionResults in order."""
    art = acceptance._Artifacts("full")
    results = [criterion(art) for criterion in acceptance.CRITERIA]
    return _read_only(art), results
