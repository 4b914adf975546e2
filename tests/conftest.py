import contextlib
import inspect
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def frame_budget():
    """``frame_budget(n)`` is a context in which Python's recursion limit is
    the caller's depth plus ``n`` frames; the old limit returns on exit."""

    @contextlib.contextmanager
    def budget(frames):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    return budget
