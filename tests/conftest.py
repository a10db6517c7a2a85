import sys

import pytest


@pytest.fixture
def shallow_stack():
    """Run the test with a recursion limit of 200 frames, far below the
    lengths of the paths the search walks, so a search that recursed once
    per codeword would raise RecursionError."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
