"""Fixtures shared by the whole suite."""
import pytest

from wperturb import _transport


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with an empty W1 memo and zeroed hit and miss counts,
    so that solve counts and hit checks do not depend on earlier tests.  The
    verifier keeps its fits on the kernels, which each test makes afresh."""
    _transport._memo.clear()
