"""Fixtures shared by the whole suite."""
import pytest

from wperturb import _transport


@pytest.fixture(autouse=True)
def empty_transport_memo():
    """Start every test with an empty W1 memo and zeroed hit and miss counts,
    so that solve counts and hit checks do not depend on earlier tests."""
    _transport._memo.clear()
