"""Fixtures shared by the whole suite."""
import pytest

from wperturb import _transport, bounds


@pytest.fixture(autouse=True)
def empty_memos():
    """Start every test with an empty W1 memo and zeroed hit and miss counts,
    and with no fits kept by the verifier, so that solve and fit counts and
    hit checks do not depend on earlier tests."""
    _transport._memo.clear()
    bounds._once.cache_clear()
