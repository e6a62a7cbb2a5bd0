"""Fixtures shared by the test modules, and the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` draws each property's examples from a fixed seed
and prints the blob that replays a failure; unset, the default profile
draws fresh examples on every run.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)``: ``owner.name`` replaced, for the test, by a spy
    that calls it and records each call's positional arguments in the list
    returned."""
    def spy_on(owner, name):
        seen, real = [], getattr(owner, name)

        def spy(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return seen

    return spy_on
