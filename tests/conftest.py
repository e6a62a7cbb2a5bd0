"""Fixtures shared by the test modules."""

import pytest


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
