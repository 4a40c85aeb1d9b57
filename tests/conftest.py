"""Shared fixtures."""

import pytest


@pytest.fixture
def oracles_raise(monkeypatch):
    """Make both factorization oracles raise at every binding site."""
    from pretzelslice import cyclotomic, obstruction

    def boom(*args, **kwargs):
        raise AssertionError("factorization oracle called")

    for name in ("factor_count_oracle", "self_reciprocal_factor_oracle"):
        for mod in (cyclotomic, obstruction):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
