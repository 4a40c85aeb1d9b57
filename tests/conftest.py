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


@pytest.fixture
def polynomials_raise(oracles_raise, monkeypatch):
    """Also make Phi_d mod p and the factor search raise at every binding site."""
    from pretzelslice import cyclotomic, factor, obstruction, pretzel

    def boom(*args, **kwargs):
        raise AssertionError("polynomial code reached")

    for mod in (cyclotomic, pretzel, obstruction):
        if hasattr(mod, "reduced"):
            monkeypatch.setattr(mod, "reduced", boom)
    monkeypatch.setattr(factor, "self_reciprocal_search", boom)
