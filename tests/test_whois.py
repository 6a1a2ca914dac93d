"""Tests for the WHOIS registry."""

from datetime import datetime

import pytest

from repro.whois.registrars import DEFAULT_REGISTRARS, pick_registrar
from repro.whois.registry import DomainRegistry

T0 = datetime(2010, 5, 1)
NOW = datetime(2022, 5, 1)


def test_register_and_lookup():
    registry = DomainRegistry()
    registry.register("acme.com", owner="Acme", registrar="GoDaddy", created_at=T0)
    record = registry.lookup("acme.com")
    assert record.owner == "Acme"
    assert record.registrar == "GoDaddy"
    assert len(registry) == 1


def test_lookup_by_subdomain_resolves_to_sld():
    registry = DomainRegistry()
    registry.register("acme.co.uk", owner="Acme UK", registrar="Tucows", created_at=T0)
    assert registry.owner_of("deep.app.acme.co.uk") == "Acme UK"
    assert registry.lookup("www.acme.co.uk").registrar == "Tucows"
    assert registry.lookup("x.acme.co.uk").created_at == T0


def test_duplicate_registration_rejected():
    registry = DomainRegistry()
    registry.register("acme.com", owner="A", registrar="R", created_at=T0)
    with pytest.raises(ValueError):
        registry.register("ACME.com", owner="B", registrar="R", created_at=T0)


def test_missing_domain_returns_none():
    registry = DomainRegistry()
    assert registry.lookup("ghost.com") is None
    assert registry.owner_of("ghost.com") is None


def test_age_years():
    registry = DomainRegistry()
    record = registry.register("old.com", owner="O", registrar="R", created_at=T0)
    assert 11.9 < record.age_years(NOW) < 12.1
    assert record.age_years(T0) == 0.0


def test_all_records_sorted():
    registry = DomainRegistry()
    registry.register("zzz.com", owner="z", registrar="R", created_at=T0)
    registry.register("aaa.com", owner="a", registrar="R", created_at=T0)
    assert [r.domain for r in registry.all_records()] == ["aaa.com", "zzz.com"]


def test_pick_registrar_respects_market():
    import random

    rng = random.Random(0)
    picks = [pick_registrar(rng) for _ in range(2000)]
    known = {name for name, _ in DEFAULT_REGISTRARS}
    assert set(picks) <= known
    # The market leader should dominate the draw.
    assert picks.count("GoDaddy") > picks.count("Epik")
