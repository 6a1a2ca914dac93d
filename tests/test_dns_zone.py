"""Tests for zones, change history and the zone registry."""

from datetime import datetime

import pytest

from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import Zone, ZoneRegistry

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 2, 3)


def _a(name, ip="1.2.3.4"):
    return ResourceRecord(name=name, rtype=RRType.A, rdata=ip)


def test_add_and_lookup():
    zone = Zone("example.com")
    zone.add(_a("app.example.com"), T0)
    assert [r.rdata for r in zone.lookup("app.example.com", RRType.A)] == ["1.2.3.4"]
    assert zone.lookup("app.example.com", RRType.CNAME) == []


def test_add_outside_zone_rejected():
    zone = Zone("example.com")
    with pytest.raises(ValueError):
        zone.add(_a("app.other.com"), T0)


def test_duplicate_record_rejected():
    zone = Zone("example.com")
    zone.add(_a("a.example.com"), T0)
    with pytest.raises(ValueError):
        zone.add(_a("a.example.com"), T0)


def test_cname_exclusivity():
    zone = Zone("example.com")
    zone.add(ResourceRecord("a.example.com", RRType.CNAME, "x.cloud.net"), T0)
    with pytest.raises(ValueError):
        zone.add(ResourceRecord("a.example.com", RRType.CNAME, "y.cloud.net"), T0)


def test_remove_and_name_exists():
    zone = Zone("example.com")
    record = zone.add(_a("a.example.com"), T0)
    assert zone.name_exists("a.example.com")
    zone.remove(record, T1)
    assert not zone.name_exists("a.example.com")
    with pytest.raises(ValueError):
        zone.remove(record, T1)


def test_remove_all_counts():
    zone = Zone("example.com")
    zone.add(_a("a.example.com", "1.1.1.1"), T0)
    zone.add(_a("a.example.com", "2.2.2.2"), T0)
    assert zone.remove_all("a.example.com", RRType.A, T1) == 2
    assert zone.lookup("a.example.com", RRType.A) == []


def test_replace_swaps_records():
    zone = Zone("example.com")
    zone.add(_a("a.example.com", "1.1.1.1"), T0)
    zone.replace("a.example.com", RRType.A, "9.9.9.9", T1)
    assert [r.rdata for r in zone.lookup("a.example.com", RRType.A)] == ["9.9.9.9"]


def test_history_records_adds_and_removes_with_timestamps():
    zone = Zone("example.com")
    record = zone.add(_a("a.example.com"), T0)
    zone.remove(record, T1)
    history = [c for c in zone.history if c.record.name == "a.example.com"]
    assert [(c.action, c.at) for c in history] == [("add", T0), ("remove", T1)]


def test_names_lists_current_owners():
    zone = Zone("example.com")
    zone.add(_a("a.example.com"), T0)
    zone.add(_a("b.example.com"), T0)
    assert zone.names() == {"a.example.com", "b.example.com"}


def test_registry_longest_match():
    registry = ZoneRegistry()
    registry.create_zone("azure-dns.com")
    inner = registry.create_zone("cloudapp.azure.com")
    outer = registry.create_zone("azure.com")
    assert registry.zone_for("vm1.cloudapp.azure.com") is inner
    assert registry.zone_for("portal.azure.com") is outer
    assert registry.zone_for("unrelated.net") is None


def test_registry_rejects_duplicate_apex():
    registry = ZoneRegistry()
    registry.create_zone("example.com")
    with pytest.raises(ValueError):
        registry.create_zone("Example.COM")


def test_registry_get_zone_exact():
    registry = ZoneRegistry()
    zone = registry.create_zone("example.com")
    assert registry.get_zone("example.com") is zone
    assert registry.get_zone("sub.example.com") is None
    assert len(registry) == 1
