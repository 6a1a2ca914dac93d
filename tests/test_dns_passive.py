"""Tests for the passive DNS corpus."""

from datetime import datetime

from repro.dns.passive_dns import PassiveDNS
from repro.dns.records import RRType, ResourceRecord

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 6, 1)


def _cname(name, target):
    return ResourceRecord(name, RRType.CNAME, target)


def test_observation_aggregates_first_last_and_count():
    pdns = PassiveDNS()
    record = _cname("a.example.com", "x.cloud.net")
    pdns.observe(record, T1)
    obs = pdns.observe(record, T0)
    assert obs.first_seen == T0
    assert obs.last_seen == T1
    assert obs.count == 2
    assert len(pdns) == 1


def test_observations_never_expire():
    """A purged record's observation history remains queryable."""
    pdns = PassiveDNS()
    pdns.observe(_cname("old.example.com", "gone.azurewebsites.net"), T0)
    # Years later the name is still in the corpus — the property both
    # researchers and attackers rely on.
    assert pdns.subdomains_of("example.com") == ["old.example.com"]


def test_subdomains_of_scopes_to_apex():
    pdns = PassiveDNS()
    pdns.observe(_cname("a.foo.com", "x.cloud.net"), T0)
    pdns.observe(_cname("b.bar.com", "y.cloud.net"), T0)
    assert pdns.subdomains_of("foo.com") == ["a.foo.com"]


def test_names_pointing_to():
    pdns = PassiveDNS()
    pdns.observe(_cname("a.foo.com", "shared.cloud.net"), T0)
    pdns.observe(_cname("b.bar.com", "shared.cloud.net"), T0)
    pdns.observe(_cname("c.baz.com", "other.cloud.net"), T0)
    assert pdns.names_pointing_to("shared.cloud.net") == ["a.foo.com", "b.bar.com"]


def test_cname_targets_filtered_by_suffix():
    pdns = PassiveDNS()
    pdns.observe(_cname("a.foo.com", "x.azurewebsites.net"), T0)
    pdns.observe(_cname("b.foo.com", "y.herokuapp.com"), T0)
    assert pdns.cname_targets("azurewebsites.net") == ["x.azurewebsites.net"]
    assert len(pdns.cname_targets()) == 2


def test_sighting_inside_the_window_only_counts():
    pdns = PassiveDNS()
    record = _cname("a.example.com", "x.cloud.net")
    pdns.observe(record, T0)
    pdns.observe(record, T1)
    obs = pdns.observe(record, datetime(2020, 3, 1))
    assert (obs.first_seen, obs.last_seen, obs.count) == (T0, T1, 3)
    obs = pdns.observe(record, T1)
    assert (obs.first_seen, obs.last_seen, obs.count) == (T0, T1, 4)
