"""Tests for attacker-side dangling-record reconnaissance."""

import copy
from datetime import datetime, timedelta

import pytest

from repro.attacker.scanner import DanglingScanner
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.dns.records import RRType, ResourceRecord

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 3, 2)


def _setup_victim(internet, org="acme.com", sub="shop", service="azure-web-app"):
    provider_name = {"azure-web-app": "Azure"}[service]
    provider = internet.catalog.provider(provider_name)
    zone = internet.zones.create_zone(org)
    internet.whois.register(org, owner="Acme", registrar="GoDaddy",
                            created_at=T0 - timedelta(days=3650))
    resource = provider.provision(service, f"acme-{sub}", owner="org:acme", at=T0)
    fqdn = f"{sub}.{org}"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    provider.add_custom_domain(resource, fqdn, T0)
    # Warm passive DNS the way real resolution traffic would.
    internet.resolver.resolve_a_with_chain(fqdn, at=T0)
    return provider, resource, fqdn


def test_no_candidates_while_resource_lives(internet):
    _setup_victim(internet)
    scanner = DanglingScanner(internet)
    assert scanner.find_candidates(T0) == []


def test_candidate_appears_after_release(internet):
    provider, resource, fqdn = _setup_victim(internet)
    provider.release(resource, T1)
    candidates = DanglingScanner(internet).find_candidates(T1)
    assert len(candidates) == 1
    candidate = candidates[0]
    assert candidate.generated_fqdn == resource.generated_fqdn
    assert candidate.victim_fqdns == [fqdn]
    assert candidate.service_key == "azure-web-app"
    assert candidate.reputation > 1.0


def test_candidate_disappears_after_purge(internet):
    provider, resource, fqdn = _setup_victim(internet)
    provider.release(resource, T1)
    internet.zones.get_zone("acme.com").remove_all(fqdn, RRType.CNAME, T1)
    assert DanglingScanner(internet).find_candidates(T1) == []


def test_random_name_targets_are_skipped(internet):
    gcp = internet.catalog.provider("Google Cloud")
    zone = internet.zones.create_zone("acme.com")
    internet.whois.register("acme.com", owner="A", registrar="R", created_at=T0)
    resource = gcp.provision("gcp-appspot", "x", owner="org:acme", at=T0)
    zone.add(ResourceRecord("app.acme.com", RRType.CNAME, resource.generated_fqdn), T0)
    internet.resolver.resolve_a_with_chain("app.acme.com", at=T0)
    gcp.release(resource, T1)
    # The name dangles, but it cannot be deterministically re-registered.
    assert DanglingScanner(internet).find_candidates(T1) == []


def test_ct_only_victims_are_discovered(internet):
    """A victim absent from passive DNS is still found via the
    hostname leaked by its certificate in CT (Section 1's second
    recon channel)."""
    provider = internet.catalog.provider("Azure")
    zone = internet.zones.create_zone("quiet.com")
    internet.whois.register("quiet.com", owner="Quiet", registrar="R",
                            created_at=T0 - timedelta(days=2000))
    resource = provider.provision("azure-web-app", "quiet-shop", owner="org:quiet", at=T0)
    fqdn = "shop.quiet.com"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    # (No custom-domain verification, no browsing: nothing resolves the
    # name with a timestamp, so passive DNS stays blind to it.)
    # The owner gets a DNS-validated certificate — the hostname lands
    # in CT without any HTTP fetch having populated passive DNS.
    internet.cas["DigiCert"].issue_dns_validated(
        [fqdn], "Quiet", internet.whois.owner_of, T0
    )
    # Note: no resolution with a timestamp -> passive DNS never saw it.
    assert internet.passive_dns.names_pointing_to(resource.generated_fqdn) == []
    provider.release(resource, T1)
    candidates = DanglingScanner(internet).find_candidates(T1)
    assert any(fqdn in c.victim_fqdns for c in candidates)


def test_dns_zone_resources_are_never_candidates(internet):
    """Hosted-DNS (stale NS) takeovers are a lottery — attackers skip
    them, and so does the scanner (Figure 13, purple)."""
    azure = internet.catalog.provider("Azure")
    resource = azure.provision("azure-dns-zone", "acme-zone", owner="org:acme", at=T0)
    assert resource.nameservers  # randomly assigned NS set
    azure.release(resource, T1)
    assert DanglingScanner(internet).find_candidates(T1) == []


def test_candidates_ranked_by_reputation(internet):
    provider_a, resource_a, _ = _setup_victim(internet, org="young.com", sub="a")
    provider_b, resource_b, _ = _setup_victim(internet, org="old.com", sub="b")
    # Make young.com actually young.
    internet.whois._records["young.com"] = internet.whois._records["young.com"].__class__(
        domain="young.com", owner="Y", registrar="R", created_at=T0 - timedelta(days=40)
    )
    provider_a.release(resource_a, T1)
    provider_b.release(resource_b, T1)
    candidates = DanglingScanner(internet).find_candidates(T1)
    assert [c.victim_fqdns[0] for c in candidates] == ["b.old.com", "a.young.com"]


# -- the recon-parse memo against a run that re-parses every week -----------


def _twelve_week_recon(monkeypatch, clear_memo):
    """Each ``find_candidates`` list of a 12-week tiny run, and its feed."""
    calls = []
    original = DanglingScanner.find_candidates

    def recording(self, at):
        if clear_memo:
            self._parsed.clear()
        candidates = original(self, at)
        calls.append(copy.deepcopy(candidates))
        return candidates

    with monkeypatch.context() as patch:
        patch.setattr(DanglingScanner, "find_candidates", recording)
        config = ScenarioConfig.tiny()
        config.weeks = 12
        result = run_scenario(config)
    feed = sorted(
        (key, obs.first_seen, obs.last_seen, obs.count)
        for key, obs in result.internet.passive_dns._observations.items()
    )
    return calls, feed


def test_parse_memo_leaves_weekly_candidates_and_feed_unchanged(monkeypatch):
    memo_calls, memo_feed = _twelve_week_recon(monkeypatch, clear_memo=False)
    fresh_calls, fresh_feed = _twelve_week_recon(monkeypatch, clear_memo=True)
    assert any(memo_calls), "no week found a candidate: the check is vacuous"
    assert memo_calls == fresh_calls
    assert memo_feed == fresh_feed
