"""Tests for campaign orchestration: end-to-end takeover mechanics."""

from datetime import datetime, timedelta

import pytest

from repro.attacker.campaign import CampaignOrchestrator
from repro.attacker.groups import AttackerGroup, GroupBehavior
from repro.attacker.identifiers import build_pool
from repro.cloud.specs import NamingPolicy
from repro.content.vocab import Topic
from repro.sim.rng import RngStreams
from repro.world.ground_truth import GroundTruthLog
from repro.world.internet import Internet
from repro.world.population import PopulationBuilder, PopulationConfig

T0 = datetime(2020, 1, 6)


def _group(internet, name="g1", **behavior_kwargs):
    rng = internet.streams.get(f"test-attacker:{name}")
    pool = build_pool(rng, internet.shortener, ["https://mega-gacor.bet/play"])
    return AttackerGroup(
        name=name, rng=rng, identifier_pool=pool,
        monetized_urls=["https://mega-gacor.bet/play"],
        referral_code="ref77",
        behavior=GroupBehavior(weekly_capacity=5, **behavior_kwargs),
        active_from=T0,
    )


@pytest.fixture()
def staged():
    """A world with a handful of dangling records ready for takeover."""
    internet = Internet(RngStreams(61))
    builder = PopulationBuilder(internet)
    orgs = builder.build(
        PopulationConfig(n_enterprises=12, n_universities=0, n_government=0, n_popular=0),
        T0,
    )
    released = 0
    at = T0 + timedelta(weeks=1)
    for org in orgs:
        for asset in org.assets:
            resource = asset.resource
            if (
                resource is None
                or not resource.active
                or resource.spec.naming != NamingPolicy.FREETEXT
            ):
                continue
            provider = internet.catalog.provider(resource.provider)
            provider.release(resource, at)
            asset.dangling_since = at
            released += 1
            break  # one release per org is plenty
    assert released >= 5
    return internet, orgs, at


def test_takeovers_happen_and_are_recorded(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    group = _group(internet)
    orchestrator = CampaignOrchestrator(internet, [group], ground_truth, orgs)
    takeovers = orchestrator.step(at + timedelta(weeks=1))
    assert takeovers >= 3
    assert len(ground_truth) >= 3
    for record in ground_truth.all_records():
        assert record.attacker_group == "g1"
        assert record.resource.owner == "attacker:g1"


def test_victim_domain_serves_abuse_after_takeover(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    orchestrator = CampaignOrchestrator(internet, [_group(internet)], ground_truth, orgs)
    orchestrator.step(at + timedelta(weeks=1))
    record = ground_truth.all_records()[0]
    outcome = internet.client.fetch(record.fqdn, at=at + timedelta(weeks=1))
    assert outcome.ok
    body = outcome.response.body.lower()
    assert any(word in body for word in ("slot", "judi", "comming", "sorry", "adult", "porn",
                                         "videos", "bonus", "daftar"))


def test_inactive_group_does_nothing(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    group = _group(internet)
    group.active_from = at + timedelta(weeks=100)
    orchestrator = CampaignOrchestrator(internet, [group], ground_truth, orgs)
    assert orchestrator.step(at + timedelta(weeks=1)) == 0
    assert len(ground_truth) == 0


def test_capacity_bounds_weekly_takeovers(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    group = _group(internet)
    group.behavior.weekly_capacity = 2
    orchestrator = CampaignOrchestrator(internet, [group], ground_truth, orgs)
    assert orchestrator.step(at + timedelta(weeks=1)) <= 2


def test_cookie_stealing_sites_feed_darknet(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    group = _group(internet, steals_cookies=True)
    orchestrator = CampaignOrchestrator(internet, [group], ground_truth, orgs)
    week = at + timedelta(weeks=1)
    orchestrator.step(week)
    # A victim user visits a hijacked subdomain with a parent auth cookie.
    from repro.web.cookies import Cookie, CookieJar

    record = ground_truth.all_records()[0]
    parent = ".".join(record.fqdn.split(".")[1:])
    jar = CookieJar()
    jar.set(Cookie(name="session", value="tok", domain=parent, is_authentication=True))
    internet.client.fetch(record.fqdn, at=week,
                          headers={"X-Client-IP": "203.0.113.9"}, cookie_jar=jar)
    orchestrator.step(week + timedelta(weeks=1))
    leaks = [leak for leak in internet.darknet.all_leaks() if leak.domain == record.fqdn]
    assert leaks
    assert leaks[0].cookie.is_authentication
    assert leaks[0].victim_ip == "203.0.113.9"


def test_certificates_issued_for_some_hijacks(staged):
    internet, orgs, at = staged
    ground_truth = GroundTruthLog()
    group = _group(internet, certificate_rate=1.0)
    orchestrator = CampaignOrchestrator(internet, [group], ground_truth, orgs)
    orchestrator.step(at + timedelta(weeks=1))
    single_san = [e for e in internet.ct_log.entries() if e.certificate.is_single_san]
    hijacked = set(ground_truth.hijacked_fqdns())
    fraudulent = [
        e for e in single_san
        if any(e.certificate.matches(f) for f in hijacked)
        and e.logged_at >= at
    ]
    assert fraudulent
