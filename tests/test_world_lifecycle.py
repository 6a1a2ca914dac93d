"""Tests for the world lifecycle engine."""

from datetime import datetime, timedelta

import pytest

from repro.sim.rng import RngStreams
from repro.world.ground_truth import GroundTruthLog
from repro.world.internet import Internet
from repro.world.lifecycle import LifecycleConfig, WorldEngine
from repro.world.population import PopulationBuilder, PopulationConfig

T0 = datetime(2020, 1, 6)


def _engine(seed=31, **lifecycle_kwargs):
    internet = Internet(RngStreams(seed))
    builder = PopulationBuilder(internet)
    config = PopulationConfig(n_enterprises=15, n_universities=4, n_government=3, n_popular=10)
    orgs = builder.build(config, T0)
    ground_truth = GroundTruthLog()
    engine = WorldEngine(
        internet, orgs, builder, config, ground_truth,
        LifecycleConfig(**lifecycle_kwargs),
    )
    return internet, orgs, ground_truth, engine


def test_growth_adds_assets():
    internet, orgs, _, engine = _engine(weekly_growth_rate=0.05, weekly_release_rate=0.0)
    before = sum(len(o.assets) for o in orgs)
    at = T0
    for _ in range(10):
        at += timedelta(weeks=1)
        engine.step(at)
    after = sum(len(o.assets) for o in orgs)
    assert after > before


def test_releases_create_dangling_records():
    internet, orgs, _, engine = _engine(
        weekly_release_rate=0.2, purge_on_release_rate=0.0, weekly_growth_rate=0.0
    )
    at = T0
    for _ in range(5):
        at += timedelta(weeks=1)
        engine.step(at)
    dangling = [a for org in orgs for a in org.assets if a.is_dangling]
    assert dangling
    # A dangling record still resolves as a CNAME chain to nowhere.
    sample = next(a for a in dangling if a.kind.value == "cloud-cname")
    result = internet.resolver.resolve_a_with_chain(sample.fqdn)
    assert result.status.value == "NXDOMAIN"
    assert result.cname_chain


def test_purge_on_release_removes_record():
    internet, orgs, _, engine = _engine(
        weekly_release_rate=0.2, purge_on_release_rate=1.0, weekly_growth_rate=0.0
    )
    at = T0
    for _ in range(5):
        at += timedelta(weeks=1)
        engine.step(at)
    assert not [a for org in orgs for a in org.assets if a.is_dangling]
    assert internet.events.counts_by_kind().get("world.dangling", 0) == 0


def test_remediation_follows_hijack():
    internet, orgs, ground_truth, engine = _engine(
        weekly_release_rate=0.3, purge_on_release_rate=0.0, weekly_growth_rate=0.0
    )
    at = T0 + timedelta(weeks=1)
    engine.step(at)
    dangling = [a for org in orgs for a in org.assets
                if a.is_dangling and a.kind.value == "cloud-cname"]
    assert dangling
    asset = dangling[0]
    # Simulate an attacker takeover by registering the ground truth.
    from repro.cloud.specs import spec_by_key

    provider = internet.catalog.provider(spec_by_key(asset.service_key).provider)
    resource = provider.provision(
        asset.service_key, asset.resource.name, owner="attacker:test",
        at=at, region=asset.resource.region,
    )
    record = ground_truth.record_takeover(asset, "test", resource, at)
    # Step far enough for any remediation bucket to trigger.
    for _ in range(130):
        at += timedelta(weeks=1)
        engine.step(at)
    assert record.remediated_at is not None
    assert asset.purged_at is not None
    assert record.duration_days() > 0


def test_redesigns_change_content():
    internet, orgs, _, engine = _engine(
        weekly_redesign_rate=1.0, weekly_release_rate=0.0, weekly_growth_rate=0.0
    )
    target = next(
        (o, a) for o in orgs for a in o.assets
        if a.resource is not None and a.resource.active
    )
    org, asset = target
    before = asset.resource.site.get("/")
    engine.step(T0 + timedelta(weeks=1))
    after = asset.resource.site.get("/")
    assert before != after


def test_parked_rotation_is_collective():
    # Seed 33 is known to draw at least one parked popular site.
    internet, orgs, _, engine = _engine(
        seed=33, weekly_release_rate=0.0, weekly_growth_rate=0.0
    )
    parked = [o for o in orgs if o.is_parked]
    assert parked, "seed 33 should produce parked orgs"
    at = T0
    for _ in range(9):  # crosses one rotation boundary
        at += timedelta(weeks=1)
        engine.step(at)
    # All parked orgs' active resources show the same campaign content.
    bodies = set()
    for org in parked:
        for asset in org.assets:
            resource = asset.resource
            if resource is not None and resource.active:
                body = resource.site.get("/")
                if body:
                    bodies.add(body.split("Sponsored results:")[-1][:40])
    assert len(bodies) <= 1 or len(parked) <= 1
