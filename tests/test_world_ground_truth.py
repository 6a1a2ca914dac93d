"""Tests for the ground-truth hijack log."""

from datetime import datetime, timedelta

import pytest

from repro.cloud.specs import spec_by_key
from repro.cloud.resources import CloudResource
from repro.world.ground_truth import GroundTruthLog
from repro.world.organizations import Asset, AssetKind

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 4, 6)


def _asset(fqdn="app.acme.com"):
    return Asset(fqdn=fqdn, kind=AssetKind.CLOUD_CNAME, org_key="acme", created_at=T0)


def _resource():
    return CloudResource(
        spec=spec_by_key("azure-web-app"), name="app", owner="attacker:g1", created_at=T0
    )


def test_record_and_query():
    log = GroundTruthLog()
    record = log.record_takeover(_asset(), "g1", _resource(), T0)
    assert log.records_for("app.acme.com") == [record]
    assert log.hijacked_fqdns() == ["app.acme.com"]
    assert log.active_records() == [record]
    assert len(log) == 1


def test_remediation_closes_record():
    log = GroundTruthLog()
    log.record_takeover(_asset(), "g1", _resource(), T0)
    log.mark_remediated("app.acme.com", T1)
    assert log.active_records() == []
    record = log.records_for("app.acme.com")[0]
    assert record.remediated_at == T1
    assert record.duration_days() == pytest.approx(91.0, abs=1.0)


def test_duration_of_open_record_requires_now():
    log = GroundTruthLog()
    record = log.record_takeover(_asset(), "g1", _resource(), T0)
    with pytest.raises(ValueError):
        record.duration_days()
    assert record.duration_days(now=T0 + timedelta(days=10)) == pytest.approx(10.0)


def test_repeat_hijack_of_same_fqdn():
    log = GroundTruthLog()
    log.record_takeover(_asset(), "g1", _resource(), T0)
    log.mark_remediated("app.acme.com", T1)
    log.record_takeover(_asset(), "g2", _resource(), T1 + timedelta(days=30))
    assert len(log.records_for("app.acme.com")) == 2
    assert len(log.active_records()) == 1
