"""Tests for S3-style wildcard DNS and Internet assembly."""

from datetime import datetime, timedelta

from repro.dns.records import RRType
from repro.sim.rng import RngStreams
from repro.world.internet import ATTACKER_HOSTING_RANGES, Internet

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 4, 6)


def test_wildcard_resolves_unprovisioned_bucket_names(internet):
    """Any name under the S3 website suffix resolves — provisioned or not."""
    result = internet.resolver.resolve_a_with_chain(
        "never-created.s3-website.us-east-1.amazonaws.com"
    )
    assert result.ok
    # ...but HTTP answers with the provider 404 fingerprint.
    outcome = internet.client.fetch(
        "never-created.s3-website.us-east-1.amazonaws.com", at=T0
    )
    assert outcome.ok
    assert outcome.response.status == 404
    assert outcome.response.headers.get("X-Provider") == "AWS"


def test_deleted_bucket_keeps_resolving(internet):
    aws = internet.catalog.provider("AWS")
    bucket = aws.provision("aws-s3-static", "my-bucket", owner="org:x", at=T0,
                           region="us-east-1")
    bucket.site.put_index("<html><body>bucket</body></html>")
    assert internet.client.fetch(bucket.generated_fqdn, at=T0).response.ok
    aws.release(bucket, T1)
    result = internet.resolver.resolve_a_with_chain(bucket.generated_fqdn)
    assert result.ok  # wildcard still answers
    outcome = internet.client.fetch(bucket.generated_fqdn, at=T1)
    assert outcome.response.status == 404


def test_wildcard_does_not_leak_into_other_suffixes(internet):
    result = internet.resolver.resolve_a_with_chain("ghost.azurewebsites.net")
    assert not result.ok  # azurewebsites has no wildcard


def test_exact_record_shadows_wildcard(internet):
    aws = internet.catalog.provider("AWS")
    bucket = aws.provision("aws-s3-static", "real-bucket", owner="org:x", at=T0,
                           region="eu-west-1")
    # The provisioned name resolves to the same regional wildcard edge.
    result = internet.resolver.resolve_a_with_chain(bucket.generated_fqdn)
    assert result.addresses == [bucket.ip]


def test_internet_has_five_cas(internet):
    names = set(internet.cas)
    assert {"Let's Encrypt", "ZeroSSL", "DigiCert"} <= names
    assert internet.cas["DigiCert"].free is False
    assert internet.cas["Let's Encrypt"].free is True


def test_attacker_hosting_ranges_annotated(internet):
    for organization, country, cidr in ATTACKER_HOSTING_RANGES:
        sample_ip = cidr.split("/")[0].rsplit(".", 1)[0] + ".7"
        assert internet.geoip.organization_of(sample_ip) == organization
        assert internet.geoip.country_of(sample_ip) == country


def test_two_internets_are_independent():
    a = Internet(RngStreams(1))
    b = Internet(RngStreams(1))
    azure_a = a.catalog.provider("Azure")
    azure_a.provision("azure-web-app", "only-in-a", owner="x", at=T0)
    assert not azure_a.is_name_available("azure-web-app", "only-in-a")
    assert b.catalog.provider("Azure").is_name_available("azure-web-app", "only-in-a")
