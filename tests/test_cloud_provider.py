"""Tests for provider mechanics: the heart of the hijack."""

from datetime import datetime, timedelta

import pytest

from repro.cloud.provider import CustomDomainError, ProvisioningError, ReleaseError
from repro.cloud.resources import ResourceStatus
from repro.dns.records import RRType, ResourceRecord
from repro.web.site import StaticSite

T0 = datetime(2020, 1, 6)
T1 = datetime(2020, 6, 1)
T2 = datetime(2020, 6, 8)


@pytest.fixture()
def azure(internet):
    return internet.catalog.provider("Azure")


def test_provision_creates_record_and_route(internet, azure):
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    assert resource.generated_fqdn == "shop.azurewebsites.net"
    result = internet.resolver.resolve_a_with_chain("shop.azurewebsites.net")
    assert result.ok and result.addresses == [resource.ip]
    assert resource.active and not azure.is_name_available("azure-web-app", "shop")


def test_name_collision_rejected(azure):
    azure.provision("azure-web-app", "shop", owner="a", at=T0)
    with pytest.raises(ProvisioningError):
        azure.provision("azure-web-app", "shop", owner="b", at=T0)


def test_release_purges_provider_state_only(internet, azure):
    org_zone = internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    org_zone.add(
        ResourceRecord("shop.acme.com", RRType.CNAME, resource.generated_fqdn), T0
    )
    azure.add_custom_domain(resource, "shop.acme.com", T0)
    azure.release(resource, T1)
    assert resource.status == ResourceStatus.RELEASED
    # Provider-side name is gone...
    assert not internet.resolver.resolve_a_with_chain("shop.azurewebsites.net").ok
    # ...but the customer's CNAME now dangles, pointing into the void.
    result = internet.resolver.resolve_a_with_chain("shop.acme.com")
    assert result.status.value == "NXDOMAIN"
    assert "shop.azurewebsites.net" in result.cname_chain


def test_release_twice_rejected(azure):
    resource = azure.provision("azure-web-app", "x", owner="a", at=T0)
    azure.release(resource, T1)
    with pytest.raises(ReleaseError):
        azure.release(resource, T1)


def test_released_name_is_immediately_reregistrable(azure):
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    azure.release(resource, T1)
    assert azure.is_name_available("azure-web-app", "shop", T1)
    stolen = azure.provision("azure-web-app", "shop", owner="attacker:g1", at=T2)
    assert stolen.generated_fqdn == resource.generated_fqdn
    assert stolen.owner == "attacker:g1"


def test_reregistration_cooldown_blocks_fast_takeover(internet):
    from repro.sim.rng import RngStreams
    from repro.world.internet import Internet

    world = Internet(RngStreams(11), reregistration_cooldown=timedelta(days=30))
    azure = world.catalog.provider("Azure")
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    azure.release(resource, T1)
    assert not azure.is_name_available("azure-web-app", "shop", T1 + timedelta(days=5))
    assert azure.is_name_available("azure-web-app", "shop", T1 + timedelta(days=31))


def test_randomize_names_countermeasure():
    from repro.sim.rng import RngStreams
    from repro.world.internet import Internet

    world = Internet(RngStreams(12), randomize_names=True)
    azure = world.catalog.provider("Azure")
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    assert resource.name != "shop"
    assert len(resource.name) >= 12


def test_custom_domain_requires_cname_proof(internet, azure):
    internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    with pytest.raises(CustomDomainError):
        azure.add_custom_domain(resource, "shop.acme.com", T0)  # no CNAME yet


def test_custom_domain_verification_passes_for_dangling_record(internet, azure):
    """The attacker's alias step: the victim's dangling CNAME *is* the proof."""
    org_zone = internet.zones.create_zone("acme.com")
    victim = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    org_zone.add(ResourceRecord("shop.acme.com", RRType.CNAME, victim.generated_fqdn), T0)
    azure.release(victim, T1)
    hijack = azure.provision("azure-web-app", "shop", owner="attacker:g1", at=T2)
    azure.add_custom_domain(hijack, "shop.acme.com", T2)
    assert "shop.acme.com" in hijack.custom_domains
    outcome = internet.client.fetch("shop.acme.com", at=T2)
    assert outcome.ok  # requests for the victim domain now reach the attacker


def test_dedicated_ip_lifecycle(internet):
    aws = internet.catalog.provider("AWS")
    resource = aws.provision("aws-ec2-ip", "vm1", owner="org:acme", at=T0)
    assert resource.ip
    assert internet.network.host_at(resource.ip) is not None
    aws.release(resource, T1)
    assert internet.network.host_at(resource.ip) is None
    assert not aws.pool.is_allocated(resource.ip)


def test_random_name_service_ignores_requested_label(internet):
    gcp = internet.catalog.provider("Google Cloud")
    resource = gcp.provision("gcp-appspot", "wanted-name", owner="org:acme", at=T0)
    assert "wanted-name" not in resource.generated_fqdn


def test_replace_site_reroutes_everything(internet, azure):
    org_zone = internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", "shop", owner="org:acme", at=T0)
    org_zone.add(ResourceRecord("shop.acme.com", RRType.CNAME, resource.generated_fqdn), T0)
    azure.add_custom_domain(resource, "shop.acme.com", T0)
    new_site = StaticSite()
    new_site.put_index("replaced")
    azure.replace_site(resource, new_site)
    assert internet.client.fetch("shop.acme.com", at=T0).response.body == "replaced"
    assert internet.client.fetch("shop.azurewebsites.net", at=T0).response.body == "replaced"


def test_events_recorded(internet, azure):
    resource = azure.provision("azure-web-app", "e1", owner="org:a", at=T0)
    azure.release(resource, T1)
    kinds = internet.events.counts_by_kind()
    assert kinds.get("cloud.provision", 0) >= 1
    assert kinds.get("cloud.release", 0) >= 1
