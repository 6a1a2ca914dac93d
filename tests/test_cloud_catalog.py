"""Tests for multi-provider catalog assembly."""

from repro.cloud.specs import NamingPolicy


def test_catalog_has_all_providers(internet):
    catalog = internet.catalog
    for name in ("Azure", "AWS", "Heroku", "Pantheon", "Netlify",
                 "Google Cloud", "Cloudflare"):
        assert catalog.provider(name).name == name


def test_cloud_ip_union_covers_provider_pools(internet):
    catalog = internet.catalog
    for provider in catalog.providers.values():
        for edge in provider.edges:
            assert edge.ip in catalog.cloud_ips


def test_suffix_list_matches_specs(internet):
    assert "azurewebsites.net" in internet.catalog.suffixes
    assert "netlify.app" in internet.catalog.suffixes


def test_geoip_annotates_provider_space(internet):
    azure_edge_ip = internet.catalog.provider("Azure").edges[0].ip
    assert internet.catalog.geoip.organization_of(azure_edge_ip) == "Azure"


def test_some_edges_drop_icmp(internet):
    """edge_icmp_drop_rate=0.28 should leave a mix of edge behaviours."""
    edges = []
    for provider in internet.catalog.providers.values():
        edges.extend(provider.edges)
    behaviours = {edge.responds_to_icmp() for edge in edges}
    assert behaviours == {True, False}
