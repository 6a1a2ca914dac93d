"""Tests for clustering helpers: co-occurrence edges and DOT export."""

from repro.core.clustering import (
    cluster_identifiers,
    cooccurrence_edges,
    cooccurrence_to_dot,
)
from repro.core.identifiers import IdentifierMap


def _map():
    imap = IdentifierMap()
    imap.phones["+62812000111"] = {"a.x.com", "b.y.com"}
    imap.socials["t.me/slotwin1"] = {"a.x.com", "b.y.com", "c.z.com"}
    imap.short_links["https://sh.rt/abc"] = {"c.z.com"}
    imap.ips["141.98.1.1"] = {"d.q.com"}
    return imap


def test_cooccurrence_edges_count_shared_domains():
    edges = cooccurrence_edges(_map())
    lookup = {(a, b): n for a, b, n in edges}
    assert lookup[("+62812000111", "t.me/slotwin1")] == 2
    assert ("141.98.1.1", "+62812000111") not in lookup  # disjoint pair


def test_clustering_isolates_disconnected_identifier():
    report = cluster_identifiers(_map())
    singleton = [c for c in report.clusters if c.identifiers == ("141.98.1.1",)]
    assert singleton
    assert any(c.identifier_count <= 2 for c in report.clusters)


def test_dot_export_structure():
    dot = cooccurrence_to_dot(_map())
    assert dot.startswith("graph attacker_infrastructure {")
    assert dot.rstrip().endswith("}")
    assert '"+62812000111" [color=green' in dot
    assert '"141.98.1.1" [color=red' in dot
    assert '"https://sh.rt/abc" [color=blue' in dot
    assert '"+62812000111" -- "t.me/slotwin1" [penwidth=2]' in dot


def test_dot_export_on_real_world(tiny_result):
    from repro.core.identifiers import extract_identifiers

    imap = extract_identifiers(tiny_result.dataset, tiny_result.monitor.store)
    dot = cooccurrence_to_dot(imap)
    assert dot.count("--") == len(cooccurrence_edges(imap))
