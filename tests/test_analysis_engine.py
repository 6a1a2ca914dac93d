"""Tests for the analysis engine (registry, isolation, export) and the
analysis-layer bugfix regressions that shipped with it."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import pytest

from repro.analysis import (
    AnalysisRegistry,
    AnalysisTask,
    default_registry,
    default_tasks,
    DEFAULT_SECTIONS,
    report_json,
    run_analyses,
)
from repro.core.clustering import (
    cluster_identifiers,
    cooccurrence_edges,
    cooccurrence_edges_naive,
)
from repro.core.duration import concurrent_hijacks
from repro.core.identifiers import IdentifierMap
from repro.core.paper_report import build_report
from repro.core.seo_analysis import (
    SiteSeoProfile,
    _classify_from_store,
    _classify_page,
    _referral_code,
)
from repro.obs import OBS, MetricsRegistry, is_cache_state
from repro.web.html import parse_html

T0 = datetime(2020, 3, 2)


# -- registry --------------------------------------------------------------


def test_registry_rejects_duplicate_names():
    task = AnalysisTask("a", lambda result, deps: 1)
    registry = AnalysisRegistry([task])
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(AnalysisTask("a", lambda result, deps: 2))


def test_registry_rejects_unregistered_dependency():
    with pytest.raises(ValueError, match="not\n?.*registered|registered"):
        AnalysisRegistry([AnalysisTask("b", lambda result, deps: 1, deps=("a",))])


def test_registry_preserves_order_and_topology():
    registry = default_registry()
    names = registry.names()
    assert len(names) == len(set(names))
    seen = set()
    for task in registry:
        assert all(dep in seen for dep in task.deps), task.name
        seen.add(task.name)


def test_sections_reference_registered_tasks_only():
    registry = default_registry()
    for section in DEFAULT_SECTIONS:
        for name in section.tasks:
            assert name in registry, (section.name, name)


# -- engine execution ------------------------------------------------------


def _stub_registry():
    return AnalysisRegistry([
        AnalysisTask("base", lambda result, deps: 10),
        AnalysisTask("double", lambda result, deps: deps["base"] * 2,
                     deps=("base",)),
        AnalysisTask("other", lambda result, deps: result.tag),
    ])


def test_engine_serial_passes_dependency_payloads():
    run = run_analyses(SimpleNamespace(tag="x"), registry=_stub_registry())
    assert [o.task for o in run.outcomes] == ["base", "double", "other"]
    assert run.payload("double") == 20
    assert run.payload("other") == "x"
    assert not run.failed


def test_engine_isolates_task_failure_and_skips_downstream():
    def explode(result, deps):
        raise RuntimeError("boom")

    registry = AnalysisRegistry([
        AnalysisTask("base", explode),
        AnalysisTask("double", lambda result, deps: deps["base"] * 2,
                     deps=("base",)),
        AnalysisTask("other", lambda result, deps: 42),
    ])
    run = run_analyses(SimpleNamespace(), registry=registry)
    base = run.outcome("base")
    assert not base.ok and base.error == "RuntimeError: boom"
    skipped = run.outcome("double")
    assert not skipped.ok and "upstream" in skipped.error
    assert run.payload("other") == 42


def test_report_json_parity_and_schema(tiny_result):
    # Same finished world, same bytes: a repeat run exports identically.
    first = report_json(run_analyses(tiny_result), tiny_result)
    assert first == report_json(run_analyses(tiny_result), tiny_result)
    exported = json.loads(first)
    assert exported["schema"] == "repro.analysis.report/1"
    assert exported["seed"] == tiny_result.config.seed
    assert set(exported["analyses"]) == set(default_registry().names())
    assert all(entry["ok"] for entry in exported["analyses"].values())


def test_failed_analysis_degrades_to_error_section(tiny_result):
    def explode(result, deps):
        raise ValueError("synthetic failure")

    tasks = [
        dataclasses.replace(task, run=explode)
        if task.name == "certificates" else task
        for task in default_tasks()
    ]
    run = run_analyses(tiny_result, registry=AnalysisRegistry(tasks))
    report = build_report(tiny_result, run=run)
    assert "[analysis failed: task 'certificates' — ValueError: synthetic failure]" in report
    # Every other section still renders.
    assert "Victimology (Section 4.1" in report
    assert "Attribution (Section 6" in report
    assert "Reputation & certificates" in report  # the error stanza's title


def test_engine_metrics_count_every_task(tiny_result):
    # Cache-state series are out: the first run warms the finished
    # world's memos, so a repeat run finds them warm.
    def counters():
        registry = MetricsRegistry()
        OBS.configure(metrics=registry)
        try:
            run_analyses(tiny_result)
        finally:
            OBS.reset()
        return {
            key: value
            for key, value in registry.counters().items()
            if not is_cache_state(key)
        }

    first = counters()
    assert first == counters()
    assert first.get("analysis.tasks_ok") == len(default_registry())
    assert first.get("analysis.clustering.ok") == 1


def test_run_analyses_leaves_the_passive_dns_feed_as_it_found_it(tiny_result):
    # Analyses resolve names through the finished world's resolver, and
    # the feed they would write into is the one the report reads.
    def feed_digest():
        feed = tiny_result.internet.passive_dns
        return repr(sorted(
            (key, obs.first_seen, obs.last_seen, obs.count)
            for key, obs in feed._observations.items()
        ))

    before = feed_digest()
    run_analyses(tiny_result)
    assert feed_digest() == before
    assert tiny_result.internet.resolver.passive_dns is tiny_result.internet.passive_dns


# -- cooccurrence postings rewrite -----------------------------------------


def _random_identifier_map(rng: random.Random) -> IdentifierMap:
    imap = IdentifierMap()
    domains = [f"d{i:02d}.x.com" for i in range(rng.randint(4, 40))]
    buckets = [imap.phones, imap.socials, imap.short_links, imap.ips]
    for serial in range(rng.randint(2, 60)):
        bucket = rng.choice(buckets)
        count = rng.randint(1, min(6, len(domains)))
        bucket[f"id{serial:03d}"] = set(rng.sample(domains, count))
    return imap


def test_cooccurrence_postings_equal_naive_on_random_maps():
    for seed in range(10):
        imap = _random_identifier_map(random.Random(seed))
        assert cooccurrence_edges(imap) == cooccurrence_edges_naive(imap), seed


def test_cooccurrence_postings_equal_naive_on_real_world(tiny_result):
    from repro.core.identifiers import extract_identifiers

    imap = extract_identifiers(tiny_result.dataset, tiny_result.monitor.store)
    assert cooccurrence_edges(imap) == cooccurrence_edges_naive(imap)


# -- bugfix regressions ----------------------------------------------------


def test_referral_code_reads_the_actual_ref_parameter():
    assert _referral_code("https://aff.example/lp?ref=abc&href=/x") == "abc"
    assert _referral_code("/go?utm=1&ref=zz77") == "zz77"
    # pref=/href= used to poison the split("ref=") extraction.
    assert _referral_code("https://aff.example/lp?pref=nope") is None
    assert _referral_code("https://aff.example/lp?href=/x") is None
    assert _referral_code("https://aff.example/plain") is None
    assert _referral_code("https://aff.example/lp?ref=") is None


def test_store_path_extracts_clean_referral_codes():
    features = SimpleNamespace(
        reachable=True, has_meta_keywords=False, meta_keywords=(),
        onclick_count=0, lang="en",
        external_urls=[
            "https://aff.example/lp?ref=CODE1&href=/landing",
            "https://aff.example/lp?pref=NOISE",
        ],
    )
    state = SimpleNamespace(first_seen=T0 + timedelta(days=1), features=features)
    record = SimpleNamespace(
        fqdn="shop.victim.example",
        episodes=[SimpleNamespace(started_at=T0, ended_at=None)],
    )
    store = SimpleNamespace(history=lambda fqdn: [state])
    profile = SiteSeoProfile(fqdn=record.fqdn)
    _classify_from_store(profile, store, record, Counter())
    assert profile.doorway
    assert profile.referral_codes == {"CODE1"}


def test_crawl_path_extracts_clean_referral_codes():
    document = parse_html(
        '<html><body>'
        '<a href="https://aff.example/lp?ref=abc&href=/x">deal</a>'
        '</body></html>'
    )
    profile = SiteSeoProfile(fqdn="shop.victim.example")
    _classify_page(profile, document, Counter())
    assert profile.doorway
    assert profile.referral_codes == {"abc"}


def test_relative_links_count_toward_link_network():
    anchors = "".join(f'<a href="/doorway/{i}.html">p{i}</a>' for i in range(5))
    document = parse_html(f"<html><body>{anchors}</body></html>")
    profile = SiteSeoProfile(fqdn="farm.victim.example")
    _classify_page(profile, document, Counter())
    assert profile.link_network


def test_offsite_absolute_links_do_not_count_as_internal():
    anchors = "".join(
        f'<a href="https://other{i}.example/x">o{i}</a>' for i in range(5)
    )
    document = parse_html(f"<html><body>{anchors}</body></html>")
    profile = SiteSeoProfile(fqdn="farm.victim.example")
    _classify_page(profile, document, Counter())
    assert not profile.link_network


def test_concurrent_hijacks_empty_and_validation():
    dataset = SimpleNamespace(records=lambda: [])
    assert concurrent_hijacks(dataset, []) == []
    with pytest.raises(ValueError, match="naive"):
        concurrent_hijacks(dataset, [datetime(2020, 3, 2, tzinfo=timezone.utc)])


def test_concurrent_hijacks_accepts_unsorted_instants():
    record = SimpleNamespace(
        fqdn="a.x.com",
        episodes=[SimpleNamespace(
            started_at=T0, ended_at=T0 + timedelta(days=50),
        )],
    )
    dataset = SimpleNamespace(records=lambda: [record])
    instants = [T0 + timedelta(days=d) for d in (70, 10, 30)]  # unsorted
    counts = concurrent_hijacks(dataset, instants)
    assert [instant for instant, _ in counts] == sorted(instants)
    assert dict(counts) == {
        T0 + timedelta(days=10): 1,
        T0 + timedelta(days=30): 1,
        T0 + timedelta(days=70): 0,
    }


def test_dendrogram_merges_record_canonical_representatives():
    imap = IdentifierMap()
    # Sorted names map to indices 0..5.  Distances force the merge
    # order (0,5) then (3,5) then (1,3); the third merge joins index 1
    # to the {0,3,5} component whose union-find root is 3 but whose
    # canonical representative is 0.
    imap.phones["id0"] = {"d01", "d02"}
    imap.phones["id5"] = {"d01", "d02", "d03"}
    imap.socials["id3"] = {"d03", "d04", "d05", "d06"}
    imap.ips["id1"] = {"d06", "d07", "d08", "d09", "d10", "d11"}
    imap.short_links["id2"] = {"lonely-a"}
    imap.short_links["id4"] = {"lonely-b"}
    report = cluster_identifiers(imap)
    shape = [(m.left, m.right, m.size) for m in report.merges]
    assert shape == [(0, 5, 2), (3, 0, 3), (1, 0, 4)]
    # Every recorded label is the smallest member of its component at
    # merge time — never a bare union-find root.
    assert all(m.left != 3 for m in report.merges[2:])
    big = max(report.clusters, key=lambda c: c.identifier_count)
    assert set(big.identifiers) == {"id0", "id1", "id3", "id5"}


def test_dendrogram_merge_sequence_deterministic(tiny_result):
    from repro.core.identifiers import extract_identifiers

    imap = extract_identifiers(tiny_result.dataset, tiny_result.monitor.store)
    first = cluster_identifiers(imap)
    second = cluster_identifiers(imap)
    assert first.merges == second.merges


# -- CLI wiring ------------------------------------------------------------


def test_report_cli_writes_report_json(tmp_path, capsys):
    from repro.cli import main

    json_path = tmp_path / "report.json"
    code = main([
        "report", "--scale", "tiny", "--weeks", "2",
        "--report-json", str(json_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ABUSE MEASUREMENT REPORT" in out
    exported = json.loads(json_path.read_text())
    assert exported["schema"] == "repro.analysis.report/1"
