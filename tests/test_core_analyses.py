"""Tests for the analysis modules against the shared tiny scenario."""

from repro.cloud.specs import NamingPolicy
from repro.core import (
    abuse_volume,
    cert_analysis,
    clustering,
    cookie_analysis,
    duration,
    growth,
    identifiers as identifiers_mod,
    malware_analysis,
    provider_analysis,
    registrar_analysis,
    reputation,
    scoring,
    seo_analysis,
    victimology,
)
from repro.world.organizations import OrgKind


def test_ground_truth_exists(tiny_result):
    assert len(tiny_result.ground_truth) > 5
    assert len(tiny_result.dataset) > 5


def test_scoring_high_quality(tiny_result):
    score = scoring.score_detector(tiny_result.dataset, tiny_result.ground_truth)
    assert score.precision >= 0.9
    assert score.recall >= 0.7
    assert score.f1 > 0.8


def test_growth_series_monotonic(tiny_result):
    points = growth.growth_series(tiny_result.collector, tiny_result.dataset)
    monitored = [p.monitored for p in points]
    assert monitored == sorted(monitored)
    cumulative = [p.cumulative_abused for p in points]
    assert cumulative == sorted(cumulative)
    assert growth.growth_factor(points) >= 1.0


def test_victimology_consistency(tiny_result):
    report = victimology.analyze_victims(tiny_result.dataset, tiny_result.organizations)
    assert report.abused_fqdns == len(tiny_result.dataset)
    assert report.sld_level_abuses + report.subdomain_abuses == report.abused_fqdns
    assert report.abused_slds <= report.abused_fqdns
    assert report.affected_tlds >= 1
    assert sum(c for _, c in report.tld_counts) <= report.abused_fqdns
    assert 0.0 <= report.fortune500_share <= 1.0


def test_top_victims_sorted(tiny_result):
    top = victimology.top_victims(tiny_result.dataset, tiny_result.organizations, limit=5)
    counts = [count for _, count in top]
    assert counts == sorted(counts, reverse=True)
    enterprises = victimology.top_victims(
        tiny_result.dataset, tiny_result.organizations, kind=OrgKind.ENTERPRISE
    )
    assert all(org.kind == OrgKind.ENTERPRISE for org, _ in enterprises)


def test_provider_analysis_nameable_invariant(tiny_result):
    """The paper's core structural finding: no IP or random-name abuse."""
    report = provider_analysis.analyze_providers(
        tiny_result.dataset, tiny_result.organizations, tiny_result.ground_truth
    )
    assert report.all_abuses_user_nameable
    assert report.freetext_abuses == len(tiny_result.ground_truth)
    assert report.dedicated_ip_abuses == 0
    assert report.random_name_abuses == 0
    table3 = report.table3_rows()
    assert table3
    assert all(row.naming == NamingPolicy.FREETEXT.value for row in table3)
    assert [r.abused for r in table3] == sorted((r.abused for r in table3), reverse=True)


def test_monitored_ge_abused_per_service(tiny_result):
    report = provider_analysis.analyze_providers(
        tiny_result.dataset, tiny_result.organizations
    )
    for row in report.rows:
        assert row.abused <= row.monitored


def test_duration_report(tiny_result):
    report = duration.analyze_durations(tiny_result.dataset, tiny_result.end)
    assert report.total >= len(tiny_result.dataset)
    assert report.short_lived + report.medium + report.long_lived == report.total
    bins = report.histogram()
    assert sum(count for _, count in bins) == report.total


def test_time_frames_sorted(tiny_result):
    frames = duration.hijack_time_frames(tiny_result.dataset, tiny_result.end)
    starts = [start for _, start, _ in frames]
    assert starts == sorted(starts)


def test_registrar_diversity(tiny_result):
    report = registrar_analysis.analyze_registrar_diversity(
        tiny_result.dataset, tiny_result.internet.whois
    )
    if report.multi_domain_clusters:
        assert report.share_spanning_2plus > 0.5
        curve = report.curve()
        shares = [share for _, share in curve]
        assert shares == sorted(shares, reverse=True)


def test_abuse_volume(tiny_result):
    report = abuse_volume.analyze_volume(tiny_result.dataset)
    if report.sites_with_sitemaps:
        assert report.min_files >= 2
        assert report.max_files >= report.average_files
        assert report.estimated_total_kb > 0


def test_identifier_extraction_and_geo(tiny_result):
    imap = identifiers_mod.extract_identifiers(
        tiny_result.dataset, tiny_result.monitor.store
    )
    counts = imap.unique_counts
    assert counts["phones"] > 0
    assert counts["short_links"] > 0
    geo = dict(identifiers_mod.phone_geo_distribution(imap))
    assert geo
    assert max(geo, key=geo.get) == "ID"  # Indonesia dominates (Fig 21)
    orgs = identifiers_mod.ip_organizations(imap, tiny_result.internet.geoip)
    assert all(name != "(unknown)" for name, _ in orgs)


def test_clustering_shape(tiny_result):
    imap = identifiers_mod.extract_identifiers(
        tiny_result.dataset, tiny_result.monitor.store
    )
    report = clustering.cluster_identifiers(imap)
    assert report.cluster_count >= 1
    largest = report.largest
    assert largest.identifier_count >= 2
    sizes = [c.domain_count for c in report.top_by_domains()]
    assert sizes == sorted(sizes, reverse=True)
    # Every clustered domain is an abused domain.
    assert report.covered_domains() <= set(tiny_result.dataset.abused_fqdns())


def test_certificate_analysis(tiny_result):
    report = cert_analysis.analyze_certificates(
        tiny_result.dataset, tiny_result.internet.ct_log
    )
    assert report.single_san_total >= 0
    if report.single_san_total:
        assert report.free_ca_share > 0.5  # free ACME CAs dominate


def test_caa_analysis_bounds(tiny_result):
    report = cert_analysis.analyze_caa(
        tiny_result.dataset, tiny_result.internet.zones, tiny_result.internet.ct_log
    )
    assert 0 <= report.parents_with_caa <= report.parent_domains
    assert report.parents_paid_only <= report.parents_with_caa


def test_malware_report(tiny_result):
    report = tiny_result.harvester.report()
    assert report.predominantly_benign
    assert report.apk_count + report.exe_count == report.total


def test_blacklisting_is_sparse(tiny_result):
    report = malware_analysis.analyze_blacklisting(
        tiny_result.dataset, tiny_result.internet.virustotal, tiny_result.internet.ct_log
    )
    assert report.flagged_share < 0.2  # blacklists barely notice (Fig 19)


def test_cookie_correlation(tiny_result):
    report = cookie_analysis.correlate_cookie_leaks(
        tiny_result.dataset, tiny_result.internet.darknet
    )
    assert report.total == len(report.matched_leaks)
    for leak in report.matched_leaks:
        assert leak.cookie.is_authentication


def test_reputation_report(tiny_result):
    report = reputation.analyze_reputation(
        tiny_result.dataset, tiny_result.internet.whois,
        tiny_result.internet.ct_log, tiny_result.internet.client, tiny_result.end,
    )
    assert report.older_than_year_share > 0.8  # Figure 18's shape
    assert 0.0 <= report.certified_share <= 1.0
    assert report.age_histogram()


def test_seo_analysis(tiny_result):
    report = seo_analysis.analyze_seo(
        tiny_result.dataset, tiny_result.monitor.store,
        tiny_result.internet.client, tiny_result.end,
    )
    assert len(report.profiles) == len(tiny_result.dataset)
    assert report.seo_share > 0.5  # SEO dominates (Section 5.2)
    assert 0.0 <= report.keyword_stuffing_page_rate <= 1.0
    assert report.top_meta_keywords
