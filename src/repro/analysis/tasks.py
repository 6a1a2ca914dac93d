"""The paper's Section 4–6 analyses as declarative engine tasks.

One :class:`~repro.analysis.engine.AnalysisTask` per analysis — the
same ~20 computations behind the paper's figures that
``paper_report.build_report`` used to run inline — plus the
:class:`ReportSection` table that composes task payloads back into the
report's rendered sections.  Tasks are pure functions of the finished
scenario (and their declared upstream payloads), so the engine runs
them in registry order over the finished world.

The only task-graph edges today: ``clustering`` and ``cooccurrence``
both consume the ``identifiers`` payload, so the identifier extraction
scan over the snapshot store runs exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.engine import AnalysisRegistry, AnalysisRun, AnalysisTask
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
from repro.core.ct_monitoring import evaluate_ct_monitoring
from repro.core.detection import indicator_breakdown, topic_breakdown
from repro.core.reporting import percent, render_table
from repro.core.seo_analysis import table1_index_keywords


# -- task run functions ----------------------------------------------------
# Each takes (result, deps) and returns a picklable payload.


def _run_scoring(result, deps):
    return scoring.score_detector(result.dataset, result.ground_truth)


def _run_growth(result, deps):
    return growth.growth_series(result.collector, result.dataset)


def _run_indicators(result, deps):
    return indicator_breakdown(result.dataset)


def _run_topics(result, deps):
    return topic_breakdown(result.dataset)


def _run_table1_keywords(result, deps):
    return table1_index_keywords(result.dataset)


def _run_victimology(result, deps):
    return victimology.analyze_victims(result.dataset, result.organizations)


def _run_providers(result, deps):
    return provider_analysis.analyze_providers(
        result.dataset, result.organizations, result.ground_truth
    )


def _run_durations(result, deps):
    return duration.analyze_durations(result.dataset, result.end)


def _run_seo(result, deps):
    return seo_analysis.analyze_seo(
        result.dataset, result.monitor.store, result.internet.client, result.end
    )


def _run_volume(result, deps):
    return abuse_volume.analyze_volume(result.dataset)


def _run_reputation(result, deps):
    internet = result.internet
    return reputation.analyze_reputation(
        result.dataset, internet.whois, internet.ct_log, internet.client, result.end
    )


def _run_certificates(result, deps):
    return cert_analysis.analyze_certificates(result.dataset, result.internet.ct_log)


def _run_caa(result, deps):
    internet = result.internet
    return cert_analysis.analyze_caa(result.dataset, internet.zones, internet.ct_log)


def _run_ct_monitoring(result, deps):
    return evaluate_ct_monitoring(result.ground_truth, result.internet.ct_log)


def _run_malware(result, deps):
    return result.harvester.report() if result.harvester else None


def _run_cookies(result, deps):
    return cookie_analysis.correlate_cookie_leaks(
        result.dataset, result.internet.darknet
    )


def _run_blacklist(result, deps):
    internet = result.internet
    return malware_analysis.analyze_blacklisting(
        result.dataset, internet.virustotal, internet.ct_log
    )


def _run_registrars(result, deps):
    return registrar_analysis.analyze_registrar_diversity(
        result.dataset, result.internet.whois
    )


def _run_identifiers(result, deps):
    return identifiers_mod.extract_identifiers(result.dataset, result.monitor.store)


def _run_clustering(result, deps):
    return clustering.cluster_identifiers(deps["identifiers"])


def _run_cooccurrence(result, deps):
    return clustering.cooccurrence_edges(deps["identifiers"])


def _run_monetization(result, deps):
    if result.monetization is None or not len(result.monetization.ledger):
        return None
    return result.monetization.ledger.payouts()


def default_tasks() -> List[AnalysisTask]:
    """Fresh task objects for the full paper report (registry order)."""
    return [
        AnalysisTask("scoring", _run_scoring, inputs=("dataset", "ground_truth")),
        AnalysisTask("growth", _run_growth, inputs=("collector", "dataset")),
        AnalysisTask("indicators", _run_indicators, inputs=("dataset",)),
        AnalysisTask("topics", _run_topics, inputs=("dataset",)),
        AnalysisTask("table1_keywords", _run_table1_keywords, inputs=("dataset",)),
        AnalysisTask("victimology", _run_victimology,
                     inputs=("dataset", "organizations")),
        AnalysisTask("providers", _run_providers,
                     inputs=("dataset", "organizations", "ground_truth")),
        AnalysisTask("durations", _run_durations, inputs=("dataset",)),
        AnalysisTask("seo", _run_seo, inputs=("dataset", "monitor", "internet")),
        AnalysisTask("volume", _run_volume, inputs=("dataset",)),
        AnalysisTask("reputation", _run_reputation, inputs=("dataset", "internet")),
        AnalysisTask("certificates", _run_certificates,
                     inputs=("dataset", "internet")),
        AnalysisTask("caa", _run_caa, inputs=("dataset", "internet")),
        AnalysisTask("ct_monitoring", _run_ct_monitoring,
                     inputs=("ground_truth", "internet")),
        AnalysisTask("malware", _run_malware, inputs=("harvester",)),
        AnalysisTask("cookies", _run_cookies, inputs=("dataset", "internet")),
        AnalysisTask("blacklist", _run_blacklist, inputs=("dataset", "internet")),
        AnalysisTask("registrars", _run_registrars, inputs=("dataset", "internet")),
        AnalysisTask("identifiers", _run_identifiers, inputs=("dataset", "monitor")),
        AnalysisTask("clustering", _run_clustering, deps=("identifiers",)),
        AnalysisTask("cooccurrence", _run_cooccurrence, deps=("identifiers",)),
        AnalysisTask("monetization", _run_monetization, inputs=("monetization",)),
    ]


def default_registry() -> AnalysisRegistry:
    """A fresh registry of every paper analysis."""
    return AnalysisRegistry(default_tasks())


# -- report sections -------------------------------------------------------


@dataclass(frozen=True)
class ReportSection:
    """One rendered report section composed from task payloads.

    ``render`` receives ``{task_name: payload}`` plus the scenario
    result (for run-level facts like the week count) and returns the
    section text, or ``None`` to omit the section.  ``title`` is the
    static heading used when a constituent task failed and the section
    degrades to an error stanza.
    """

    name: str
    title: str
    tasks: Tuple[str, ...]
    render: Callable[[Dict[str, object], object], Optional[str]]


def _render_pipeline(payloads, result):
    score = payloads["scoring"]
    points = payloads["growth"]
    return render_table(
        ["metric", "value"],
        [
            ("weeks simulated", result.weeks_run),
            ("monitored cloud FQDNs", result.collector.monitored_count()),
            ("monitored-set growth", f"x{growth.growth_factor(points):.2f}"),
            ("actual takeovers", len(result.ground_truth)),
            ("abused FQDNs detected", len(result.dataset)),
            ("precision / recall", f"{percent(score.precision)} / {percent(score.recall)}"),
        ],
        title="Pipeline (Section 3, Figure 1)",
    )


def _render_indicators(payloads, result):
    return render_table(
        ["indicator combination", "domains", "share"],
        [(l, c, percent(s)) for l, c, s in payloads["indicators"]],
        title="Detections by indicator type (Figure 2)",
    )


def _render_topics(payloads, result):
    return render_table(
        ["topic", "domains", "share"],
        [(l, c, percent(s)) for l, c, s in payloads["topics"]],
        title="Content topics (Figure 3)",
    )


def _render_table1(payloads, result):
    return render_table(
        ["keyword", "pages"], payloads["table1_keywords"],
        title="Top index keywords (Table 1)",
    )


def _render_victimology(payloads, result):
    victims = payloads["victimology"]
    return render_table(
        ["metric", "value"],
        [
            ("abused FQDNs / SLDs", f"{victims.abused_fqdns} / {victims.abused_slds}"),
            ("SLD-level / subdomain", f"{victims.sld_level_abuses} / {victims.subdomain_abuses}"),
            ("TLDs affected", victims.affected_tlds),
            ("Fortune 500 / Global 500 share",
             f"{percent(victims.fortune500_share)} / {percent(victims.global500_share)}"),
            ("university hijacks", victims.universities_abused),
            ("orgs hit more than once", victims.multi_subdomain_orgs),
        ],
        title="Victimology (Section 4.1, Figures 4/5/7/8/9, Table 6)",
    )


def _render_providers(payloads, result):
    providers = payloads["providers"]
    return render_table(
        ["provider", "abuses"], providers.provider_abuse_counts,
        title=(
            "Providers (Section 4.2, Table 2/3, Figure 11) — "
            f"user-nameable invariant: {providers.all_abuses_user_nameable}"
        ),
    )


def _render_durations(payloads, result):
    durations = payloads["durations"]
    return render_table(
        ["bucket", "episodes", "share"],
        [
            ("<= 15 days", durations.short_lived, percent(durations.short_lived_share)),
            ("16-65 days", durations.medium,
             percent(durations.medium / durations.total if durations.total else 0)),
            ("> 65 days", durations.long_lived, percent(durations.long_lived_share)),
            ("> 1 year", durations.beyond_year, ""),
        ],
        title="Hijack durations (Section 4.4, Figures 15/16)",
    )


def _render_seo_volume(payloads, result):
    seo = payloads["seo"]
    volume = payloads["volume"]
    return render_table(
        ["metric", "value"],
        [
            ("sites with any SEO", percent(seo.seo_share)),
            ("doorway pages (of SEO sites)", percent(seo.doorway_share)),
            ("keyword stuffing (of pages)", percent(seo.keyword_stuffing_page_rate)),
            ("clickjacking sites", seo.clickjacking_sites),
            ("total uploaded files", volume.total_files),
            ("max files on one site", volume.max_files),
        ],
        title="SEO & volume (Section 5.2, Figure 6, Table 5)",
    )


def _render_reputation_certs(payloads, result):
    rep = payloads["reputation"]
    certs = payloads["certificates"]
    caa = payloads["caa"]
    ct = payloads["ct_monitoring"]
    return render_table(
        ["metric", "value"],
        [
            ("abused SLDs older than a year", percent(rep.older_than_year_share)),
            ("abused names with certificates", percent(rep.certified_share)),
            ("single-SAN / multi-SAN certs", f"{certs.single_san_total} / {certs.multi_san_total}"),
            ("free-CA share of single-SAN", percent(certs.free_ca_share)),
            ("parents with CAA", percent(caa.caa_share)),
            ("hijacks CT monitoring would catch", percent(ct.coverage)),
        ],
        title="Reputation & certificates (Sections 5.2.3/5.6, Figures 18/20)",
    )


def _render_malware_cookies(payloads, result):
    malware = payloads["malware"]
    cookies = payloads["cookies"]
    blacklist = payloads["blacklist"]
    return render_table(
        ["metric", "value"],
        [
            ("binaries retrieved (APK/EXE)",
             f"{malware.total} ({malware.apk_count}/{malware.exe_count})" if malware else "-"),
            ("trojan verdicts", malware.trojan_flagged if malware else "-"),
            ("domains flagged by any AV vendor", blacklist.flagged_once),
            ("leaked auth cookies matched", cookies.unique_cookies),
        ],
        title="Malware, blacklists & cookies (Sections 5.4/5.5, Figure 19)",
    )


def _render_attribution(payloads, result):
    registrars = payloads["registrars"]
    imap = payloads["identifiers"]
    clusters = payloads["clustering"]
    edges = payloads["cooccurrence"]
    largest = clusters.largest
    return render_table(
        ["metric", "value"],
        [
            ("same-change clusters spanning 2+ registrars",
             percent(registrars.share_spanning_2plus)),
            ("identifiers extracted", sum(imap.unique_counts.values())),
            ("infrastructure clusters", clusters.cluster_count),
            ("co-occurring identifier pairs (Figure 27 edges)", len(edges)),
            ("largest cluster (ids / domains)",
             f"{largest.identifier_count} / {largest.domain_count}" if largest else "-"),
            ("hijacks covered by identifiers",
             percent(len(clusters.covered_domains()) / len(result.dataset))
             if len(result.dataset) else "-"),
        ],
        title="Attribution (Section 6, Figures 10/21/22/26/27/28)",
    )


def _render_monetization(payloads, result):
    payouts = payloads["monetization"]
    if not payouts:
        return None
    return render_table(
        ["referral code", "payout (USD)"],
        [(code, round(total, 2)) for code, total in payouts[:10]],
        title="Monetization (Section 5.3, Figure 24)",
    )


DEFAULT_SECTIONS: Tuple[ReportSection, ...] = (
    ReportSection("pipeline", "Pipeline (Section 3, Figure 1)",
                  ("scoring", "growth"), _render_pipeline),
    ReportSection("indicators", "Detections by indicator type (Figure 2)",
                  ("indicators",), _render_indicators),
    ReportSection("topics", "Content topics (Figure 3)",
                  ("topics",), _render_topics),
    ReportSection("table1_keywords", "Top index keywords (Table 1)",
                  ("table1_keywords",), _render_table1),
    ReportSection("victimology",
                  "Victimology (Section 4.1, Figures 4/5/7/8/9, Table 6)",
                  ("victimology",), _render_victimology),
    ReportSection("providers", "Providers (Section 4.2, Table 2/3, Figure 11)",
                  ("providers",), _render_providers),
    ReportSection("durations", "Hijack durations (Section 4.4, Figures 15/16)",
                  ("durations",), _render_durations),
    ReportSection("seo_volume", "SEO & volume (Section 5.2, Figure 6, Table 5)",
                  ("seo", "volume"), _render_seo_volume),
    ReportSection("reputation_certs",
                  "Reputation & certificates (Sections 5.2.3/5.6, Figures 18/20)",
                  ("reputation", "certificates", "caa", "ct_monitoring"),
                  _render_reputation_certs),
    ReportSection("malware_cookies",
                  "Malware, blacklists & cookies (Sections 5.4/5.5, Figure 19)",
                  ("malware", "cookies", "blacklist"), _render_malware_cookies),
    ReportSection("attribution",
                  "Attribution (Section 6, Figures 10/21/22/26/27/28)",
                  ("registrars", "identifiers", "clustering", "cooccurrence"),
                  _render_attribution),
    ReportSection("monetization", "Monetization (Section 5.3, Figure 24)",
                  ("monetization",), _render_monetization),
)


def render_sections(
    run: AnalysisRun,
    result,
    sections: Tuple[ReportSection, ...] = DEFAULT_SECTIONS,
) -> List[str]:
    """Compose rendered sections from a finished analysis run.

    A section whose constituent task failed (or was skipped downstream
    of a failure) degrades to an error stanza under its static title —
    failure isolation at the report surface.  Sections referencing
    tasks absent from the run (custom registries) are omitted.
    """
    rendered: List[str] = []
    for section in sections:
        if not all(name in run for name in section.tasks):
            continue
        broken = next(
            (run.outcome(name) for name in section.tasks
             if not run.outcome(name).ok),
            None,
        )
        if broken is not None:
            rendered.append(
                f"{section.title}\n"
                f"  [analysis failed: task {broken.task!r} — {broken.error}]"
            )
            continue
        payloads = {name: run.payload(name) for name in section.tasks}
        text = section.render(payloads, result)
        if text is not None:
            rendered.append(text)
    return rendered
