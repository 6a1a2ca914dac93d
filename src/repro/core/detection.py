"""The abuse detector: change gating, matching, extraction, records.

Ties the pipeline together (Figure 25): weekly changed states are
checked against the validated signature store; unmatched-but-suspicious
states are queued for signature extraction together with a short
backlog (the same change often lands on different assets weeks apart);
freshly extracted signatures are retrospectively re-run over the whole
snapshot history, which is how the paper back-dates hijacks it learned
to recognise late.  Confirmed matches accumulate into
:class:`AbuseRecord` entries with open/closed abuse episodes, the unit
every Section 4-6 analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.content.vocab import Topic
from repro.core.changes import ChangeEvent
from repro.core.keywords import abuse_vocabulary_hits, classify_topic, tokenize
from repro.core.monitoring import SnapshotFeatures, SnapshotStore
from repro.core.sigindex import SignatureIndex
from repro.core.signatures import (
    BenignCorpus,
    ExtractorConfig,
    Signature,
    SignatureExtractor,
)
from repro.dns.names import Name
from repro.obs import OBS
from repro.sim.clock import month_key


@dataclass
class DetectorConfig:
    """Detector behaviour knobs."""

    #: How long unmatched suspicious states stay eligible for clustering.
    backlog_window: timedelta = timedelta(weeks=8)
    #: Cap on the benign validation corpus (memory/validation cost).
    benign_corpus_cap: int = 4000
    #: Sitemap entry count that alone makes a page suspicious.
    bulk_sitemap_count: int = 300
    #: Use the inverted signature/posting indexes for matching and
    #: retrospective rescans.  The indexed path is byte-identical to
    #: the linear scan (same matches, same order, same exports); the
    #: flag exists for the parity tests and the benchmark baseline.
    use_index: bool = True
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)


@dataclass
class AbuseEpisode:
    """One contiguous period an FQDN served matching abuse content."""

    started_at: datetime
    last_matched: datetime
    ended_at: Optional[datetime] = None

    @property
    def open(self) -> bool:
        return self.ended_at is None

    def duration_days(self, now: Optional[datetime] = None) -> float:
        """Episode lifespan in days, right-censored at ``now`` if open.

        ``now`` must come from the *simulation* clock (e.g. the
        scenario's ``result.end``).  Passing ``datetime.now()`` would
        measure a 2020-anchored simulated episode against today's wall
        clock and report a nonsense multi-year duration, so tz-aware
        datetimes — the signature of ``datetime.now(timezone.utc)`` —
        are rejected, as is omitting ``now`` while the episode is open.
        """
        if now is not None and now.tzinfo is not None:
            raise ValueError(
                "duration_days(now=...) takes a naive simulation-clock "
                "datetime (e.g. the scenario's result.end); a tz-aware "
                f"value ({now.isoformat()}) looks like wall-clock time"
            )
        end = self.ended_at or now
        if end is None:
            raise ValueError(
                "episode still open: pass now= from the simulation clock "
                "(e.g. result.end) to right-censor it — never "
                "datetime.now(), which measures wall-clock time against "
                "simulated timestamps"
            )
        return max(0.0, (end - self.started_at).total_seconds() / 86_400.0)


@dataclass
class AbuseRecord:
    """Everything detected about one abused FQDN."""

    fqdn: Name
    first_detected: datetime
    episodes: List[AbuseEpisode] = field(default_factory=list)
    signature_ids: Set[str] = field(default_factory=set)
    indicator_combinations: Set[FrozenSet[str]] = field(default_factory=set)
    topics: Set[Topic] = field(default_factory=set)
    keywords: Set[str] = field(default_factory=set)
    max_sitemap_count: int = -1
    max_sitemap_size: int = -1
    match_count: int = 0

    @property
    def currently_abused(self) -> bool:
        return bool(self.episodes) and self.episodes[-1].open

    @property
    def last_matched(self) -> datetime:
        return self.episodes[-1].last_matched if self.episodes else self.first_detected

    def simplest_indicators(self) -> FrozenSet[str]:
        """The smallest component combination that identified this FQDN.

        This is the Figure 2 bucketing unit: a domain identifiable with
        just keywords counts as "keywords", one that needed keywords
        plus infrastructure counts as that pair, and so on.
        """
        if not self.indicator_combinations:
            return frozenset()
        return min(self.indicator_combinations, key=lambda c: (len(c), sorted(c)))


class AbuseDataset:
    """The detector's output: records keyed by FQDN."""

    def __init__(self) -> None:
        self._records: Dict[Name, AbuseRecord] = {}
        #: month -> cumulative abused-FQDN count (Figure 1 overlay).
        self.monthly_cumulative: Dict[str, int] = {}

    def get(self, fqdn: Name) -> Optional[AbuseRecord]:
        return self._records.get(fqdn)

    def get_or_create(self, fqdn: Name, at: datetime) -> AbuseRecord:
        record = self._records.get(fqdn)
        if record is None:
            record = AbuseRecord(fqdn=fqdn, first_detected=at)
            self._records[fqdn] = record
        return record

    def records(self) -> List[AbuseRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def abused_fqdns(self) -> List[Name]:
        return sorted(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fqdn: Name) -> bool:
        return fqdn in self._records

    def snapshot_month(self, at: datetime) -> None:
        self.monthly_cumulative[month_key(at)] = len(self._records)


def indicator_breakdown(dataset: AbuseDataset) -> List[Tuple[str, int, float]]:
    """Figure 2: % of detected hijacks per indicator-type combination.

    Each abused FQDN is bucketed by the *smallest* signature-component
    combination that identified it (keywords alone, keywords+sitemap,
    keywords+infrastructure, template, ...).
    """
    counts: Dict[str, int] = {}
    for record in dataset.records():
        combo = record.simplest_indicators()
        label = "+".join(sorted(combo)) if combo else "(none)"
        counts[label] = counts.get(label, 0) + 1
    total = len(dataset) or 1
    return sorted(
        ((label, count, count / total) for label, count in counts.items()),
        key=lambda row: -row[1],
    )


def topic_breakdown(dataset: AbuseDataset) -> List[Tuple[str, int, float]]:
    """Figure 3: content classification of hijacked domains by topic."""
    counts: Dict[str, int] = {}
    for record in dataset.records():
        if record.topics:
            for topic in record.topics:
                counts[topic.value] = counts.get(topic.value, 0) + 1
        else:
            counts["(unclassified)"] = counts.get("(unclassified)", 0) + 1
    total = sum(counts.values()) or 1
    return sorted(
        ((label, count, count / total) for label, count in counts.items()),
        key=lambda row: -row[1],
    )


class AbuseDetector:
    """Weekly driver of matching and signature extraction."""

    def __init__(
        self,
        store: SnapshotStore,
        config: Optional[DetectorConfig] = None,
        whois=None,
    ):
        self.store = store
        self.config = config or DetectorConfig()
        self.benign = BenignCorpus()
        self.extractor = SignatureExtractor(self.benign, self.config.extractor, whois=whois)
        self.signatures: List[Signature] = []
        #: Inverted candidate index over ``signatures``; kept in sync
        #: lazily (see :meth:`_match_existing`) so code that appends to
        #: the public list directly stays correct.
        self.sig_index = SignatureIndex()
        self.dataset = AbuseDataset()
        #: Unmatched-but-suspicious sightings awaiting clustering,
        #: keyed by (fqdn, state_key) so the same observable state
        #: re-queued across weeks is held once — the value keeps the
        #: newest sighting time (which is what the pruning horizon
        #: should measure) and its features.
        self._backlog: Dict[Tuple[Name, Tuple], Tuple[datetime, SnapshotFeatures]] = {}

    # -- weekly entry point ----------------------------------------------------------

    def process_week(self, changes: Sequence[ChangeEvent], at: datetime) -> List[Name]:
        """Process one week of changes; returns newly flagged FQDNs."""
        newly_flagged: List[Name] = []
        unmatched_suspicious: List[SnapshotFeatures] = []

        for change in changes:
            features = change.current
            if change.first_observation and features.reachable:
                self._maybe_add_benign(features)
            matched = self._match_existing(features)
            if matched:
                if OBS.enabled:
                    OBS.metrics.inc("detector.signature_matches", len(matched))
                if self._record_match(features, matched, at):
                    newly_flagged.append(features.fqdn)
                continue
            self._maybe_close_episode(change, at)
            if self._is_suspicious(change):
                unmatched_suspicious.append(features)

        self._prune_backlog(at)
        for features in unmatched_suspicious:
            # Re-sighting an already queued state refreshes its clock
            # (newest sighting wins) without duplicating it — the same
            # FQDN re-queued every week must not pile identical entries
            # into extraction and double-count in cluster support.
            self._backlog[(features.fqdn, features.state_key())] = (at, features)
        new_signatures = self.extractor.extract(
            [f for _, f in self._backlog.values()], at
        )
        for signature in new_signatures:
            self.signatures.append(signature)
            self.sig_index.sync(self.signatures)
            newly_flagged.extend(self._rescan_history(signature))
        if new_signatures:
            self._drop_matched_backlog()
            if OBS.enabled:
                OBS.metrics.inc("detector.signatures_extracted", len(new_signatures))
        flagged = sorted(set(newly_flagged))
        if flagged and OBS.enabled:
            OBS.metrics.inc("detector.newly_flagged", len(flagged))
        self.dataset.snapshot_month(at)
        return flagged

    # -- matching ---------------------------------------------------------------------

    def _match_existing(
        self, features: SnapshotFeatures
    ) -> List[Tuple[Signature, FrozenSet[str]]]:
        """All signatures matching ``features``, in extraction order.

        The default path asks the :class:`SignatureIndex` which
        signatures share at least one required component token with the
        page and verifies only those; with ``use_index`` off it is the
        paper-faithful linear scan.  Both return the same list.
        """
        if not self.config.use_index:
            matches = []
            for signature in self.signatures:
                components = signature.match(features)
                if components is not None:
                    matches.append((signature, components))
            return matches
        if not self.signatures:
            return []
        if len(self.sig_index) != len(self.signatures):
            self.sig_index.sync(self.signatures)
        if not features.reachable:
            # No signature can match an unreachable state; skip even
            # the candidate lookup (Signature.match would refuse each).
            return []
        candidate_ids = self.sig_index.candidates(
            features.page_tokens, features.external_hosts, features.facade_markers
        )
        matches = []
        for sig_id in candidate_ids:
            signature = self.signatures[sig_id]
            components = signature.match(features)
            if components is not None:
                matches.append((signature, components))
        if OBS.enabled:
            OBS.metrics.inc("detector.index.lookups")
            OBS.metrics.inc("detector.index.candidates", len(candidate_ids))
            OBS.metrics.inc(
                "detector.index.pruned", len(self.signatures) - len(candidate_ids)
            )
        return matches

    def _record_match(
        self,
        features: SnapshotFeatures,
        matches: List[Tuple[Signature, FrozenSet[str]]],
        at: datetime,
        observed_at: Optional[datetime] = None,
    ) -> bool:
        when = observed_at or features.at
        is_new = features.fqdn not in self.dataset
        record = self.dataset.get_or_create(features.fqdn, when)
        record.first_detected = min(record.first_detected, when)
        if record.episodes and record.episodes[-1].open:
            episode = record.episodes[-1]
            episode.last_matched = max(episode.last_matched, when)
            episode.started_at = min(episode.started_at, when)
        else:
            record.episodes.append(AbuseEpisode(started_at=when, last_matched=when))
        for signature, components in matches:
            record.signature_ids.add(signature.signature_id)
            record.indicator_combinations.add(components)
        # Truncate in sorted order: ``list(frozenset)[:40]`` keeps an
        # arbitrary hash-ordered subset, which varies per PYTHONHASHSEED
        # and leaks into the keyword/topic exports.
        record.keywords |= set(sorted(features.keywords)[:40])
        topic = classify_topic(features.page_tokens)
        if topic is None and features.sitemap_sample:
            # Facade indexes hide the real content; the generated page
            # names in the sitemap reveal the topic (Section 3.2's
            # "behind the error pages were thousands of other pages").
            slug_text = " ".join(
                url.split("//", 1)[-1].split("/", 1)[-1].replace("-", " ")
                .replace("_", " ").replace(".html", "")
                for url in features.sitemap_sample
            )
            topic = classify_topic(set(tokenize(slug_text)))
        if topic is not None:
            record.topics.add(topic)
        record.max_sitemap_count = max(record.max_sitemap_count, features.sitemap_count)
        record.max_sitemap_size = max(record.max_sitemap_size, features.sitemap_size)
        record.match_count += 1
        return is_new

    def _maybe_close_episode(self, change: ChangeEvent, at: datetime) -> None:
        record = self.dataset.get(change.fqdn)
        if record is None or not record.currently_abused:
            return
        # The FQDN changed state and no signature matches anymore: the
        # abuse ended (owner fixed the record, or content was replaced).
        record.episodes[-1].ended_at = change.current.at

    # -- suspicion gating ---------------------------------------------------------------

    def _is_suspicious(self, change: ChangeEvent) -> bool:
        features = change.current
        if not features.reachable:
            return False
        triggered = change.any_change or change.first_observation
        if not triggered:
            return False
        return (
            abuse_vocabulary_hits(features.page_tokens) > 0
            or bool(features.facade_markers)
            or features.sitemap_count >= self.config.bulk_sitemap_count
        )

    # -- benign corpus ---------------------------------------------------------------------

    def _maybe_add_benign(self, features: SnapshotFeatures) -> None:
        if len(self.benign) >= self.config.benign_corpus_cap:
            return
        # Analyst-verified benign assets: first sighting, no spam
        # vocabulary, no facade, human-scale sitemap.
        if abuse_vocabulary_hits(features.page_tokens) > 0:
            return
        if features.facade_markers:
            return
        if features.sitemap_count >= self.config.bulk_sitemap_count:
            return
        self.benign.add(features)

    # -- retrospective scanning ----------------------------------------------------------------

    def _rescan_history(self, signature: Signature) -> List[Name]:
        """Run a new signature over everything already collected.

        States are replayed chronologically per FQDN, and if the abuse
        state has since been replaced by one that matches nothing (the
        owner fixed the record), the reconstructed episode is closed at
        that state's first sighting — retrospective detection must not
        resurrect remediated hijacks as ongoing.

        With ``use_index`` on, the store's posting index narrows the
        walk to FQDNs whose history contains at least one of the
        signature's anchor tokens; everything else cannot match and is
        skipped without changing any output (``None`` from the index
        means "cannot prune" and falls back to the full walk).
        """
        flagged: List[Name] = []
        fqdns = self.store.fqdns()
        if self.config.use_index:
            total = len(fqdns)
            candidates = self.store.rescan_candidates(signature)
            if candidates is None:
                if OBS.enabled:
                    OBS.metrics.inc("rescan.fallbacks")
            else:
                fqdns = [fqdn for fqdn in fqdns if fqdn in candidates]
                if OBS.enabled:
                    OBS.metrics.inc("rescan.skipped", total - len(fqdns))
            if OBS.enabled:
                OBS.metrics.inc("rescan.signatures")
                OBS.metrics.inc("rescan.visited", len(fqdns))
        for fqdn in fqdns:
            history = self.store.history(fqdn)
            matches = [signature.match(state.features) for state in history]
            if not any(components is not None for components in matches):
                continue
            for state, components in zip(history, matches):
                if components is None:
                    continue
                if self._record_match(
                    state.features, [(signature, components)], state.first_seen,
                    observed_at=state.first_seen,
                ):
                    flagged.append(fqdn)
            record = self.dataset.get(fqdn)
            last_hit = max(
                index for index, components in enumerate(matches)
                if components is not None
            )
            if (
                record is not None
                and record.currently_abused
                and last_hit < len(history) - 1
            ):
                successor = history[last_hit + 1]
                episode = record.episodes[-1]
                # Close only when the successor postdates the episode's
                # last live match: the open episode may belong to a
                # *different* signature that matched later states, and
                # back-dating ``ended_at`` below ``last_matched`` would
                # fabricate negative durations (Figures 15/16).
                if (
                    successor.first_seen >= episode.last_matched
                    and not self._match_existing(successor.features)
                ):
                    episode.ended_at = successor.first_seen
        return flagged

    # -- backlog ----------------------------------------------------------------------------------

    def _prune_backlog(self, at: datetime) -> None:
        horizon = at - self.config.backlog_window
        self._backlog = {
            key: (t, f) for key, (t, f) in self._backlog.items() if t >= horizon
        }

    def _drop_matched_backlog(self) -> None:
        self._backlog = {
            key: (t, f)
            for key, (t, f) in self._backlog.items()
            if not self._match_existing(f)
        }
