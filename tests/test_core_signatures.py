"""Tests for signature extraction, validation and matching."""

from datetime import datetime

from repro.core.monitoring import SnapshotFeatures
from repro.core.sigindex import external_hosts, facade_markers, page_tokens
from repro.core.signatures import (
    BenignCorpus,
    ExtractorConfig,
    Signature,
    SignatureExtractor,
)
from repro.whois.registry import DomainRegistry

T0 = datetime(2020, 6, 1)


def _page(fqdn, keywords, urls=(), title="", sitemap_count=-1, meta=()):
    return SnapshotFeatures(
        fqdn=fqdn, at=T0, dns_status="NOERROR", cname_chain=(), addresses=("1.1.1.1",),
        fetch_status="ok", http_status=200, html_hash=f"h-{fqdn}", html_size=10,
        title=title, lang="id", keywords=frozenset(keywords),
        meta_keywords=tuple(meta), external_urls=tuple(urls),
        sitemap_count=sitemap_count, sitemap_size=sitemap_count * 80,
    )


GAMBLING_A = _page("a.foo.com", {"slot gacor", "judi", "daftar"},
                   urls=("https://mega-gacor.bet/play?ref=1",), sitemap_count=900)
GAMBLING_B = _page("b.bar.com", {"slot", "judi online", "daftar", "gacor"},
                   urls=("https://mega-gacor.bet/play?ref=1",), sitemap_count=700)
BENIGN = _page("ok.corp.com", {"products", "careers", "support"}, sitemap_count=20)


def _whois():
    registry = DomainRegistry()
    registry.register("foo.com", owner="Foo", registrar="GoDaddy", created_at=T0)
    registry.register("bar.com", owner="Bar", registrar="Tucows", created_at=T0)
    registry.register("corp.com", owner="Corp", registrar="Gandi", created_at=T0)
    registry.register("park1.com", owner="Parker", registrar="SedoPark", created_at=T0)
    registry.register("park2.com", owner="Parker", registrar="SedoPark", created_at=T0)
    return registry


def test_page_tokens_and_hosts_helpers():
    tokens = page_tokens(GAMBLING_A)
    assert {"slot", "gacor", "judi", "daftar"} <= tokens
    assert external_hosts(GAMBLING_A) == frozenset({"mega-gacor.bet"})


def test_facade_marker_detection():
    facade = _page("f.foo.com", set(), title="Comming soon ...")
    assert "comming soon" in facade_markers(facade)
    assert facade_markers(GAMBLING_A) == frozenset()


def test_extractor_derives_signature_from_cluster():
    corpus = BenignCorpus()
    corpus.add(BENIGN)
    extractor = SignatureExtractor(corpus, whois=_whois())
    signatures = extractor.extract([GAMBLING_A, GAMBLING_B], T0)
    assert len(signatures) == 1
    signature = signatures[0]
    assert {"slot", "judi", "daftar", "gacor"} <= signature.keywords
    assert "mega-gacor.bet" in signature.infrastructure
    assert signature.sitemap_min_count > 0
    assert signature.match(GAMBLING_A) is not None
    assert signature.match(BENIGN) is None


def test_single_page_does_not_create_signature():
    extractor = SignatureExtractor(BenignCorpus(), whois=_whois())
    assert extractor.extract([GAMBLING_A], T0) == []


def test_benign_collision_discards_signature():
    corpus = BenignCorpus()
    # The "abuse" vocabulary is all present on a benign page.
    corpus.add(_page("n.corp.com", {"slot", "judi", "daftar", "gacor"}))
    extractor = SignatureExtractor(corpus, whois=_whois())
    weak_a = _page("a.foo.com", {"slot", "judi", "daftar", "gacor"})
    weak_b = _page("b.bar.com", {"slot", "judi", "daftar", "gacor"})
    assert extractor.extract([weak_a, weak_b], T0) == []


def test_registrar_rule_out_blocks_parking_cluster():
    """Identical change across one registrar+owner = benign rollout."""
    extractor = SignatureExtractor(BenignCorpus(), whois=_whois())
    parked_a = _page("park1.com", {"situs", "judi", "slot", "gacor"})
    parked_b = _page("park2.com", {"situs", "judi", "slot", "gacor"})
    assert extractor.extract([parked_a, parked_b], T0) == []
    # Same content across *different* registrars is extracted fine.
    diverse = extractor.extract(
        [_page("a.foo.com", {"situs", "judi", "slot", "gacor"}),
         _page("b.bar.com", {"situs", "judi", "slot", "gacor"})],
        T0,
    )
    assert len(diverse) == 1


def test_analyst_rejects_clusters_without_malicious_look():
    extractor = SignatureExtractor(BenignCorpus(), whois=_whois())
    bland_a = _page("a.foo.com", {"zzqx", "wwvv", "qqpp"})
    bland_b = _page("b.bar.com", {"zzqx", "wwvv", "qqpp"})
    assert extractor.extract([bland_a, bland_b], T0) == []


def test_signature_components_and_matching_semantics():
    signature = Signature(
        signature_id="s1", created_at=T0,
        keywords=frozenset({"slot", "judi", "gacor"}),
        sitemap_min_count=100,
    )
    assert signature.components == frozenset({"keywords", "sitemap"})
    # Both components must hit.
    small_sitemap = _page("x.foo.com", {"slot", "judi"}, sitemap_count=5)
    assert signature.match(small_sitemap) is None
    full = _page("x.foo.com", {"slot", "judi"}, sitemap_count=500)
    assert signature.match(full) == frozenset({"keywords", "sitemap"})


def test_template_signature_matches_facades():
    signature = Signature(
        signature_id="s2", created_at=T0,
        template_markers=frozenset({"comming soon"}),
    )
    facade = _page("f.foo.com", set(), title="Comming Soon ...")
    assert signature.match(facade) == frozenset({"template"})
    assert signature.match(GAMBLING_A) is None


def test_unreachable_page_never_matches():
    signature = Signature(
        signature_id="s3", created_at=T0, keywords=frozenset({"slot", "judi"})
    )
    dead = SnapshotFeatures(
        fqdn="d.foo.com", at=T0, dns_status="NXDOMAIN", cname_chain=(), addresses=(),
        fetch_status="dns-nxdomain", keywords=frozenset({"slot", "judi"}),
    )
    assert signature.match(dead) is None
