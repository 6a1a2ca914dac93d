"""Tests for benign content generation and vocabularies."""

import random

from repro.content.benign import BenignContentFactory
from repro.content.vocab import (
    ABUSE_TOPIC_WEIGHTS,
    GAMBLING_KEYWORDS,
    MAINTENANCE_PHRASES,
    STOPWORDS,
    Topic,
    keywords_for_topic,
)
from repro.core.keywords import abuse_vocabulary_hits, extract_keywords
from repro.web.html import parse_html



def _factory(seed=1):
    return BenignContentFactory(random.Random(seed))


def test_corporate_index_mentions_org_and_sector():
    doc = _factory().corporate_index("Velnor Industries", "Energy")
    assert "Velnor Industries" in doc.title or "Velnor Industries" in doc.visible_text()
    assert "energy" in doc.visible_text().lower()
    assert parse_html(doc.render()).title == doc.title


def test_corporate_revisions_differ():
    factory = _factory()
    a = factory.corporate_index("Acme", "Retailing", revision=0).render()
    b = factory.corporate_index("Acme", "Retailing", revision=1).render()
    assert a != b


def test_university_and_service_pages():
    factory = _factory()
    university = factory.university_index("University of Ashford")
    assert "Admissions" in [l.text for l in university.links]
    service = factory.service_page("Acme", "portal")
    assert "portal" in service.title.lower()


def test_parked_page_rotates_by_campaign():
    factory = _factory()
    first = factory.parked_page("x.com", campaign=0).render()
    second = factory.parked_page("x.com", campaign=1).render()
    assert first != second
    # Same campaign = same offer for every domain (collective change).
    assert "insurance" in factory.parked_page("a.com", 0).render()
    assert "insurance" in factory.parked_page("b.com", 0).render()


def test_benign_pages_carry_no_abuse_vocabulary():
    factory = _factory()
    for doc in (
        factory.corporate_index("Acme", "Technology"),
        factory.university_index("University of Jasper"),
        factory.service_page("Acme", "api"),
    ):
        keywords = extract_keywords(doc)
        assert abuse_vocabulary_hits(keywords) == 0, sorted(keywords)


def test_vocab_pools_are_disjoint_enough():
    benign = set(keywords_for_topic(Topic.BENIGN))
    gambling = set(GAMBLING_KEYWORDS)
    assert not benign & gambling


def test_abuse_topic_weights_sum_to_one():
    assert abs(sum(w for _, w in ABUSE_TOPIC_WEIGHTS) - 1.0) < 1e-9
    assert ABUSE_TOPIC_WEIGHTS[0][0] == Topic.GAMBLING  # dominant


def test_maintenance_phrases_include_the_typo():
    assert any("Comming" in phrase for phrase in MAINTENANCE_PHRASES)


def test_stopwords_lowercase():
    assert all(word == word.lower() for word in STOPWORDS)
