"""Tests for keyword extraction and topic classification."""

from repro.content.vocab import Topic
from repro.core.keywords import (
    abuse_vocabulary_hits,
    classify_topic,
    extract_keywords,
    tokenize,
    topic_scores,
)
from repro.web.html import HtmlDocument


def test_tokenize_unicode_aware():
    assert tokenize("Slot Gacor 77!") == ["slot", "gacor", "77"]
    assert tokenize("現在 メンテナンス中 です") == ["現在", "メンテナンス中", "です"]
    assert tokenize("สล็อตออนไลน์")  # Thai tokens survive


def test_extract_keywords_prefers_frequent_terms():
    doc = HtmlDocument(
        title="slot gacor",
        paragraphs=["slot gacor slot judi online slot terpercaya"],
    )
    keywords = extract_keywords(doc)
    assert "slot" in keywords
    assert any(" " in k for k in keywords)  # bigrams present


def test_meta_keywords_weighted():
    doc = HtmlDocument(meta={"keywords": "joker123, pulsa"}, paragraphs=["nothing here"])
    keywords = extract_keywords(doc)
    assert "joker123" in keywords
    assert "pulsa" in keywords


def test_stopwords_and_digits_dropped():
    doc = HtmlDocument(paragraphs=["the and 12345 of slot"])
    keywords = extract_keywords(doc)
    assert "the" not in keywords
    assert "12345" not in keywords


def test_classify_gambling():
    assert classify_topic({"slot", "judi", "gacor"}) == Topic.GAMBLING


def test_classify_adult():
    assert classify_topic({"porn", "sex", "videos"}) == Topic.ADULT


def test_classify_japanese():
    assert classify_topic({"激安", "ブランド", "時計"}) == Topic.JAPANESE_SEO


def test_benign_content_classifies_none():
    assert classify_topic({"products", "careers", "university"}) is None
    assert abuse_vocabulary_hits({"products", "careers"}) == 0


def test_benign_dominance_vetoes_weak_abuse_signal():
    keywords = {"products", "services", "solutions", "enterprise",
                "customers", "innovation", "game"}
    assert classify_topic(keywords) is None


def test_topic_scores_counts_token_overlap():
    scores = topic_scores({"slot gacor", "judi"})
    assert scores[Topic.GAMBLING] >= 3
