"""Keyword extraction and topic classification.

Section 3.2 extracts 56,946 keywords (average 2.72 per page) from index
HTML to classify pages; Section 5.2.1 tabulates meta-tag keywords from
keyword stuffing.  Extraction here mirrors that: tokenize the visible
text, drop stopwords, keep the most frequent unigrams and bigrams.
Topic classification (Figure 3) scores the extracted keywords against
per-topic vocabularies.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.content.vocab import STOPWORDS, Topic, keywords_for_topic
from repro.web.html import HtmlDocument

_TOKEN_RE = re.compile(r"[\wÀ-ɏ฀-๿぀-ヿ一-鿿]+")

#: How many keywords to keep per page; the paper's average per-page
#: keyword count is small (2.72) because signatures keep only the most
#: discriminative terms, but extraction starts wider.
DEFAULT_KEYWORD_LIMIT = 12


def tokenize(text: str) -> List[str]:
    """Lower-cased word tokens, Unicode-aware."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def extract_keywords(
    document: HtmlDocument, limit: int = DEFAULT_KEYWORD_LIMIT
) -> FrozenSet[str]:
    """The page's characteristic keywords (unigrams and bigrams).

    Meta keywords count double: stuffing makes them highly indicative.
    """
    tokens = tokenize(document.visible_text())
    tokens += tokenize(document.meta.get("description", ""))
    counts: Counter = Counter()
    kept = [t for t in tokens if _keepable(t)]
    counts.update(kept)
    for first, second in zip(kept, kept[1:]):
        counts[f"{first} {second}"] += 1
    for keyword in document.meta_keywords:
        if _keepable(keyword):
            counts[keyword] += 2
    if not counts:
        return frozenset()
    top = [kw for kw, _ in counts.most_common(limit)]
    return frozenset(top)


def _keepable(token: str) -> bool:
    if token in STOPWORDS:
        return False
    if token.isdigit():
        return False
    if token.isascii():
        return len(token) >= 3
    return len(token) >= 2  # CJK/Thai words are short


# -- topic classification (Figure 3) -----------------------------------------------

_ABUSE_TOPICS = (
    Topic.GAMBLING, Topic.ADULT, Topic.PHARMA, Topic.JAPANESE_SEO,
    Topic.GENERIC_SPAM,
)

_TOPIC_VOCAB: Dict[Topic, FrozenSet[str]] = {
    topic: frozenset(
        token
        for phrase in keywords_for_topic(topic)
        for token in tokenize(phrase)
    )
    for topic in list(_ABUSE_TOPICS) + [Topic.BENIGN]
}


def topic_scores(keywords: Iterable[str]) -> Dict[Topic, int]:
    """Vocabulary-overlap score per topic for a keyword set."""
    tokens = set()
    for keyword in keywords:
        tokens.update(keyword.split(" "))
    return {
        topic: len(tokens & vocabulary)
        for topic, vocabulary in _TOPIC_VOCAB.items()
    }


def classify_topic(keywords: Iterable[str]) -> Optional[Topic]:
    """The best-scoring *abuse* topic, or ``None`` if nothing matches.

    Benign vocabulary dominating the page vetoes an abuse label.
    """
    scores = topic_scores(keywords)
    best_topic = None
    best_score = 0
    for topic in _ABUSE_TOPICS:
        if scores[topic] > best_score:
            best_topic, best_score = topic, scores[topic]
    if best_topic is None:
        return None
    if scores[Topic.BENIGN] >= best_score * 2:
        return None
    return best_topic


def abuse_vocabulary_hits(keywords: Iterable[str]) -> int:
    """Total overlap with any abuse vocabulary (analyst triage signal)."""
    scores = topic_scores(keywords)
    return sum(scores[topic] for topic in _ABUSE_TOPICS)
