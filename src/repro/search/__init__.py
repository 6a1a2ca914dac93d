"""Search-engine substrate.

Blackhat SEO only makes sense against a search engine: doorway pages,
keyword stuffing, link networks and the Japanese Keyword Hack all
manipulate *ranking signals*.  This package implements the target of
those manipulations — a crawler (which, being a bot, receives the
cloaked content), an inverted index with a backlink graph, and a
ranking function built on the signals Section 5.2.3 names: domain age,
HTTPS, backlinks and keyword relevance.  The search-poisoning analysis
in :mod:`repro.core.search_poisoning` then measures how far hijacked
domains climb for gambling queries.
"""
