"""Web substrate: HTML, sitemaps, HTTP, cookies and virtual hosting.

The paper's detector consumes exactly two artifacts per FQDN per week —
the index HTML and the sitemap — plus the HTTP responses that deliver
them.  This package models those artifacts and the serving side:
virtual-hosting edge servers that route by ``Host`` header (the reason
transport-level probing misjudges liveness, Section 2), per-resource
sites, and an application-layer HTTP client that performs the paper's
"download HTML via HTTP/S from the actual FQDN" liveness check.
"""
