"""PKI substrate: certificates, CAs, domain validation, CAA and CT.

Section 5.6 of the paper analyzes fraudulent certificates that
hijackers obtain through HTTP-based domain validation, evaluates CAA
records as a (failed) countermeasure and proposes CT monitoring as a
better one.  This package implements those mechanisms: CAs issue after
an HTTP-01 challenge served from the (possibly hijacked) resource,
honour CAA records with RFC 8659 tree climbing, and log every issued
certificate to a Certificate Transparency log that the analyses (and
the CT-monitoring countermeasure) read.
"""
