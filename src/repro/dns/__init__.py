"""DNS substrate: names, records, zones, resolution and passive DNS.

The paper's collection methodology (Algorithm 1) is pure DNS: resolve
each candidate FQDN, inspect the CNAME chain for known cloud suffixes
and the A records for cloud IP ranges.  This package implements the
record semantics that methodology relies on — CNAME chain following,
NXDOMAIN, zone mutation with timestamps (needed for the hijack-duration
analysis of Section 4.4) — plus a FarSight-style passive DNS feed used
for subdomain discovery (Section 3.1).
"""
