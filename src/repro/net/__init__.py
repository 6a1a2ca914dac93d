"""Network substrate: IPv4 pools, routing, probing and IP intelligence.

This package models the transport-level Internet the paper's
measurement ran against: cloud provider address pools (from which VM
IPs are allocated "by lottery"), an IP-to-host routing table, and the
three probing methods the paper compares in Section 2 (ICMP ping, TCP
port probe, HTTP request), plus GeoIP / IP-WHOIS lookups used for the
attacker-infrastructure analysis in Section 6.
"""
