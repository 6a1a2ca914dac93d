"""Threat-intelligence substrates.

Simulated stand-ins for the external feeds Section 5 consumes:
a VirusTotal-like service (binary verdicts and per-domain AV-vendor
flags, Figure 19 / Section 5.4), a darknet leak feed for stolen
authentication cookies (Section 5.5), and a URL-shortener service whose
links serve as attacker identifiers (Section 6).
"""
