"""Attacker simulation.

Generates the adversarial side of the world: groups that scan passive
DNS for dangling records pointing at released *user-nameable* cloud
resources, deterministically re-register them, attach the victim
domains, and deploy monetized abuse content — blackhat SEO (doorway
pages, keyword stuffing, link networks, the Japanese Keyword Hack,
cloaking), clickjacking, occasional malware hosting, fraudulent
certificate issuance and cookie theft — all with the shared
identifiers (phone numbers, chat handles, shortener links, backend
IPs) that Section 6's clustering later recovers.
"""
