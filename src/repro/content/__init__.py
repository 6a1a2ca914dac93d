"""Content generation: vocabularies and page builders.

Everything the simulated web serves is produced here: legitimate
organization pages (and their benign churn — redesigns, parked pages —
that the detector must not flag), and the raw vocabulary pools that
attacker content generators in :mod:`repro.attacker` draw from.  The
vocabulary mirrors the paper's findings: Indonesian gambling terms
dominate (Tables 1 and 5), followed by adult content, with Japanese
auto-generated spam for the Japanese Keyword Hack (Section 5.2.1).
"""
