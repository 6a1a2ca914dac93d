"""Domain registration (WHOIS) substrate.

Supplies the three fields the paper's analyses read from WHOIS:
creation date (domain age, Figure 18), registrar and owner (the
registrar-diversity rule-out of benign changes, Figure 10).
"""
