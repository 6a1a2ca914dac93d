"""Cloud platform substrate.

Models the 12 platforms the paper monitors (Table 2): per-service
resource registries, the three allocation disciplines that decide
hijackability (Section 4.3) — user-chosen *freetext* names that an
attacker can deterministically re-register, provider-generated random
names, and lottery-assigned dedicated IPs — plus the virtual-hosting
edge layer, custom-domain aliasing with CNAME verification, and
provider-published IP ranges/suffix lists (Appendix A.1).
"""
