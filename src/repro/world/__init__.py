"""World generation: the population of organizations and their assets.

Builds the simulated equivalent of the paper's initial search space
(Section 3.1): enterprises (Fortune 1000 / Global 500), universities,
government domains and Tranco/Alexa-popular sites, each with a
registered SLD, an authoritative zone, and a portfolio of subdomains —
many pointing at cloud resources.  The lifecycle engine then evolves
this world weekly for three simulated years: new assets appear,
resources get released (leaving dangling records when owners forget to
purge), owners eventually remediate, and benign content churns.
"""
