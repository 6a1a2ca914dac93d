"""repro — a full reproduction of "Cloudy with a Chance of Cyberattacks:
Dangling Resources Abuse on Cloud Platforms" (NSDI 2024).

The package builds a deterministic simulated Internet — DNS, cloud
platforms, web hosting, PKI/CT, WHOIS, threat intel — populates it with
organizations and attackers, and runs the paper's measurement pipeline
against it: Algorithm-1 collection, weekly monitoring, signature-based
abuse detection, and every Section 4-6 analysis.

Quickstart::

    from repro import ScenarioConfig, run_scenario
    result = run_scenario(ScenarioConfig.small())
    print(len(result.dataset), "abused FQDNs detected")

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured comparison of every table and figure.
"""

from repro.core.scenario import ScenarioConfig, run_scenario

__version__ = "1.0.0"

__all__ = [
    "ScenarioConfig",
    "run_scenario",
    "__version__",
]
