"""Deterministic fault injection and the resilience layer.

Two halves of one subsystem: :mod:`repro.faults.plan` injects seeded
transient failures (DNS SERVFAIL/timeouts, connection resets, ICMP
blackouts, HTTP 5xx/429, truncated bodies) into every layer of the
measurement path, and :mod:`repro.faults.retry` gives the clients the
machinery to survive them — capped-exponential-backoff retry policies
and per-provider-edge circuit breakers, both driven by the simulated
clock and seeded RNG streams so chaos runs replay byte-identically.
"""
