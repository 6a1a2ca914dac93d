"""Simulation kernel: deterministic time, seeded randomness and event logging.

Every other subsystem in :mod:`repro` is built on top of this package.
Nothing in the library reads the wall clock or the global
:mod:`random` state; instead a :class:`~repro.sim.clock.SimClock` and a
:class:`~repro.sim.rng.RngStreams` instance are threaded through the
simulation so that a given seed always reproduces the same three-year
"Internet history" bit for bit.
"""
