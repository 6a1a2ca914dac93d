"""The routing table of the simulated Internet.

A :class:`Network` maps IPv4 addresses to *hosts* — objects implementing
the small :class:`Host` protocol.  Cloud edge servers, dedicated VMs and
attacker infrastructure all register here; probers and the HTTP client
look hosts up by address.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable


@runtime_checkable
class Host(Protocol):
    """Anything that can be bound to an IP address.

    The protocol is deliberately transport-flavoured: ICMP and TCP
    behaviour live here, application (HTTP) behaviour is layered on by
    :mod:`repro.web`.
    """

    def responds_to_icmp(self) -> bool:
        """Whether the host answers ping."""
        ...

    def open_tcp_ports(self) -> frozenset:
        """The set of TCP ports accepting connections."""
        ...


class Network:
    """IP-to-host bindings for the simulated Internet.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`, duck-typed) is
    consulted by the transport probers and the HTTP client to inject
    connection resets and ICMP blackouts on the path to a bound host —
    the host itself stays healthy; only this traversal is faulty.
    """

    def __init__(self, fault_plan=None, journal=None) -> None:
        self._hosts: Dict[str, Host] = {}
        self.fault_plan = fault_plan
        #: Optional :class:`repro.sim.revisions.RevisionJournal`; when
        #: set, every (un)bind bumps ``("net", ip)`` so ledger
        #: sweeps notice addresses going dark or lighting back up.
        self.journal = journal

    def bind(self, ip: str, host: Host) -> None:
        """Attach ``host`` at ``ip``; rebinding an address is an error."""
        if ip in self._hosts:
            raise ValueError(f"{ip} is already bound")
        self._hosts[ip] = host
        if self.journal is not None:
            self.journal.bump("net", ip)

    def unbind(self, ip: str) -> Host:
        """Detach and return the host at ``ip``."""
        try:
            host = self._hosts.pop(ip)
        except KeyError:
            raise KeyError(f"{ip} is not bound") from None
        if self.journal is not None:
            self.journal.bump("net", ip)
        return host

    def host_at(self, ip: str) -> Optional[Host]:
        """The host bound at ``ip``, or ``None`` if the address is dark."""
        return self._hosts.get(ip)

    def is_bound(self, ip: str) -> bool:
        """Whether any host answers at ``ip``."""
        return ip in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)
