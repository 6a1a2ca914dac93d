"""Transport-level liveness probing (Zmap-style).

Prior work classified DNS records as dangling when the pointed-to IP
did not answer ICMP or a set of TCP ports ([12] ports 80/443/53, [3]
36 ports, [16] 148 ports).  The paper shows in Section 2 that this
misestimates availability under virtual hosting: an edge server answers
ping and accepts TCP on 80/443 for *every* name it fronts, whether or
not the specific resource behind a given FQDN still exists — and,
conversely, some live services drop ICMP entirely.  These probers
reproduce exactly that behaviour against :class:`repro.net.network.Network`
hosts; the application-layer check lives in :mod:`repro.web.client`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.network import Network

#: Port sets used by the prior work the paper contrasts itself with.
LIU_2016_PORTS = frozenset({80, 443, 53})
BORGOLTE_2018_PORTS = frozenset(
    {21, 22, 23, 25, 53, 80, 110, 123, 135, 139, 143, 161, 179, 194, 389,
     443, 445, 465, 514, 515, 587, 636, 873, 993, 995, 1080, 1433, 1521,
     3306, 3389, 5432, 5900, 6379, 8080, 8443, 27017}
)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one transport-level probe."""

    ip: str
    responsive: bool
    method: str
    detail: str = ""


def icmp_ping(network: Network, ip: str) -> ProbeResult:
    """Send a simulated ICMP echo request to ``ip``."""
    if network.fault_plan is not None and network.fault_plan.icmp_blackout(ip):
        return ProbeResult(
            ip=ip, responsive=False, method="icmp", detail="blackout (injected)"
        )
    host = network.host_at(ip)
    responsive = host is not None and host.responds_to_icmp()
    detail = "" if host is not None else "no host bound"
    return ProbeResult(ip=ip, responsive=responsive, method="icmp", detail=detail)


def tcp_probe_any(network: Network, ip: str, ports: Iterable[int]) -> ProbeResult:
    """Probe several ports and report responsive if any accepts.

    This is the aggregation rule prior work used: a record is "live" if
    the IP answers on at least one probed port.
    """
    if network.fault_plan is not None and network.fault_plan.connection_reset(ip):
        return ProbeResult(
            ip=ip, responsive=False, method="tcp-any", detail="reset (injected)"
        )
    host = network.host_at(ip)
    open_port: Optional[int] = None
    if host is not None:
        open_ports = host.open_tcp_ports()
        for port in ports:
            if port in open_ports:
                open_port = port
                break
    return ProbeResult(
        ip=ip,
        responsive=open_port is not None,
        method="tcp-any",
        detail=f"open={open_port}" if open_port is not None else "none open",
    )
