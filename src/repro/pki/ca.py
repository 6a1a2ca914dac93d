"""Certificate authorities with HTTP-01 domain validation.

Issuance follows the ACME shape the paper relies on (Section 5.6):

1. the requester asks for names;
2. the CA checks CAA for each name (RFC 8659);
3. the CA places a random challenge token with the requester, who must
   serve it at ``/.well-known/acme-challenge/<token>`` on each name;
4. the CA fetches the token over plain HTTP *through the public DNS and
   routing layers* and issues only if the bytes match.

Step 4 is what makes hijacks certifiable: whoever controls the content
behind the name — the legitimate owner or the attacker who re-registered
the released resource — passes validation.  Issued certificates go to
the CT log.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from datetime import datetime, timedelta
from typing import Callable, Sequence

from repro.pki.caa import caa_authorizes
from repro.pki.certificate import Certificate
from repro.pki.ct_log import CTLog
from repro.dns.zone import ZoneRegistry
from repro.web.client import HttpClient

#: Standard 90-day validity, as issued by the free ACME CAs.
DEFAULT_VALIDITY = timedelta(days=90)

CHALLENGE_PREFIX = "/.well-known/acme-challenge/"

#: A challenge installer: given (host, path, body), make the content
#: available over HTTP; returns True if it could.
ChallengeInstaller = Callable[[str, str, str], bool]


class IssuanceError(RuntimeError):
    """Raised when a certificate request is refused."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CertificateAuthority:
    """One CA.

    Parameters
    ----------
    name:
        Display name, recorded as the certificate issuer.
    identifier:
        The CAA identifier (``"letsencrypt.org"``-style).
    free:
        Whether issuance costs nothing — the property Section 5.6.2
        shows makes CAA useless against scaled abuse.
    """

    def __init__(
        self,
        name: str,
        identifier: str,
        ct_log: CTLog,
        zones: ZoneRegistry,
        client: HttpClient,
        rng: random.Random,
        free: bool = True,
        price_usd: float = 0.0,
    ):
        self.name = name
        self.identifier = identifier.lower()
        self.free = free
        self.price_usd = price_usd
        self._ct_log = ct_log
        self._zones = zones
        self._client = client
        self._rng = rng
        self._serial = 0

    def issue(
        self,
        sans: Sequence[str],
        install_challenge: ChallengeInstaller,
        at: datetime,
        validity: timedelta = DEFAULT_VALIDITY,
    ) -> Certificate:
        """Run domain validation for every SAN and issue on success.

        Wildcard SANs are refused (they require DNS-01, which a content
        hijacker cannot complete) — this is why hijacker certificates
        are single-SAN (Figure 20).
        """
        if not sans:
            raise IssuanceError("no names requested")
        for san in sans:
            if san.startswith("*."):
                raise IssuanceError(
                    f"{san}: wildcard issuance requires DNS-01 validation"
                )
            if not caa_authorizes(self._zones, san, self.identifier):
                raise IssuanceError(f"{san}: CAA forbids issuance by {self.identifier}")
            self._validate_http01(san, install_challenge, at)
        self._serial += 1
        certificate = Certificate(
            serial=self._serial,
            sans=tuple(sans),
            issuer=self.name,
            not_before=at,
            not_after=at + validity,
        )
        self._ct_log.submit(certificate, at)
        return certificate

    def issue_dns_validated(
        self,
        sans: Sequence[str],
        zone_controller: str,
        zones_owner_lookup,
        at: datetime,
        validity: timedelta = DEFAULT_VALIDITY,
    ) -> Certificate:
        """DNS-01 issuance: multi-SAN and wildcard certificates.

        The requester must control the DNS zone of every SAN —
        ``zones_owner_lookup(name)`` must return ``zone_controller``
        for each.  This is the legitimate bulk/managed issuance path
        producing the multi-SAN and wildcard population of Figure 20;
        content-level hijackers cannot take it, which is why their
        certificates are single-SAN.
        """
        if not sans:
            raise IssuanceError("no names requested")
        for san in sans:
            concrete = san[2:] if san.startswith("*.") else san
            if not caa_authorizes(self._zones, concrete, self.identifier):
                raise IssuanceError(f"{san}: CAA forbids issuance by {self.identifier}")
            controller = zones_owner_lookup(concrete)
            if controller != zone_controller:
                raise IssuanceError(
                    f"{san}: requester does not control the zone ({controller!r})"
                )
        self._serial += 1
        certificate = Certificate(
            serial=self._serial,
            sans=tuple(sans),
            issuer=self.name,
            not_before=at,
            not_after=at + validity,
        )
        self._ct_log.submit(certificate, at)
        return certificate

    def _validate_http01(
        self, san: str, install_challenge: ChallengeInstaller, at: datetime
    ) -> None:
        token = "".join(self._rng.choices("abcdefghijklmnopqrstuvwxyz0123456789", k=32))
        body = f"{token}.key-authorization"
        path = CHALLENGE_PREFIX + token
        if not install_challenge(san, path, body):
            raise IssuanceError(f"{san}: requester could not install challenge")
        # The CA fetches over its own egress, not the flaky measurement
        # path — chaos injection never fails a challenge fetch.
        plan = getattr(self._client, "fault_plan", None)
        guard = plan.suppressed() if plan is not None else nullcontext()
        with guard:
            outcome = self._client.fetch(san, path=path, scheme="http", at=at)
        if not outcome.ok:
            raise IssuanceError(f"{san}: challenge fetch failed ({outcome.status.value})")
        if outcome.response.body != body:
            raise IssuanceError(f"{san}: challenge content mismatch")
