"""Cookies with scope rules and security flags.

Section 5.5's cookie-theft analysis hinges on three browser rules, all
implemented here:

* a cookie is sent back to the domain that set it *and its subdomains*
  (so a hijacked subdomain receives the parent's cookies);
* ``Secure`` cookies travel only over HTTPS (hence the attacker's
  motivation to obtain a certificate, Appendix A.2);
* ``HttpOnly`` cookies are invisible to JavaScript (so content-only
  attackers — static hosting, CMS — can steal only non-HttpOnly ones,
  Table 4 / Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional

from repro.dns.names import is_subdomain_of, normalize_name


@dataclass(frozen=True)
class Cookie:
    """One cookie as stored in a browser."""

    name: str
    value: str
    domain: str
    path: str = "/"
    secure: bool = False
    http_only: bool = False
    same_site: str = "Lax"
    expires: Optional[datetime] = None
    is_authentication: bool = False

    def applies_to(self, host: str) -> bool:
        """Domain-match: host equals the cookie domain or is below it."""
        return is_subdomain_of(host, self.domain)

    def sendable(self, host: str, scheme: str) -> bool:
        """Whether a request to ``scheme://host`` carries this cookie."""
        if not self.applies_to(host):
            return False
        if self.secure and scheme != "https":
            return False
        return True

    def javascript_accessible(self) -> bool:
        """Whether ``document.cookie`` exposes this cookie."""
        return not self.http_only


class CookieJar:
    """A browser's cookie store."""

    def __init__(self) -> None:
        self._cookies: Dict[tuple, Cookie] = {}

    def set(self, cookie: Cookie) -> None:
        """Store (or overwrite) a cookie keyed by (domain, name, path)."""
        key = (normalize_name(cookie.domain), cookie.name, cookie.path)
        self._cookies[key] = cookie

    def all(self) -> List[Cookie]:
        """Every stored cookie."""
        return list(self._cookies.values())

    def cookies_for(self, host: str, scheme: str = "http") -> List[Cookie]:
        """Cookies a request to ``scheme://host`` would carry."""
        return [c for c in self._cookies.values() if c.sendable(host, scheme)]

    def __len__(self) -> int:
        return len(self._cookies)
