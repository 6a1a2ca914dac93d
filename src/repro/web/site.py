"""Sites: the content units that cloud resources serve.

A *site* is anything with a ``handle(request) -> response`` method.
:class:`StaticSite` is the standard implementation: a path-addressed
page store with an index page, an optional sitemap and robots.txt.
Attacker sites (cloaking, clickjacking) wrap or subclass it in
:mod:`repro.attacker`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, runtime_checkable

from repro.web.http import HttpRequest, HttpResponse, not_found
from repro.web.sitemap import Sitemap


@runtime_checkable
class Site(Protocol):
    """Anything that can answer HTTP requests for one hostname."""

    def handle(self, request: HttpRequest) -> HttpResponse:
        ...


class StaticSite:
    """A path-to-content store, the common case for cloud resources.

    Pages are stored as raw strings (HTML, XML, binary-ish blobs for
    the malware analysis).  ``page_count`` counts HTML pages — the unit
    of Figure 6's upload-volume histogram.
    """

    def __init__(self, default_headers: Optional[Dict[str, str]] = None):
        self._pages: Dict[str, str] = {}
        self._content_types: Dict[str, str] = {}
        self.default_headers: Dict[str, str] = dict(default_headers or {})
        #: Set by :meth:`bind_journal` when a cloud provider adopts the
        #: site.  ``journal_key`` is the site's stable identity in the
        #: world journal; content edits bump ``("site", journal_key)``
        #: so ledger sweeps can trust an untouched revision.
        self._journal = None
        self.journal_key = None

    # -- authoring -----------------------------------------------------------

    def bind_journal(self, journal, key) -> None:
        """Publish future content changes under ``("site", key)``."""
        self._journal = journal
        self.journal_key = key

    def _bump(self) -> None:
        if self._journal is not None:
            self._journal.bump("site", self.journal_key)

    def put(self, path: str, body: str, content_type: str = "text/html") -> None:
        """Create or overwrite the content at ``path``."""
        if not path.startswith("/"):
            raise ValueError(f"path must start with '/': {path!r}")
        self._pages[path] = body
        self._content_types[path] = content_type
        self._bump()

    def put_index(self, body: str) -> None:
        """Set the index page."""
        self.put("/", body)

    def put_sitemap(self, sitemap: Sitemap) -> None:
        """Install a sitemap at /sitemap.xml."""
        self.put("/sitemap.xml", sitemap.render(), content_type="application/xml")

    def remove(self, path: str) -> None:
        """Delete the content at ``path`` (missing paths are an error)."""
        if path not in self._pages:
            raise KeyError(path)
        del self._pages[path]
        del self._content_types[path]
        self._bump()

    # -- introspection ----------------------------------------------------------

    def paths(self) -> list:
        """All populated paths, sorted."""
        return sorted(self._pages)

    def has_path(self, path: str) -> bool:
        return path in self._pages

    def get(self, path: str) -> Optional[str]:
        """Raw content at ``path`` or ``None``."""
        return self._pages.get(path)

    def page_count(self, content_type: str = "text/html") -> int:
        """Number of pages of the given content type."""
        return sum(1 for ct in self._content_types.values() if ct == content_type)

    def total_bytes(self) -> int:
        """Total stored content size in bytes."""
        return sum(len(body.encode("utf-8")) for body in self._pages.values())

    # -- serving ------------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve the content at the requested path, or 404."""
        body = self._pages.get(request.path)
        if body is None:
            return not_found()
        response = HttpResponse(
            status=200,
            body=body,
            content_type=self._content_types[request.path],
            headers=dict(self.default_headers),
        )
        return response


class CallableSite:
    """Adapter turning a plain function into a :class:`Site`."""

    def __init__(self, handler: Callable[[HttpRequest], HttpResponse]):
        self._handler = handler

    def handle(self, request: HttpRequest) -> HttpResponse:
        return self._handler(request)
