"""Domain-name handling.

Names are represented as lower-case, dot-separated strings without the
trailing root dot (``"app.example.com"``).  A small embedded public
suffix list supports extracting the *registered domain* (the paper's
"second-level domain", SLD) — the unit of WHOIS ownership, registrar
attribution and Tranco ranking.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

Name = str

#: Multi-label public suffixes relevant to the paper's dataset (Table 6
#: lists uk/au/br/jp/co among the top TLDs, all of which register under
#: second-level suffixes).  Single-label TLDs need no listing: any
#: unknown TLD falls back to one-label suffix behaviour.
_MULTI_LABEL_SUFFIXES = frozenset(
    {
        "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk",
        "com.au", "net.au", "org.au", "edu.au", "gov.au",
        "com.br", "net.br", "org.br", "gov.br", "edu.br",
        "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
        "com.co", "net.co", "edu.co",
        "co.nz", "org.nz", "ac.nz",
        "co.in", "net.in", "org.in", "ac.in",
        "com.cn", "net.cn", "org.cn", "edu.cn",
        "com.sg", "edu.sg",
        "co.id", "ac.id", "go.id",
        "com.mx", "edu.mx",
        "co.za", "ac.za",
    }
)


class InvalidNameError(ValueError):
    """Raised for syntactically invalid domain names."""


#: Memo of valid input → normalized form.  ``normalize_name`` is pure
#: and sits on the resolver's hottest path (every lookup normalizes the
#: query name, each CNAME hop and each zone-walk candidate); the set of
#: distinct names in a run is bounded, so an unbounded memo is safe.
_NORMALIZED: dict = {}


def normalize_name(name: str) -> Name:
    """Lower-case ``name`` and strip any trailing root dot.

    Raises :class:`InvalidNameError` for empty names or empty labels.
    """
    cached = _NORMALIZED.get(name)
    if cached is not None:
        return cached
    stripped = name.strip().rstrip(".").lower()
    if not stripped:
        raise InvalidNameError(f"empty domain name: {name!r}")
    labels = stripped.split(".")
    if any(not label for label in labels):
        raise InvalidNameError(f"empty label in domain name: {name!r}")
    _NORMALIZED[name] = stripped
    return stripped


def split_name(name: Name) -> List[str]:
    """Return the labels of ``name``, left to right."""
    return normalize_name(name).split(".")


def parent_name(name: Name) -> Optional[Name]:
    """The name with its leftmost label removed, or ``None`` at a TLD."""
    labels = split_name(name)
    if len(labels) <= 1:
        return None
    return ".".join(labels[1:])


def is_subdomain_of(name: Name, ancestor: Name) -> bool:
    """Whether ``name`` equals or is beneath ``ancestor``."""
    name_n = normalize_name(name)
    ancestor_n = normalize_name(ancestor)
    return name_n == ancestor_n or name_n.endswith("." + ancestor_n)


def ends_with_any(name: Name, suffixes: Tuple[Name, ...]) -> Optional[Name]:
    """Return the first suffix that ``name`` falls under, else ``None``.

    This is the ``CNAME.ends_with_any(cloud_suffixes)`` test of
    Algorithm 1.
    """
    for suffix in suffixes:
        if is_subdomain_of(name, suffix):
            return suffix
    return None


def public_suffix(name: Name) -> Name:
    """The public suffix of ``name`` (``"co.uk"`` for ``"x.foo.co.uk"``)."""
    labels = split_name(name)
    if len(labels) >= 2:
        candidate = ".".join(labels[-2:])
        if candidate in _MULTI_LABEL_SUFFIXES:
            return candidate
    return labels[-1]


def registered_domain(name: Name) -> Optional[Name]:
    """The registrable (second-level) domain of ``name``.

    ``None`` when ``name`` *is* a public suffix and therefore has no
    registrable part.
    """
    normalized = normalize_name(name)
    suffix = public_suffix(normalized)
    if normalized == suffix:
        return None
    prefix = normalized[: -(len(suffix) + 1)]
    owner_label = prefix.split(".")[-1]
    return f"{owner_label}.{suffix}"


def tld_of(name: Name) -> str:
    """The rightmost label of ``name`` (the paper's Table 6 unit)."""
    return split_name(name)[-1]
