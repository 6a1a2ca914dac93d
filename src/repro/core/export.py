"""JSON export of measurement results.

A measurement pipeline's output outlives the pipeline: the paper's
dataset fed notifications, follow-up analyses and (eventually) this
reproduction.  These helpers serialize the abuse dataset to plain
JSON-compatible structures so downstream tooling can consume it
without the simulator.
"""

from __future__ import annotations

import json
from datetime import datetime
from typing import Any, Dict, Optional

from repro.core.detection import AbuseDataset, AbuseRecord

_TIME_FORMAT = "%Y-%m-%dT%H:%M:%S"


def _dump_time(value: Optional[datetime]) -> Optional[str]:
    return value.strftime(_TIME_FORMAT) if value is not None else None


def record_to_dict(record: AbuseRecord) -> Dict[str, Any]:
    """One abuse record as a JSON-compatible dict."""
    return {
        "fqdn": record.fqdn,
        "first_detected": _dump_time(record.first_detected),
        "episodes": [
            {
                "started_at": _dump_time(e.started_at),
                "last_matched": _dump_time(e.last_matched),
                "ended_at": _dump_time(e.ended_at),
            }
            for e in record.episodes
        ],
        "signature_ids": sorted(record.signature_ids),
        "indicator_combinations": sorted(
            sorted(combo) for combo in record.indicator_combinations
        ),
        "topics": sorted(t.value for t in record.topics),
        "keywords": sorted(record.keywords),
        "max_sitemap_count": record.max_sitemap_count,
        "max_sitemap_size": record.max_sitemap_size,
        "match_count": record.match_count,
    }


def dataset_to_json(dataset: AbuseDataset, indent: Optional[int] = None) -> str:
    """Serialize a full abuse dataset to a JSON string."""
    payload = {
        "records": [record_to_dict(r) for r in dataset.records()],
        "monthly_cumulative": dict(dataset.monthly_cumulative),
    }
    return json.dumps(payload, indent=indent, ensure_ascii=False)
