"""The paper's methodology: collection, monitoring, detection, analysis.

This package is the primary contribution being reproduced — everything
else in :mod:`repro` is substrate.  The pipeline mirrors Figure 25:

1. **Collection** (:mod:`repro.core.collection`): Algorithm 1 filters
   candidate FQDNs down to cloud-pointing ones via CNAME suffixes and
   provider IP ranges, with passive-DNS subdomain expansion.
2. **Monitoring** (:mod:`repro.core.monitoring`): weekly HTTP/S samples
   of index HTML and sitemap per FQDN (at most two requests, per the
   paper's ethics protocol), deduplicated into content states.
3. **Detection** (:mod:`repro.core.detection`,
   :mod:`repro.core.signatures`, :mod:`repro.core.keywords`): change
   detection, signature extraction from co-changing asset clusters,
   benign-corpus validation, and signature matching.
4. **Analysis** (the remaining modules): every table and figure of
   Sections 4-6.

:mod:`repro.core.scenario` drives a full three-year world end to end.
"""
