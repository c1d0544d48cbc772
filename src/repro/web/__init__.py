"""A small JSON/HTTP facade over the retrieval system.

The paper's system is "an interactive web based application" (Tomcat +
JSP); this package is the same two-role surface as a route table,
served over HTTP by :mod:`repro.serving`:

- ``POST /admin/videos``     -- upload a video (RVF body) + metadata
- ``DELETE /admin/videos/N`` -- delete a video
- ``GET  /videos``           -- list stored videos
- ``GET  /videos/N``         -- one video's metadata + key-frame ids
- ``GET  /frames/N``         -- a key frame as a PPM image
- ``POST /search``           -- query by frame (PPM body), ranked JSON out

Authentication mirrors the paper's admin login: admin endpoints require the
configured password in the ``X-Admin-Password`` header.
"""

from repro.web.api import ApiError, CbvrApi

__all__ = ["CbvrApi", "ApiError"]
