"""The ANN metric families, apart from the index that fills them: an
engine with ``config.ann`` off registers them without importing
:mod:`repro.indexing.ann`."""

from __future__ import annotations

from typing import Dict

from repro.obs import Obs

__all__ = ["register_metrics"]

#: count-style histogram buckets for probe fan-out metrics
_COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  1024.0, 4096.0, 16384.0, 65536.0)


def register_metrics(obs: Obs) -> Dict[str, object]:
    """Get-or-create the ANN metric families on ``obs``.

    Called by :class:`IVFIndex` and by engines with ANN disabled, so the
    families always appear in a ``/metrics`` scrape (at zero) regardless
    of configuration.
    """
    return {
        "builds": obs.counter(
            "repro_ann_builds_total", "IVF coarse-quantizer (re)trainings."
        ),
        "probes": obs.counter(
            "repro_ann_probes_total", "IVF probe calls."
        ),
        "incremental": obs.counter(
            "repro_ann_incremental_total",
            "Frames folded into the trained index without a retrain.",
            labelnames=("op",),
        ),
        "cells_probed": obs.histogram(
            "repro_ann_cells_probed",
            "Cells visited per probe.",
            buckets=_COUNT_BUCKETS,
        ),
        "candidates": obs.histogram(
            "repro_ann_candidates",
            "Candidate frames returned per probe (incl. residuals).",
            buckets=_COUNT_BUCKETS,
        ),
    }
