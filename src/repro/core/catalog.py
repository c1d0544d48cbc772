"""Schema bootstrap: the paper's two tables (Fig. 1 ER diagram, §3.4 DDL).

Deviations from the paper's DDL, each forced by real measurements:

- Feature strings are longer than Oracle's VARCHAR2(1500) allows (a 256-bin
  correlogram with float repr easily exceeds 4000 chars), so the feature
  columns here are VARCHAR2(65000).
- ``KEY_FRAMES`` gains ``ACC``, ``NAIVE`` and ``REGIONS`` columns: the
  paper's evaluation uses the correlogram, naive and region features but its
  printed DDL has no columns for them (it stores only ``MAJORREGIONS``).
- ``VIDEO_STORE`` gains a ``CATEGORY`` column: the corpus is organized by
  category ("e-learning, sports, cartoon, movies, etc.", §5) and the
  relevance ground truth needs it.
- ``VIDEO_STORE`` keeps a ``MOTION`` column, always written NULL.  It once
  held a clip-level motion descriptor; it stays so that libraries and log
  tails written with a descriptor in it still open and replay.
"""

from __future__ import annotations

from repro.db.engine import Database

__all__ = [
    "VIDEO_STORE_DDL",
    "KEY_FRAMES_DDL",
    "FEATURE_COLUMNS",
    "bootstrap",
    "is_bootstrapped",
]

#: Feature registry name -> KEY_FRAMES column.
FEATURE_COLUMNS = {
    "sch": "SCH",
    "glcm": "GLCM",
    "gabor": "GABOR",
    "tamura": "TAMURA",
    "acc": "ACC",
    "ehd": "EHD",
    "naive": "NAIVE",
    "regions": "REGIONS",
}

VIDEO_STORE_DDL = """
CREATE TABLE "VIDEO_STORE" (
  "V_ID"     NUMBER NOT NULL ENABLE,
  "V_NAME"   VARCHAR2(60),
  "CATEGORY" VARCHAR2(40),
  "VIDEO"    ORD_VIDEO,
  "STREAM"   BLOB,
  "MOTION"   VARCHAR2(4000),
  "DOSTORE"  DATE,
  PRIMARY KEY ("V_ID") ENABLE
)
"""

KEY_FRAMES_DDL = """
CREATE TABLE "KEY_FRAMES" (
  "I_ID"         NUMBER NOT NULL ENABLE,
  "I_NAME"       VARCHAR2(80) NOT NULL ENABLE,
  "IMAGE"        ORD_IMAGE,
  "MIN"          NUMBER,
  "MAX"          NUMBER,
  "SCH"          VARCHAR2(65000),
  "GLCM"         VARCHAR2(65000),
  "GABOR"        VARCHAR2(65000),
  "TAMURA"       VARCHAR2(65000),
  "ACC"          VARCHAR2(65000),
  "EHD"          VARCHAR2(65000),
  "NAIVE"        VARCHAR2(65000),
  "REGIONS"      VARCHAR2(65000),
  "MAJORREGIONS" NUMBER,
  "V_ID"         NUMBER,
  PRIMARY KEY ("I_ID") ENABLE
)
"""


def is_bootstrapped(db: Database) -> bool:
    """True if both system tables exist."""
    names = set(db.table_names())
    return {"VIDEO_STORE", "KEY_FRAMES"} <= names


def bootstrap(db: Database) -> None:
    """Create the system tables (idempotent) and the V_ID secondary index."""
    names = set(db.table_names())
    if "VIDEO_STORE" not in names:
        db.execute(VIDEO_STORE_DDL)
    if "KEY_FRAMES" not in names:
        db.execute(KEY_FRAMES_DDL)
    db.create_index("KEY_FRAMES", "V_ID")
