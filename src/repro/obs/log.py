"""Structured logging: stdlib-backed ``key=value`` event loggers.

Every module logs through a :class:`KvLogger`::

    from repro.obs import log
    logger = log.get_logger(__name__)
    logger.info("ingest.video", video_id=3, frames=120, keyframes=9)
    # 2026-08-06 12:00:00 INFO repro.core.ingest ingest.video video_id=3 frames=120 keyframes=9

All loggers hang off the ``repro`` stdlib logger, which gets one stderr
handler the first time anything logs (unless the application configured
handlers itself -- the handler is only attached when the ``repro`` logger
has none, so embedding applications stay in control).  The level comes
from the ``REPRO_LOG_LEVEL`` environment variable (default ``WARNING``)
and can be changed at runtime with :func:`set_level`.

When a span is open on the emitting thread, every line gains a trailing
``trace=<id>`` field.  The id travels with the distributed trace context
into shard workers, so coordinator and worker lines for one query grep
together: ``grep trace=4f2a... coordinator.log worker-*.log``.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Optional, Union

from repro.obs import tracing

__all__ = ["KvLogger", "get_logger", "set_level", "kv_format", "LOG_LEVEL_ENV_VAR"]

#: environment override for the initial log level
LOG_LEVEL_ENV_VAR = "REPRO_LOG_LEVEL"

_ROOT_NAME = "repro"
_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

_configured = False
_config_lock = threading.Lock()
_loggers: Dict[str, "KvLogger"] = {}


def _coerce_level(level: Union[int, str]) -> int:
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).strip().upper())
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level {level!r}")
    return resolved


def _ensure_configured() -> logging.Logger:
    """Attach the default handler/level to the ``repro`` logger once."""
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    if _configured:
        return root
    with _config_lock:
        if _configured:
            return root
        if not root.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(logging.Formatter(_FORMAT))
            root.addHandler(handler)
            root.propagate = False
        if root.level == logging.NOTSET:
            env = os.environ.get(LOG_LEVEL_ENV_VAR, "").strip()
            try:
                root.setLevel(_coerce_level(env) if env else logging.WARNING)
            except ValueError:
                root.setLevel(logging.WARNING)
        _configured = True
    return root


def set_level(level: Union[int, str]) -> None:
    """Set the level of the whole ``repro`` logger tree."""
    _ensure_configured().setLevel(_coerce_level(level))


def kv_format(event: str, fields: Dict[str, object]) -> str:
    """``event key=value ...`` with values kept grep-friendly."""
    parts = [event]
    for key, value in fields.items():
        if isinstance(value, float):
            rendered = format(value, ".6g")
        elif isinstance(value, str):
            rendered = value if value and " " not in value else repr(value)
        else:
            rendered = str(value)
        parts.append(f"{key}={rendered}")
    return " ".join(parts)


class KvLogger:
    """Thin wrapper turning ``(event, **fields)`` into one formatted line."""

    __slots__ = ("_logger",)

    def __init__(self, logger: logging.Logger):
        self._logger = logger

    @property
    def stdlib(self) -> logging.Logger:
        return self._logger

    def _emit(self, level: int, event: str, fields: Dict[str, object]) -> None:
        if self._logger.isEnabledFor(level):
            trace_id = tracing.current_trace_id()
            if trace_id is not None:
                fields["trace"] = trace_id
            self._logger.log(level, kv_format(event, fields))

    def debug(self, event: str, **fields: object) -> None:
        self._emit(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: object) -> None:
        self._emit(logging.INFO, event, fields)

    def warning(self, event: str, **fields: object) -> None:
        self._emit(logging.WARNING, event, fields)

    def error(self, event: str, **fields: object) -> None:
        self._emit(logging.ERROR, event, fields)

    def exception(self, event: str, **fields: object) -> None:
        """ERROR with the current exception's traceback appended."""
        if self._logger.isEnabledFor(logging.ERROR):
            trace_id = tracing.current_trace_id()
            if trace_id is not None:
                fields["trace"] = trace_id
            self._logger.error(kv_format(event, fields), exc_info=True)


def get_logger(name: Optional[str] = None) -> KvLogger:
    """The module's :class:`KvLogger` (cached; always under ``repro``)."""
    _ensure_configured()
    if not name:
        full = _ROOT_NAME
    elif name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        full = name
    else:
        full = f"{_ROOT_NAME}.{name}"
    logger = _loggers.get(full)
    if logger is None:
        logger = _loggers.setdefault(full, KvLogger(logging.getLogger(full)))
    return logger
