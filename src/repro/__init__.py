"""repro -- a full reproduction of "Content Based Video Retrieval"
(B. V. Patel & B. B. Meshram, IJMA Vol. 4 No. 5, 2012).

The package implements the paper's complete system from scratch:

- :mod:`repro.imaging` -- NumPy imaging substrate (replaces Java JAI)
- :mod:`repro.video` -- video container format, synthetic corpus generator,
  and the §4.1 key-frame extraction algorithm
- :mod:`repro.features` -- the seven feature extractors of §4.3-4.8
- :mod:`repro.indexing` -- the §4.2 histogram range-finder index
- :mod:`repro.similarity` -- distance measures, DP sequence similarity and
  feature fusion
- :mod:`repro.db` -- a thin facade over the stdlib sqlite3 (replaces Oracle 9i)
- :mod:`repro.core` -- the retrieval system proper (admin + user roles)
- :mod:`repro.eval` -- ground truth, precision metrics, simulated user study,
  and the Table 1 experiment driver
- :mod:`repro.web` -- a small JSON HTTP facade over the system
- :mod:`repro.analysis` -- reprolint, the project-native static analyzer
  that enforces the registry/feature-string/SQL/purity contracts in CI

Quickstart::

    from repro import VideoRetrievalSystem, make_corpus

    system = VideoRetrievalSystem.in_memory()
    for video in make_corpus(videos_per_category=2, seed=7):
        system.admin.add_video(video)
    results = system.search(system.any_key_frame(), top_k=10)

Public names are imported lazily so that ``import repro`` stays cheap.
"""

__version__ = "1.0.0"


def _lazy_getattr(namespace, table):
    """A module ``__getattr__`` that imports ``table[name]`` on the first
    use of ``name`` and keeps the value in the module's ``namespace``."""

    def __getattr__(name):
        try:
            module_name = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        import importlib

        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    return __getattr__


_LAZY = {
    "VideoRetrievalSystem": "repro.core.system",
    "SystemConfig": "repro.core.config",
    "CATEGORIES": "repro.video.generator",
    "SyntheticVideo": "repro.video.generator",
    "VideoSpec": "repro.video.generator",
    "generate_video": "repro.video.generator",
    "make_corpus": "repro.video.generator",
    "Image": "repro.imaging.image",
}

__all__ = sorted(_LAZY) + ["__version__"]

__getattr__ = _lazy_getattr(globals(), _LAZY)


def __dir__():
    return __all__
