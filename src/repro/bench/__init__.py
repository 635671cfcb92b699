"""Result provenance shared by every measured document.

The wall-clock benchmark and regression gate live outside the package,
in ``benchmarks/ladder/`` (``run.py --out`` measures, ``run.py
--compare`` gates; ``BENCH_ladder.json`` is the committed record).  What
stays here is what those documents and the campaign store share: the
``meta`` provenance block and the config content address.
"""

from .history import SCHEMA_VERSION, config_hash, git_sha, make_meta

__all__ = ["SCHEMA_VERSION", "make_meta", "git_sha", "config_hash"]
