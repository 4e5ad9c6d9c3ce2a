"""Removed: sharded crawl storage and its merge.

Process crawls persist records through the single-writer broker in
:mod:`repro.sched.procpool`; there are no shard databases to merge.
"""

from __future__ import annotations

from typing import Any, NoReturn


# Kept only as the ``openwpm.merge`` layer target in perfbench/layers.py.
def merge_shards(*args: Any, **kwargs: Any) -> NoReturn:
    raise RuntimeError(
        "sharded crawl storage was removed; process crawls write "
        "through the single-writer broker and need no merge")
