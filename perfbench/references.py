"""Recorded outputs that the ``crawl`` and ``scan`` checks compare with.

A run's seed selects one of :data:`WORLD_POOL` synthetic worlds (or the
holdout world, for :data:`HOLDOUT_SEED`), and the first sites of every
world have a recorded reference in ``perfbench/references/``:

- ``crawl``: one digest per front page over every database row tied to
  that site (rows of tables with a ``visit_id`` or a ``site_url``
  column), written by a sequential in-memory crawl;
- ``scan``: per site, a digest of its combined and front-page
  classifications plus the site's share of Tables 5, 6 and 11, so the
  recorded table counts of any prefix of sites are a sum.

The references are a fixed answer: a change that alters these outputs on
both sides of the runs' differential checks still fails a run. Rewrite
them (``python3 perfbench/record.py``) only for an intended change of
the program's output, and say why in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sqlite3
from collections import defaultdict
from typing import Any, Dict, List

DIRECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "references")
#: Seeds select one of this many recorded worlds (world seed = seed mod
#: pool).
WORLD_POOL = 16
#: A world no baseline run uses; a later performance claim must also
#: hold on it.
HOLDOUT_SEED = 7919
#: Sites recorded per world, from the first; far more than a run visits.
RECORDED_SITES = {"crawl": 600, "scan": 400}

#: Crawl tables whose bytes differ between equivalent crawls: telemetry
#: depends on scheduling, sqlite_sequence tracks its AUTOINCREMENT.
VOLATILE_TABLES = ("telemetry", "sqlite_sequence")

#: ``SiteServer._analytics_beacon`` derives the ``_fp_uid`` cookie from
#: the server object's ``id()``, so each build of a world serves other
#: values; they are masked wherever they appear.
_UID = re.compile(r"\b[0-9a-f]{20}\b")
_UID_MASK = "<_fp_uid>"
_DIGEST_HEX = 12


def world_seed(seed: int) -> int:
    """The recorded world a run's ``--seed`` selects."""
    return seed if seed == HOLDOUT_SEED else seed % WORLD_POOL


def worlds() -> List[int]:
    """Every world with a recorded reference."""
    return [*range(WORLD_POOL), HOLDOUT_SEED]


def path(world: int) -> str:
    return os.path.join(DIRECTORY, f"world-{world}.json")


def load(world: int, world_sites: Dict[str, int]) -> Dict[str, Any]:
    """The recording of *world*, which must have been made on worlds of
    the given sizes (``{"crawl": n, "scan": n}``)."""
    with open(path(world)) as handle:
        reference = json.load(handle)
    for workload, sites in world_sites.items():
        if reference[f"{workload}_world_sites"] != sites:
            raise ValueError(f"{path(world)} was recorded on a "
                             f"{workload} world of "
                             f"{reference[f'{workload}_world_sites']} "
                             f"sites, not {sites}")
    return reference


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[
        :_DIGEST_HEX]


# ----------------------------------------------------------------------
# crawl
# ----------------------------------------------------------------------
def crawl_digests(conn: sqlite3.Connection) -> Dict[str, str]:
    """site -> digest of every row tied to the site.

    The per-table ``id`` surrogate is left out, so one extra row fails
    only its own site instead of shifting every later one. Rows of a
    ``visit_id`` that has no ``site_visits`` row are booked to ``""``.
    """
    uids = {value for (value,) in conn.execute(
        "SELECT value FROM javascript_cookies WHERE name = '_fp_uid'")}

    def mask(cell: Any) -> Any:
        if isinstance(cell, str) and uids:
            return _UID.sub(lambda m: _UID_MASK if m.group() in uids
                            else m.group(), cell)
        return cell

    sites = dict(conn.execute("SELECT visit_id, site_url FROM site_visits"))
    grouped: Dict[str, List[str]] = defaultdict(list)
    tables = [row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name")]
    for table in tables:
        if table in VOLATILE_TABLES:
            continue
        columns = [col[1] for col in conn.execute(
            f"PRAGMA table_info({table})")]
        if "visit_id" in columns:
            at = columns.index("visit_id")
            key = lambda row: sites.get(row[at], "")  # noqa: E731
        elif "site_url" in columns:
            at = columns.index("site_url")
            key = lambda row: row[at]  # noqa: E731
        else:
            continue
        keep = [i for i, name in enumerate(columns) if name != "id"]
        for row in conn.execute(f"SELECT * FROM {table}"):
            grouped[key(row)].append(
                repr((table, *(mask(row[i]) for i in keep))))
    return {site: _digest(sorted(lines)) for site, lines in grouped.items()}


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------
def _canonical(classification: Any) -> str:
    return json.dumps(dataclasses.asdict(classification), sort_keys=True,
                      default=sorted)


def scan_record(dataset: Any, site: str) -> list:
    """``[digest, table5 flags, table11 flags, table6 share]`` of one
    scanned site."""
    from repro.net.url import etld_plus_one

    combined, front = dataset.combined[site], dataset.front_only[site]
    providers: Dict[str, set] = {}
    for prop, hosts in combined.openwpm_probes.items():
        for host in hosts:
            providers.setdefault(etld_plus_one(host), set()).add(prop)
    flags5 = "".join("1" if value else "0" for value in (
        combined.static_identified, combined.dynamic_identified,
        combined.static_clean, combined.dynamic_clean))
    flags11 = "".join("1" if value else "0" for value in (
        front.static_clean, front.dynamic_clean))
    return [_digest([_canonical(combined), _canonical(front)]), flags5,
            flags11, {provider: sorted(props)
                      for provider, props in sorted(providers.items())}]


def expected_tables(records: List[list]) -> Dict[str, Any]:
    """Tables 5, 6 and 11 of the sites with these records, summed from
    the recorded per-site shares."""
    t5 = [0] * 6  # static, dynamic, union; then their clean counts
    t11 = [0] * 3
    t6: Dict[str, Dict[str, int]] = {}
    for _, flags5, flags11, providers in records:
        si, di, sc, dc = (flag == "1" for flag in flags5)
        for index, hit in enumerate((si, di, si or di, sc, dc, sc or dc)):
            t5[index] += hit
        fs, fd = (flag == "1" for flag in flags11)
        for index, hit in enumerate((fs, fd, fs or fd)):
            t11[index] += hit
        for provider, props in providers.items():
            stats = t6.setdefault(provider, {"total": 0})
            stats["total"] += 1
            for prop in props:
                stats[prop] = stats.get(prop, 0) + 1
    total = max(len(records), 1)
    return {
        "table5": {"identified": dict(zip(("static", "dynamic", "union"),
                                          t5[:3])),
                   "clean": dict(zip(("static", "dynamic", "union"),
                                     t5[3:]))},
        "table6": t6,
        "table11": {"static": t11[0], "dynamic": t11[1],
                    "combined": t11[2], "static_rate": t11[0] / total,
                    "dynamic_rate": t11[1] / total,
                    "combined_rate": t11[2] / total},
    }
