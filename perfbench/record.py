#!/usr/bin/env python3
"""Record the reference outputs the ``crawl`` and ``scan`` checks use.

    python3 perfbench/record.py [--worlds 0 1 ... 7919] [--check]

For each world, a sequential in-memory crawl of its first front pages
and a scan of its first sites write ``perfbench/references/world-<n>.json``
(see ``perfbench/references.py``). ``--check`` records into memory and
compares with the committed files instead, exit 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import monotonic

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import references, workloads  # noqa: E402


def record(world_seed: int) -> dict:
    from repro.core.scan import ScanPipeline
    from repro.web import build_world

    crawl_sites = references.RECORDED_SITES["crawl"]
    world = build_world(site_count=workloads.CRAWL_SITES, seed=world_seed)
    manager = workloads._crawl_manager(world.network, ":memory:",
                                       world_seed)
    try:
        urls = world.front_urls(crawl_sites)
        manager.crawl(urls)
        digests = references.crawl_digests(manager.storage.connection)
    finally:
        manager.close()
    if set(digests) != set(urls):
        raise SystemExit(f"world {world_seed}: crawl rows tied to "
                         f"{len(digests)} sites, not {len(urls)}")

    scan_sites = references.RECORDED_SITES["scan"]
    world = build_world(site_count=workloads.SCAN_SITES, seed=world_seed)
    dataset = ScanPipeline(world, client_id=workloads.SCAN_CLIENT).run(
        site_limit=scan_sites, visit_subpages=True)
    dataset.corpus.close()
    domains = [config.domain for config in world.configs[:scan_sites]]
    return {
        "world_seed": world_seed,
        "crawl_world_sites": workloads.CRAWL_SITES,
        "scan_world_sites": workloads.SCAN_SITES,
        "crawl": [digests[url] for url in urls],
        "scan": [references.scan_record(dataset, domain)
                 for domain in domains],
    }


def write(reference: dict, path: str) -> None:
    """One site per line, so a changed site shows as a one-line diff."""
    lines = ["{"]
    for key in ("world_seed", "crawl_world_sites", "scan_world_sites"):
        lines.append(f' "{key}": {json.dumps(reference[key])},')
    for key in ("crawl", "scan"):
        lines.append(f' "{key}": [')
        rows = [json.dumps(row, sort_keys=True) for row in reference[key]]
        lines.append(",\n".join("  " + row for row in rows))
        lines.append(" ]," if key == "crawl" else " ]")
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--worlds", type=int, nargs="+",
                        default=references.worlds())
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(references.DIRECTORY, exist_ok=True)
    differing = []
    for world_seed in args.worlds:
        started = monotonic()
        reference = record(world_seed)
        if args.check:
            if reference != references.load(world_seed, {
                    "crawl": workloads.CRAWL_SITES,
                    "scan": workloads.SCAN_SITES}):
                differing.append(world_seed)
        else:
            write(reference, references.path(world_seed))
        print(f"world {world_seed}: {monotonic() - started:.0f} s",
              flush=True)
    if differing:
        print(f"differs from the recording: worlds {differing}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
