"""Outside-in benchmark of the crawl, scan, surface-audit and
process-crawl workloads; see ``perfbench/run.py``."""
