"""The benchmark's four workloads, driven through the program's own
entry points, plus the output check of each.

Every workload runs ops in a closed loop (one op at a time per worker)
for ``seconds`` and reports a :class:`Outcome`. In probe mode a workload
stops at the start of its first op and only reports that instant, which
is how the runner measures set-up time in fresh interpreters.

One op is one site for ``crawl``, ``scan`` (front page plus up to three
same-site subpages) and ``crawl-procs``, and one Table 2 audit for
``surface``.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import sqlite3
from dataclasses import dataclass, field
from time import monotonic, process_time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from perfbench import references
from perfbench.layers import Tracer

#: Synthetic Tranco sites built for ``crawl``; far more than a run visits.
CRAWL_SITES = 3000
#: Sites built for ``scan``.
SCAN_SITES = 2000
#: Lab URLs enqueued for ``crawl-procs``.
PROCS_SITES = 20000
#: In-process workloads report peak memory over set-up and this many
#: ops, so a faster program (more ops per run, fuller caches) does not
#: read as a heavier one. Reached within 10 s even on a slow host.
#: ``crawl``'s one browser keeps memory from every visit, by an amount
#: that depends on the world (see ``baseline/NOTES.md``); its peak is
#: read early, and the growth after it is the per-layer metric
#: ``runtime.rss_growth_kb_per_op``.
RSS_OPS = {"crawl": 20, "scan": 60, "surface": 100}
SCAN_CLIENT = "perfbench-scan"

#: (os, display mode) -> Table 2 (webgl deviations, language additions,
#: tampered functions, custom functions) as the paper reports them and
#: ``benchmarks/bench_table02_fingerprint_surface.py`` pins them.
TABLE2: Dict[Tuple[str, str], Tuple[int, int, int, int]] = {
    ("macos", "regular"): (0, 0, 253, 1),
    ("macos", "headless"): (2037, 43, 253, 1),
    ("ubuntu", "regular"): (0, 0, 252, 1),
    ("ubuntu", "headless"): (2061, 43, 252, 1),
    ("ubuntu", "xvfb"): (18, 0, 252, 1),
    ("ubuntu", "docker"): (27, 0, 252, 1),
}


@dataclass
class Context:
    seed: int
    seconds: float
    #: Scratch directory for this run's databases and queues.
    work: str
    probe: bool = False
    #: Run the output check (skipped only for the untraced throughput
    #: reference of a traced run).
    check: bool = True
    tracer: Optional[Tracer] = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


@dataclass
class Outcome:
    """One run's measurements (times are ``time.monotonic`` seconds)."""

    first_op: float
    #: The measured window: ops counted in it completed inside it.
    start: float = 0.0
    end: float = 0.0
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    #: Ops attempted that did not complete.
    failed: int = 0
    #: Completed ops whose output failed the check.
    check_failed: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)
    check: Dict[str, Any] = field(default_factory=dict)
    #: Layer values only the workload can read (ratios, queue rows).
    layer_values: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def rss_kb() -> float:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    # utime and stime are fields 14 and 15 of stat(5); fields[0] is 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def patched(owner: Any, name: str, value: Any):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# In-process timing
# ----------------------------------------------------------------------
class OpClock:
    """Times each op of an in-process closed loop and says when the
    run's ``seconds`` are up."""

    def __init__(self, ctx: Context, rss_ops: int) -> None:
        self.ctx = ctx
        self.rss_ops = rss_ops
        self.rss_mb: Optional[float] = None
        self._rss_kb_at_mark = 0.0
        self.first_op = 0.0
        self.deadline = 0.0
        self.end = 0.0
        self.cpu_s = 0.0
        self._cpu0 = 0.0
        self.latencies: List[float] = []
        #: Keys of the completed ops, in completion order.
        self.done: List[str] = []
        self.attempted = 0
        self.failed = 0

    def begin(self) -> None:
        self.first_op = monotonic()
        self.deadline = self.first_op + self.ctx.seconds
        self._cpu0 = process_time()
        if self.ctx.tracer is not None:
            self.ctx.tracer.start()

    def finish(self) -> None:
        if self.ctx.tracer is not None:
            self.ctx.tracer.stop()
        self.end = monotonic()
        self.cpu_s = process_time() - self._cpu0

    @property
    def expired(self) -> bool:
        return monotonic() >= self.deadline

    def op(self, key: str, fn: Callable, *args: Any) -> Any:
        self.attempted += 1
        start = monotonic()
        try:
            result = fn(*args)
        except BaseException:
            self.failed += 1
            raise
        self.latencies.append(monotonic() - start)
        self.done.append(key)
        if len(self.latencies) == self.rss_ops:
            self.rss_mb = peak_rss_mb()
            self._rss_kb_at_mark = rss_kb()
        return result

    def outcome(self, **kwargs: Any) -> Outcome:
        outcome = Outcome(first_op=self.first_op, start=self.first_op,
                          end=self.end, latencies=self.latencies,
                          attempted=self.attempted, failed=self.failed,
                          cpu_s=self.cpu_s,
                          peak_rss_mb=self.rss_mb or peak_rss_mb(),
                          **kwargs)
        later_ops = len(self.latencies) - self.rss_ops
        if later_ops > 0:
            outcome.layer_values["runtime.rss_growth_kb_per_op"] = \
                (rss_kb() - self._rss_kb_at_mark) / later_ops
        return outcome


def timed_scheduler(clock: OpClock) -> type:
    """A ``CrawlScheduler`` whose ``run`` times every job through
    *clock* and stops the pool gracefully once the time is up. In probe
    mode it returns before the first job."""
    from repro.sched.scheduler import CrawlReport, CrawlScheduler

    class TimedScheduler(CrawlScheduler):
        def run(self, handler, *args, **kwargs):
            clock.begin()
            if clock.ctx.probe:
                clock.finish()
                return CrawlReport()

            def timed(job, worker_index):
                try:
                    clock.op(job.site_url, handler, job, worker_index)
                finally:
                    if clock.expired:
                        self.request_stop()

            try:
                return super().run(timed, *args, **kwargs)
            finally:
                clock.finish()

    return TimedScheduler


# ----------------------------------------------------------------------
# Crawl database comparison
# ----------------------------------------------------------------------
def dump_tables(conn: sqlite3.Connection) -> Dict[str, List[tuple]]:
    """Every row of every non-volatile table, fully ordered."""
    out = {}
    tables = [row[0] for row in conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name")]
    for table in tables:
        if table in references.VOLATILE_TABLES:
            continue
        columns = [col[1] for col in conn.execute(
            f"PRAGMA table_info({table})")]
        out[table] = [tuple(row) for row in conn.execute(
            f"SELECT * FROM {table} ORDER BY " + ", ".join(columns))]
    return out


def dump_file(path: str) -> Dict[str, List[tuple]]:
    conn = sqlite3.connect(path)
    try:
        return dump_tables(conn)
    finally:
        conn.close()


def _rows_by_site(conn: sqlite3.Connection, table: str
                  ) -> Optional[Dict[str, List[tuple]]]:
    columns = [col[1] for col in conn.execute(
        f"PRAGMA table_info({table})")]
    if "visit_id" not in columns:
        return None
    sites = dict(conn.execute("SELECT visit_id, site_url FROM site_visits"))
    grouped: Dict[str, List[tuple]] = {}
    for row in conn.execute(f"SELECT * FROM {table} ORDER BY "
                            + ", ".join(columns)):
        visit = row[columns.index("visit_id")]
        grouped.setdefault(sites.get(visit, ""), []).append(tuple(row))
    return grouped


def differing_sites(measured: sqlite3.Connection,
                    reference: sqlite3.Connection,
                    sites: List[str]) -> Tuple[Set[str], List[str]]:
    """Sites whose visit rows differ between two crawl databases, and
    the tables that differ. A differing table without a ``visit_id``
    column cannot be pinned on a site, so it fails every site."""
    left, right = dump_tables(measured), dump_tables(reference)
    tables = sorted(name for name in set(left) | set(right)
                    if left.get(name) != right.get(name))
    bad: Set[str] = set()
    for table in tables:
        if table not in left or table not in right:
            return set(sites), tables
        mine = _rows_by_site(measured, table)
        if mine is None:
            return set(sites), tables
        theirs = _rows_by_site(reference, table)
        for site in set(mine) | set(theirs):
            if mine.get(site) != theirs.get(site):
                bad.add(site)
    if bad - set(sites):
        # Rows the reference never produced (or produced for no
        # visited site) cannot be pinned on one op either.
        return set(sites), tables
    return bad, tables


def _crawl_check(db_path: str, reference: Any, sites: List[str]
                 ) -> Tuple[Set[str], Dict[str, Any]]:
    """Compare a crawl database with a reference manager's."""
    conn = sqlite3.connect(db_path)
    try:
        bad, tables = differing_sites(conn, reference.storage.connection,
                                      sites)
    finally:
        conn.close()
    return bad, {"sites": len(sites),
                 "differing_tables": tables,
                 "differing_sites": sorted(bad)[:5]}


# ----------------------------------------------------------------------
# crawl
# ----------------------------------------------------------------------
def _crawl_manager(network: Any, database_path: str, seed: int) -> Any:
    """The manager ``run_telemetry_crawl`` builds for a one-browser
    Tranco crawl with every instrument on."""
    from repro.obs.telemetry import Telemetry
    from repro.openwpm.config import BrowserParams, ManagerParams
    from repro.openwpm.task_manager import TaskManager

    return TaskManager(
        ManagerParams(num_browsers=1, database_path=database_path,
                      crash_probability=0.0, seed=seed),
        [BrowserParams(browser_id=0, seed=seed, dwell_time=1.0,
                       js_instrument=True, save_content="script")],
        network, telemetry=Telemetry())


def _clean_server_state(world: Any) -> None:
    """Forget what the web's servers learnt about earlier clients.

    The reference crawl replays the *same* world instance: its analytics
    beacon derives the ``_fp_uid`` cookie from the server object's
    ``id()``, so a second build of the world serves other values.
    ``reset_intel`` wipes the shared bot intel but not each site's own
    flags, which are cleared here as well.
    """
    world.reset_intel()
    for server in world.site_servers.values():
        server._site_flagged.clear()


def recorded_crawl_check(db_path: str, world: Any, world_seed: int,
                         sites: List[str]
                         ) -> Tuple[Set[str], Dict[str, Any]]:
    """Compare a crawl database with the world's recorded digests.

    Sites past the recorded prefix are left to the differential check;
    rows the database ties to no visited site fail every site."""
    recorded = dict(zip(world.front_urls(),
                        references.load(world_seed, {
                            "crawl": CRAWL_SITES})["crawl"]))
    conn = sqlite3.connect(db_path)
    try:
        measured = references.crawl_digests(conn)
    finally:
        conn.close()
    checked = [site for site in sites if site in recorded]
    bad = {site for site in checked if measured.get(site) != recorded[site]}
    if set(measured) - set(sites):
        bad = set(checked)
    return bad, {"against": f"recorded digests of world {world_seed}",
                 "sites": len(checked),
                 "unrecorded_sites": len(sites) - len(checked),
                 "differing_sites": sorted(bad)[:5]}


def crawl(ctx: Context) -> Outcome:
    """Front pages of the synthetic Tranco web, one in-process worker,
    JS/HTTP/cookie instruments on, file-backed WAL database and queue."""
    import repro.sched
    from repro.web import build_world

    world_seed = references.world_seed(ctx.seed)
    clock = OpClock(ctx, RSS_OPS["crawl"])
    db_path = ctx.path("crawl.sqlite")
    world = build_world(site_count=CRAWL_SITES, seed=world_seed)
    manager = _crawl_manager(world.network, db_path, world_seed)
    try:
        with patched(repro.sched, "CrawlScheduler",
                     timed_scheduler(clock)):
            manager.crawl_scheduled(world.front_urls(), workers=1,
                                    queue_path=ctx.path("crawl.queue"))
    finally:
        manager.close()
    outcome = clock.outcome(params={
        "world_sites": CRAWL_SITES, "world_seed": world_seed,
        "web": "tranco", "workers": 1,
        "instruments": ["js", "http", "cookie"],
        "database": "file (WAL)", "queue": "file"})
    if ctx.probe or not ctx.check:
        return outcome
    recorded_bad, recorded = recorded_crawl_check(db_path, world,
                                                  world_seed, clock.done)
    # Second check: the sequential in-memory crawl of the same sites.
    _clean_server_state(world)
    reference = _crawl_manager(world.network, ":memory:", world_seed)
    try:
        reference.crawl(list(clock.done))
        bad, differential = _crawl_check(db_path, reference, clock.done)
    finally:
        reference.close()
    differential["against"] = "sequential in-memory crawl"
    outcome.check_failed = len(bad | recorded_bad)
    outcome.check = {"recorded": recorded, "differential": differential}
    return outcome


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------
def _scan_tables(dataset: Any) -> Dict[str, Any]:
    return {"table5": dataset.table5(), "table6": dataset.table6(),
            "table11": dataset.table11()}


def recorded_scan_check(dataset: Any, world: Any, world_seed: int,
                        sites: List[str]
                        ) -> Tuple[Set[str], Dict[str, Any]]:
    """Compare per-site classifications with the world's recorded ones,
    and Tables 5, 6 and 11 with the counts the records sum to (when
    every scanned site is recorded)."""
    recorded = dict(zip((config.domain for config in world.configs),
                        references.load(world_seed, {
                            "scan": SCAN_SITES})["scan"]))
    checked = [site for site in sites if site in recorded]
    bad = {site for site in checked
           if site not in dataset.combined
           or references.scan_record(dataset, site) != recorded[site]}
    tables_checked = len(checked) == len(sites)
    tables_equal = None
    if tables_checked:
        tables_equal = _scan_tables(dataset) == references.expected_tables(
            [recorded[site] for site in sites])
        if not tables_equal or set(dataset.combined) != set(sites):
            bad = set(sites)
    return bad, {"against": f"recorded classifications of world "
                            f"{world_seed}",
                 "sites": len(checked),
                 "unrecorded_sites": len(sites) - len(checked),
                 "tables_equal": tables_equal,
                 "differing_sites": sorted(bad)[:5]}


def scan(ctx: Context) -> Outcome:
    """The Sec. 4 scan: front page plus up to three same-site subpages,
    a fresh per-site browser, classification and the script corpus."""
    import repro.sched
    from repro.core.scan import ScanPipeline
    from repro.web import build_world

    world_seed = references.world_seed(ctx.seed)
    clock = OpClock(ctx, RSS_OPS["scan"])
    world = build_world(site_count=SCAN_SITES, seed=world_seed)
    pipeline = ScanPipeline(world, client_id=SCAN_CLIENT)
    with patched(repro.sched, "CrawlScheduler", timed_scheduler(clock)):
        dataset = pipeline.run(visit_subpages=True)
    outcome = clock.outcome(params={
        "world_sites": SCAN_SITES, "world_seed": world_seed,
        "max_subpages": 3, "workers": 1, "queue": "memory"})
    if dataset.corpus is not None:
        outcome.layer_values["corpus.dedup_ratio"] = \
            dataset.corpus.stats()["dedup_ratio"]
        dataset.corpus.close()
    if ctx.probe or not ctx.check:
        return outcome
    sites = list(clock.done)
    recorded_bad, recorded = recorded_scan_check(dataset, world,
                                                 world_seed, sites)
    # Second check: a fresh scan of the same sites.
    reference = ScanPipeline(build_world(site_count=SCAN_SITES,
                                         seed=world_seed),
                             client_id=SCAN_CLIENT).run(
        site_limit=len(sites), visit_subpages=True)
    bad = {site for site in sites
           if dataset.combined.get(site) != reference.combined.get(site)
           or dataset.front_only.get(site)
           != reference.front_only.get(site)}
    tables_equal = _scan_tables(dataset) == _scan_tables(reference)
    if not tables_equal or set(reference.combined) != set(sites):
        bad = set(sites)
    reference.corpus.close()
    outcome.check_failed = len(bad | recorded_bad)
    outcome.check = {
        "recorded": recorded,
        "differential": {"against": "fresh scan of the same sites",
                         "sites": len(sites),
                         "tables_equal": tables_equal,
                         "differing_sites": sorted(bad)[:5]},
        **_scan_tables(dataset)["table5"]}
    return outcome


# ----------------------------------------------------------------------
# surface
# ----------------------------------------------------------------------
def make_audit() -> Callable[[str, str], Any]:
    """One Table 2 audit: a stock window and an instrumented OpenWPM
    lab window of the same OS, with their templates diffed. The imports
    happen here, during set-up."""
    from repro.browser.profiles import openwpm_profile, stock_firefox_profile
    from repro.core.fingerprint import (
        capture_template,
        diff_templates,
        run_probes,
    )
    from repro.core.fingerprint.surface import summarise_setup
    from repro.core.lab import make_window
    from repro.openwpm import BrowserParams, OpenWPMExtension

    def audit(os_name: str, mode: str) -> Any:
        _, stock = make_window(stock_firefox_profile(os_name))
        baseline = capture_template(stock)
        extension = OpenWPMExtension(BrowserParams(os_name=os_name,
                                                   display_mode=mode))
        _, window = make_window(openwpm_profile(os_name, mode),
                                extension=extension)
        surface = diff_templates(baseline, capture_template(window))
        return summarise_setup(f"{os_name}/{mode}", surface,
                               run_probes(window).values)

    return audit


def surface(ctx: Context) -> Outcome:
    """Sec. 3 audits of the six OpenWPM setups, each checked against the
    pinned Table 2 deviation counts.

    Every cycle audits all six setups once, in an order drawn from the
    seed: the setups differ in cost, and independent draws would give
    each run its own mix and so its own median."""
    audit = make_audit()
    rng = random.Random(ctx.seed)
    setups = sorted(TABLE2)
    cycle: List[Tuple[str, str]] = []
    clock = OpClock(ctx, RSS_OPS["surface"])
    clock.begin()
    mismatched: List[str] = []
    while not ctx.probe and not clock.expired:
        if not cycle:
            cycle = rng.sample(setups, len(setups))
        os_name, mode = cycle.pop()
        summary = clock.op(f"{os_name}/{mode}", audit, os_name, mode)
        counts = (summary.webgl_deviations, summary.language_additions,
                  summary.tampering, summary.custom_functions)
        if not summary.webdriver or counts != TABLE2[(os_name, mode)]:
            mismatched.append(summary.setup)
    clock.finish()
    outcome = clock.outcome(params={"setups": [f"{o}/{m}"
                                               for o, m in setups]})
    outcome.check_failed = len(mismatched)
    outcome.check = {"against": "pinned Table 2 counts",
                     "mismatched": sorted(set(mismatched))}
    return outcome


# ----------------------------------------------------------------------
# crawl-procs
# ----------------------------------------------------------------------
def nproc() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def worker_procs() -> int:
    """``nproc - 1`` worker processes, at least one: the coordinator
    (queue, broker, storage commit, rollups) keeps a CPU of its own, so
    no more processes are busy at once than there are CPUs and op
    latency measures the program rather than the scheduler."""
    return max(1, nproc() - 1)


class PoolWatch:
    """Opens the measured window of a process crawl at the coordinator's
    first completion and broadcasts the stop once the time is up."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.mark: Optional[float] = None
        self.deadline = 0.0
        self.end = 0.0
        self.cpu_mark = 0.0
        self.cpu_end = 0.0
        self.worker_cpu_mark = 0.0
        self.stopped = False

    def poll(self, pool: Any) -> None:
        if self.mark is None:
            if pool.broker.completed + pool.broker.failed == 0:
                return
            self.mark = monotonic()
            self.cpu_mark = process_time()
            self.worker_cpu_mark = sum(proc_cpu_s(slot.proc.pid)
                                       for slot in pool.slots if slot.live)
            self.deadline = self.mark + (0.0 if self.ctx.probe
                                         else self.ctx.seconds)
            if self.ctx.tracer is not None:
                self.ctx.tracer.start()
        if not self.stopped and monotonic() >= self.deadline:
            self.stopped = True
            pool._broadcast_stop()

    def finish(self) -> None:
        if self.ctx.tracer is not None:
            self.ctx.tracer.stop()
        self.end = monotonic()
        self.cpu_end = process_time()

    def pool_class(self) -> type:
        from repro.sched.procpool import ProcessPool

        watch = self

        class WatchedPool(ProcessPool):
            # Called once per supervision-loop pass (at most ~50 ms
            # apart), between message batches.
            def _check_heartbeats(self) -> None:
                super()._check_heartbeats()
                watch.poll(self)

            def run(self, *args, **kwargs):
                try:
                    return super().run(*args, **kwargs)
                finally:
                    watch.finish()

        return WatchedPool


def _lab_urls(seed: int, count: int) -> List[str]:
    token = random.Random(seed).getrandbits(32)
    return [f"https://lab.test/{token:08x}/site-{i:05d}"
            for i in range(count)]


def crawl_procs(ctx: Context) -> Outcome:
    """The CLI-default lab crawl (blank pages, JS instrument off) on
    :func:`worker_procs` worker processes through the default process
    write path.
    Op latency is claim to completion, from the queue's own rows."""
    import repro.sched.procpool as procpool
    from repro.obs.runner import run_telemetry_crawl

    procs = worker_procs()
    watch = PoolWatch(ctx)
    db_path = ctx.path("procs.sqlite")
    queue_path = ctx.path("procs.queue")
    crawl_args = dict(site_count=PROCS_SITES, seed=ctx.seed,
                      crash_probability=0.0, browsers=1, web="lab")
    children0 = children_cpu_s()
    with patched(procpool, "ProcessPool", watch.pool_class()):
        result = run_telemetry_crawl(
            database_path=db_path, queue_path=queue_path,
            urls=_lab_urls(ctx.seed, PROCS_SITES), worker_procs=procs,
            **crawl_args)
    result.close()
    conn = sqlite3.connect(queue_path)
    try:
        rows = conn.execute(
            "SELECT site_url, status, attempts, claimed_at, finished_at "
            "FROM jobs WHERE attempts > 0 ORDER BY job_id").fetchall()
    finally:
        conn.close()
    first_op = min(row[3] for row in rows)
    mark = watch.mark if watch.mark is not None else first_op
    completed = [row for row in rows if row[1] == "completed"]
    window = [row for row in completed if row[4] > mark]
    worker_cpu = children_cpu_s() - children0 - watch.worker_cpu_mark
    outcome = Outcome(
        first_op=first_op, start=mark,
        end=max((row[4] for row in window), default=mark),
        latencies=[row[4] - row[3] for row in window],
        attempted=len(window) + len(rows) - len(completed),
        failed=len(rows) - len(completed),
        cpu_s=watch.cpu_end - watch.cpu_mark + worker_cpu,
        peak_rss_mb=peak_rss_mb(),
        params={"worker_procs": procs, "web": "lab",
                "queued_sites": PROCS_SITES, "js_instrument": False,
                "write_path": "broker"})
    outcome.layer_values["sched.queue.claims_per_completion"] = \
        sum(row[2] for row in completed) / max(1, len(completed))
    if ctx.probe or not ctx.check:
        return outcome
    sites = [row[0] for row in completed]
    reference = run_telemetry_crawl(urls=sites, workers=1, **crawl_args)
    try:
        bad, outcome.check = _crawl_check(db_path, reference.manager,
                                          sites)
    finally:
        reference.close()
    outcome.check_failed = len(bad & {row[0] for row in window})
    outcome.check["against"] = "inline 1-worker crawl"
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "crawl": crawl,
    "scan": scan,
    "surface": surface,
    "crawl-procs": crawl_procs,
}
