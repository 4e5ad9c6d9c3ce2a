"""The output checks fail when the outputs are wrong."""

import json
import os
import sqlite3

import pytest

from perfbench import references, run, workloads


def _db(rows):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE site_visits (visit_id INTEGER, "
                 "site_url TEXT)")
    conn.execute("CREATE TABLE javascript (visit_id INTEGER, symbol TEXT)")
    conn.execute("CREATE TABLE content (hash TEXT)")
    conn.executemany("INSERT INTO site_visits VALUES (?, ?)",
                     [(1, "a"), (2, "b")])
    conn.executemany("INSERT INTO javascript VALUES (?, ?)", rows)
    conn.execute("INSERT INTO content VALUES ('x')")
    return conn


def test_identical_databases_have_no_differing_site():
    rows = [(1, "navigator.userAgent"), (2, "screen.width")]
    bad, tables = workloads.differing_sites(_db(rows), _db(rows),
                                            ["a", "b"])
    assert bad == set() and tables == []


def test_a_differing_visit_row_fails_only_its_site():
    left = _db([(1, "navigator.userAgent"), (2, "screen.width")])
    right = _db([(1, "navigator.userAgent"), (2, "screen.height")])
    bad, tables = workloads.differing_sites(left, right, ["a", "b"])
    assert bad == {"b"} and tables == ["javascript"]


def test_a_differing_table_without_visits_fails_every_site():
    left = _db([(1, "navigator.userAgent")])
    right = _db([(1, "navigator.userAgent")])
    right.execute("INSERT INTO content VALUES ('y')")
    bad, _ = workloads.differing_sites(left, right, ["a", "b"])
    assert bad == {"a", "b"}


def test_volatile_tables_are_ignored():
    left = _db([])
    right = _db([])
    for conn, value in ((left, 1), (right, 2)):
        conn.execute("CREATE TABLE telemetry (n INTEGER)")
        conn.execute("INSERT INTO telemetry VALUES (?)", (value,))
    assert workloads.differing_sites(left, right, ["a"]) == (set(), [])


def test_a_wrong_table2_count_fails_the_run(monkeypatch, capsys):
    wrong = dict(workloads.TABLE2)
    for key, (webgl, langs, tamper, custom) in wrong.items():
        wrong[key] = (webgl, langs, tamper + 1, custom)
    monkeypatch.setattr(workloads, "TABLE2", wrong)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "surface", "--seed", "1",
                     "--seconds", "0.5"])
    result = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in result


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seed", "1"]) == 2


@pytest.mark.parametrize("seed", [1, 2])
def test_lab_urls_are_seeded_and_distinct(seed):
    urls = workloads._lab_urls(seed, 50)
    assert urls == workloads._lab_urls(seed, 50)
    assert len(set(urls)) == 50
    assert urls != workloads._lab_urls(seed + 1, 50)


def _crawl_db(uid):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE site_visits (visit_id INTEGER, "
                 "site_url TEXT)")
    conn.execute("CREATE TABLE javascript_cookies (id INTEGER, "
                 "visit_id INTEGER, name TEXT, value TEXT)")
    conn.execute("CREATE TABLE rollups_sites (site_url TEXT, visits "
                 "INTEGER)")
    conn.executemany("INSERT INTO site_visits VALUES (?, ?)",
                     [(1, "a"), (2, "b")])
    conn.executemany("INSERT INTO javascript_cookies VALUES (?, ?, ?, ?)",
                     [(1, 1, "_fp_uid", uid), (2, 2, "theme", "dark")])
    conn.executemany("INSERT INTO rollups_sites VALUES (?, ?)",
                     [("a", 1), ("b", 1)])
    return conn


def test_crawl_digests_mask_the_per_build_uid():
    left = references.crawl_digests(_crawl_db("0123456789abcdef0123"))
    right = references.crawl_digests(_crawl_db("fedcba9876543210fedc"))
    assert left == right and set(left) == {"a", "b"}


def test_crawl_digests_tie_rows_to_their_site():
    left = _crawl_db("0123456789abcdef0123")
    right = _crawl_db("0123456789abcdef0123")
    right.execute("UPDATE rollups_sites SET visits = 2 WHERE site_url='b'")
    mine, theirs = (references.crawl_digests(conn)
                    for conn in (left, right))
    assert mine["a"] == theirs["a"] and mine["b"] != theirs["b"]


def test_world_seeds_cycle_through_the_recorded_pool():
    assert references.world_seed(references.HOLDOUT_SEED) \
        == references.HOLDOUT_SEED
    assert {references.world_seed(seed) for seed in range(100, 140)} \
        == set(range(references.WORLD_POOL))
    for world in references.worlds():
        assert os.path.exists(references.path(world)), world


def _run_fails_its_recorded_check(monkeypatch, capsys, workload):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.5"])
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[-2].split(" ", 1)[1])
    assert code == 1
    assert '"correct": false' in lines[-1]
    assert meta["check"]["recorded"]["differing_sites"]
    # Both sides of the differential check ran the same changed code.
    assert meta["check"]["differential"]["differing_sites"] == []


def test_a_crawl_that_drops_javascript_rows_fails(monkeypatch, capsys):
    from repro.openwpm.storage import StorageController

    monkeypatch.setattr(StorageController, "record_javascript",
                        lambda self, *args, **kwargs: None)
    _run_fails_its_recorded_check(monkeypatch, capsys, "crawl")


def test_a_scan_that_misclassifies_fails(monkeypatch, capsys):
    import repro.core.scan.pipeline as pipeline

    classify = pipeline.classify_site

    def flipped(*args, **kwargs):
        verdict = classify(*args, **kwargs)
        verdict.static_clean = not verdict.static_clean
        return verdict

    monkeypatch.setattr(pipeline, "classify_site", flipped)
    _run_fails_its_recorded_check(monkeypatch, capsys, "scan")
