"""BENCHMARK.json against what the runner emits, and the runner's
behaviour without the program sources."""

import ast
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads
from perfbench.report import per_layer_units

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_and_units_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


def test_workloads_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_metric_names_and_units_match_the_runner(spec):
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == per_layer_units()


def test_setup_bound_is_the_largest(spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_table2_pins_match_the_repo_benchmark():
    path = os.path.join(ROOT, "benchmarks",
                        "bench_table02_fingerprint_surface.py")
    if not os.path.exists(path):
        pytest.skip("repo Table 2 benchmark not present")
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PAPER" for t in node.targets):
            assert ast.literal_eval(node.value) == workloads.TABLE2
            return
    pytest.fail("PAPER table not found")


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_emits_every_declared_metric(spec, trace):
    done = _run("--workload", "surface", "--seed", "3", "--seconds",
                "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench-meta ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    meta = json.loads(lines[-2].split(" ", 1)[1])
    for key in ("nproc", "python", "git_rev", "src_sha256", "seed",
                "params"):
        assert key in meta


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "crawl", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


#: Runs a command as a child subreaper (Linux), so processes orphaned
#: by it are re-parented here, and prints how many are left after it.
SUBREAPER = """
import ctypes, json, os, subprocess, sys
from perfbench.run import _child_pids
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0
done = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(json.dumps({"code": done.returncode, "left": len(_child_pids())}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs PR_SET_CHILD_SUBREAPER")
def test_no_process_outlives_a_process_crawl():
    # A set-up probe of crawl-procs spawns worker processes and the
    # multiprocessing resource tracker; none may be left behind.
    done = subprocess.run(
        [sys.executable, "-c", SUBREAPER, sys.executable,
         os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         "crawl-procs", "--seed", "1", "--probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "left": 0}
