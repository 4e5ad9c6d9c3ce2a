#!/usr/bin/env python3
"""Take a baseline: two interleaved sets of runs per workload, their
spreads, whether the sets agree, and one traced run per workload.

    python3 perfbench/prove.py [--runs 10] [--first-seed 101]
                               [--workloads crawl scan] [--no-trace]
                               [--output FILE] [--markdown FILE]

Set 1 uses seeds ``first-seed`` .. ``first-seed + runs - 1`` and set 2
the next ``runs`` seeds. The runs alternate between the sets (set-1
seed, set-2 seed, ...), so a host that speeds up or slows down during
the baseline reaches both sets alike. For every end-to-end metric the
script reports each set's median, quartiles and quartile spread
((q3 - q1) / median, ``statistics.quantiles(values, n=4)``) against the
metric's bound in ``BENCHMARK.json``, and the gap between the two set
medians in either direction, ``|m2 - m1| / min(m1, m2)``, which must
also stay within the bound. ``--output`` writes every run and summary
as JSON and ``--markdown`` the tables of ``perfbench/baseline/NOTES.md``.
The exit status is 1 if any spread or gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import summarise  # noqa: E402

SETS = ("1", "2")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0
             ) -> dict:
    started = monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({done.returncode}):\n{done.stdout[-2000:]}"
                         f"\n{done.stderr[-2000:]}")
    meta = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    return {"seed": seed, "wall_s": round(monotonic() - started, 2),
            "meta": meta, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def agreement(first: dict, second: dict, bounds: dict) -> dict:
    """Per metric: the two set medians and their gap in either
    direction as a share of the smaller one."""
    out = {}
    for name, bound in bounds.items():
        m1, m2 = first[name]["median"], second[name]["median"]
        low = min(m1, m2)
        gap = abs(m2 - m1) / low if low else (0.0 if m1 == m2
                                              else float("inf"))
        out[name] = {"set1_median": m1, "set2_median": m2, "gap": gap,
                     "bound": bound, "within": gap <= bound}
    return out


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def markdown(report: dict, bounds: dict, units: dict) -> str:
    lines = ["| workload | metric | unit | set 1 median | q1 | q3 | "
             "spread 1 | set 2 median | spread 2 | gap | bound |",
             "|---|---|---|---|---|---|---|---|---|---|---|"]
    for workload, sets in report["sets"].items():
        s1, s2 = sets["1"]["summary"], sets["2"]["summary"]
        for name in bounds:
            gap = report["agreement"][workload][name]["gap"]
            lines.append(
                f"| {workload} | {name} | {units[name]} | "
                f"{_fmt(s1[name]['median'])} | {_fmt(s1[name]['q1'])} | "
                f"{_fmt(s1[name]['q3'])} | {s1[name]['iqr_share']:.3f} | "
                f"{_fmt(s2[name]['median'])} | {s2[name]['iqr_share']:.3f}"
                f" | {gap:.3f} | {bounds[name]} |")
    traced = report.get("trace", {}).get("workloads")
    if traced:
        names = list(next(iter(traced.values()))["metrics"])
        lines += ["", "| metric | " + " | ".join(traced) + " |",
                  "|---|" + "---|" * len(traced)]
        for name in names:
            lines.append(f"| `{name}` | " + " | ".join(
                f"{run['metrics'][name]:.2f}" for run in traced.values())
                + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--output", default=None)
    parser.add_argument("--markdown", default=None)
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"]}
    seeds = {"1": [args.first_seed + i for i in range(args.runs)],
             "2": [args.first_seed + args.runs + i
                   for i in range(args.runs)]}
    report = {"seconds": args.seconds,
              "seeds": {key: f"{value[0]}-{value[-1]}"
                        for key, value in seeds.items()},
              "sets": {}, "agreement": {}}
    failures = []
    for workload in args.workloads:
        runs = {key: [] for key in SETS}
        for index in range(args.runs):
            for key in SETS:
                runs[key].append(run_once(workload, seeds[key][index],
                                          args.seconds))
        sets = {}
        for key in SETS:
            summary = summarise([run["metrics"] for run in runs[key]])
            sets[key] = {"runs": runs[key], "summary": summary}
            print(f"== {workload} set {key} (seeds {report['seeds'][key]})"
                  f": {sum(run['wall_s'] for run in runs[key]):.0f} s "
                  f"wall, all correct: "
                  f"{all(run['correct'] for run in runs[key])}")
            for name, bound in bounds.items():
                stats = summary[name]
                ratio = stats["iqr_share"] / bound
                if ratio > 1:
                    failures.append(f"{workload} set {key} {name} spread "
                                    f"{stats['iqr_share']:.3f}")
                print(f"  {name:<14} median {stats['median']:11.4f}  "
                      f"q1 {stats['q1']:11.4f}  q3 {stats['q3']:11.4f}  "
                      f"spread {stats['iqr_share']:.3f}  "
                      f"spread/bound {ratio:.2f}")
        report["sets"][workload] = sets
        agree = agreement(sets["1"]["summary"], sets["2"]["summary"],
                          bounds)
        report["agreement"][workload] = agree
        for name, entry in agree.items():
            if not entry["within"]:
                failures.append(f"{workload} {name} gap "
                                f"{entry['gap']:.3f}")
        print(f"  set gap: " + ", ".join(
            f"{name} {entry['gap']:.3f}" for name, entry in agree.items()))
    if not args.no_trace:
        seed = seeds["1"][0]
        report["trace"] = {"seed": seed, "workloads": {
            workload: run_once(workload, seed, args.seconds, trace=1)
            for workload in args.workloads}}
    print("beyond bound: " + ("; ".join(failures) or "none"))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(markdown(report, bounds, units))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
