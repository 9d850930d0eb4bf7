"""``run.py compare PARENT CHANGE``: judge a change against its parent.

Each side is a directory of default-mode result files (or a list of
files) written by ``run.py``. Runs are paired by (workload, seed); run
the two sides alternately, one pair at a time, with the same
``--seconds``. For every workload and metric the verdict is:

- **improved**: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more than
  the interquartile range of the parent's runs;
- **worse**: the change's median is worse than the parent's by more than
  the metric's bound; when the parent's own spread (IQR over median) is
  wider than the bound, only if every change run reads worse than every
  parent run;
- **unresolved**: the parent's spread is wider than the bound, unless
  every change run reads better than every parent run;
- **unchanged**: otherwise.

Bounds come from ``BENCHMARK.json``. Metrics only the result files carry
(probe, KB-write, makespan and tail latencies) use ``EXTRA_BOUND``;
``error_rate`` has an absolute bound of zero: any failed request in the
change is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from common import ROOT, quartiles

#: The host drifts as much under these as under the declared times.
EXTRA_BOUND = 0.25
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Result-file entries that are not performance metrics.
_SKIP = {"primary_requests"}


def _direction(unit: str) -> str:
    return "higher" if unit in ("req/s", "1/s") else "lower"


def _results(paths: list[str]):
    """The default-mode result files in *paths* (directories or files)."""
    for raw in paths:
        path = Path(raw)
        for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            data = json.loads(file.read_text())
            if data.get("mode") == "default":
                yield data


def load(paths: list[str]) -> dict:
    """``{workload: {seed: {metric: (value, unit)}}}`` of default runs."""
    runs: dict = {}
    for data in _results(paths):
        runs.setdefault(data["workload"], {})[data["seed"]] = {
            name: (entry["value"], entry["unit"])
            for name, entry in data["metrics"].items()
        }
    return runs


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> tuple[str, int]:
    """(verdict, wins) for paired *parent*/*change* values of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, p_median, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_median)
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and gain > q3 - q1):
        return "improved", wins
    noisy = (q3 - q1) > bound * abs(p_median)
    all_better = (min(sign * c for c in change)
                  > max(sign * p for p in parent))
    all_worse = (max(sign * c for c in change)
                 < min(sign * p for p in parent))
    if gain < -bound * abs(p_median) and (all_worse or not noisy):
        return "worse", wins
    if noisy and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent: dict, change: dict, declared: dict) -> list[dict]:
    rows = []
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if not seeds:
            continue
        names = sorted(set.intersection(
            *(set(parent[workload][s]) & set(change[workload][s])
              for s in seeds)) - _SKIP)
        for name in names:
            unit = parent[workload][seeds[0]][name][1]
            p = [parent[workload][s][name][0] for s in seeds]
            c = [change[workload][s][name][0] for s in seeds]
            if name == "error_rate":
                result, wins = ("worse" if max(c) > 0 else "unchanged"), 0
                bound = 0.0
            else:
                spec = declared.get(name)
                bound = spec["bound"] if spec else EXTRA_BOUND
                better = spec["better"] if spec else _direction(unit)
                result, wins = verdict(p, c, bound, better)
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "pairs": len(seeds), "wins": wins, "bound": bound,
                "parent": quartiles(p), "change": quartiles(c),
                "verdict": result,
            })
    return rows


def baseline(argv: list[str]) -> int:
    """``run.py baseline DIR...``: median and quartiles of every metric
    over a set of default-mode result files, written to baseline.json."""
    parser = argparse.ArgumentParser(prog="run.py baseline")
    parser.add_argument("results", nargs="+",
                        help="directories or files of result files")
    args = parser.parse_args(argv)
    runs = load(args.results)
    first = next(_results(args.results))
    out = {
        "nproc": first["nproc"], "python": first["python"],
        "seconds": first["seconds"], "workloads": {},
    }
    for workload, by_seed in sorted(runs.items()):
        names = sorted(set.intersection(*(set(m) for m in by_seed.values())))
        out["workloads"][workload] = {"seeds": sorted(by_seed), "metrics": {}}
        for name in names:
            values = [by_seed[s][name][0] for s in sorted(by_seed)]
            q1, median, q3 = quartiles(values)
            out["workloads"][workload]["metrics"][name] = {
                "unit": by_seed[min(by_seed)][name][1], "median": median,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
            }
    path = Path(__file__).resolve().parent / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="judge CHANGE result files against PARENT result files")
    parser.add_argument("parent", help="directory or file of parent results")
    parser.add_argument("change", help="directory or file of change results")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    rows = compare(load([args.parent]), load([args.change]), declared)
    if not rows:
        print("no (workload, seed) pairs in common")
        return 2
    print(f"{'workload':<16}{'metric':<26}{'unit':<9}{'parent median':>15}"
          f"{'change median':>15}{'diff':>9}{'wins':>7}{'bound':>7}  verdict")
    for row in rows:
        p_median, c_median = row["parent"][1], row["change"][1]
        diff = (c_median - p_median) / abs(p_median) if p_median else 0.0
        print(f"{row['workload']:<16}{row['metric']:<26}{row['unit']:<9}"
              f"{p_median:>15.4f}{c_median:>15.4f}{diff:>+9.1%}"
              f"{row['wins']:>4}/{row['pairs']:<2}{row['bound']:>7.0%}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
