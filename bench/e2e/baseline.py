#!/usr/bin/env python3
"""Repeated runs of the end-to-end benchmark: spreads, baseline, digests.

    python3 bench/e2e/baseline.py spread --runs 10 [--first-seed 1]
        Runs every workload once per seed and prints, per end-to-end
        metric, the median and the quartile spread (IQR / median, from
        statistics.quantiles(n=4)) against the bound in BENCHMARK.json.

    python3 bench/e2e/baseline.py baseline --runs 5
        Writes bench/e2e/results/baseline.json: N runs of each workload
        (median and quartiles of every candidate end-to-end metric), the
        regression bound each metric earns, one traced run's per-layer
        table, and the facts that qualify them (commit, CPUs, SIMD level,
        executors, sizes, journal filesystem).

    python3 bench/e2e/baseline.py digests
        Prints each workload's detection digest in the layout of
        bench/e2e/expected_digests.json, after checking that seeds 7 and
        11 agree (the detections do not depend on the seed). Run it with
        that file emptied to {}: runs without a committed digest check the
        programs against the in-process oracle instead. Regenerate it only
        for a change that is meant to alter detections.

A metric's bound is max(MIN_BOUND, 2 * IQR / median) over its five
baseline runs, the largest over the workloads. A metric is eligible for
BENCHMARK.json's end_to_end list only if that bound is at most MAX_BOUND
and it is measured on every workload; setup_s is always listed, with the
bound SETUP_BOUND, the largest BENCHMARK.json allows: its medians moved
by 10% with the host's speed between two ten-run sets an hour apart. An
eligible metric whose ten-run spreads (the spread command) exceed its
bound is left out too: every run of the benchmark's own acceptance would
read as a regression. A listed bound is raised, to at most MAX_BOUND, to
three times the largest ten-run spread seen, so repeat runs stay well
inside it: peak_rss_mb on screen-durable depends on the stream orders the
seed draws, its ten-run spread reached 1.7%, and it is listed at 0.06.

Every run goes through bench/e2e/run.py, exactly as the command in
BENCHMARK.json runs it.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "e2e" / "run.py"
OUT = ROOT / "bench-out" / "e2e"
MIN_BOUND = 0.03
MAX_BOUND = 0.10
SETUP_BOUND = 0.25


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace=False):
    """One benchmark run: (last stdout line, results-file JSON)."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} failed:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    suffix = ".layers.json" if trace else ".json"
    details = json.loads((OUT / f"{workload}-s{seed}{suffix}").read_text())
    return result, details


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": values}


def collect(workloads, seeds, seconds):
    """Every end-to-end value a run measured (the results file's metrics,
    a superset of the ones BENCHMARK.json lists), per workload."""
    table = {}
    for workload in workloads:
        values = {}
        for seed in seeds:
            result, details = run(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect run "
                         f"{details.get('problems')}")
            for name, value in details["metrics"].items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in details["metrics"].items()),
                file=sys.stderr, flush=True)
        table[workload] = {name: summarize(v) for name, v in values.items()}
    return table


def derive_bounds(table):
    bounds = {}
    for workload, metrics in table.items():
        for name, s in metrics.items():
            entry = bounds.setdefault(name, {"by_workload": {}})
            entry["by_workload"][workload] = max(MIN_BOUND, 2 * s["spread"])
    for name, entry in bounds.items():
        entry["bound"] = max(entry["by_workload"].values())
        # A listed metric is printed by every workload.
        everywhere = len(entry["by_workload"]) == len(table)
        entry["eligible"] = everywhere and (
            name == "setup_s" or entry["bound"] <= MAX_BOUND)
    return bounds


def spread(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    table = collect(workloads, seeds, bench["run_seconds"])
    worst = 0.0
    for workload, metrics in table.items():
        print(f"\n{workload}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            if bound is None:
                verdict, shown = "not listed", "  -  "
            else:
                shown = f"{100 * bound:5.1f}"
                verdict = "below a third" if s["spread"] * 3 < bound else (
                    "within bound" if s["spread"] <= bound else "OVER BOUND")
                if name != "setup_s":
                    worst = max(worst, s["spread"] / bound)
            print(f"  {name:15s} median {s['median']:12.5g}  spread "
                  f"{100 * s['spread']:6.2f}%  bound {shown}%  {verdict}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.2f}")
    if args.save:
        Path(args.save).write_text(json.dumps(table, indent=1) + "\n")


def journal_filesystem(path):
    best = ("", "unknown")
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        mount, fstype = fields[1], fields[2]
        if str(path).startswith(mount) and len(mount) > len(best[0]):
            best = (mount, fstype)
    return best[1]


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def baseline(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    table = collect(workloads, seeds, seconds)
    bounds = derive_bounds(table)
    layers = {}
    facts = {}
    for workload in workloads:
        result, details = run(workload, 7, seconds, trace=True)
        layers[workload] = {
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "self_ms": details.get("self_ms", {}),
            "replay_batch_mean": details.get("replay_batch_mean", {}),
            "split": details.get("split"),
            "sizes": details.get("sizes"),
        }
        facts = {"simd": details["simd"], "executors": details["executors"]}
    document = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "simd": facts.get("simd"),
        "executors": facts.get("executors"),
        "journal_filesystem": journal_filesystem(OUT),
        "run_seconds": seconds,
        "seeds": seeds,
        "bound_rule": f"max({MIN_BOUND}, 2 * IQR / median), largest over "
                      f"the workloads; eligible if <= {MAX_BOUND} (setup_s "
                      f"always, at {SETUP_BOUND}); a listed bound is raised "
                      f"to 3 x the largest ten-run spread seen",
        "bounds": bounds,
        "end_to_end": table,
        "per_layer_seed_7": layers,
    }
    path = ROOT / "bench" / "e2e" / "results" / "baseline.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    for name, entry in sorted(bounds.items()):
        print(f"  {name:15s} bound {entry['bound']:.3f}  "
              f"{'eligible' if entry['eligible'] else 'not eligible'}")


def digests(args):
    bench = load_benchmark()
    table = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        found = set()
        for seed in (7, 11):
            _, details = run(workload, seed, bench["run_seconds"])
            if not details["correct"] or details.get("expected_digest"):
                sys.exit(f"{workload} seed {seed}: empty the digest table "
                         f"first; problems: {details['problems']}")
            found.add(details["digest"])
        if len(found) != 1:
            sys.exit(f"{workload}: seeds 7 and 11 disagree: {sorted(found)}")
        table[workload] = found.pop()
    print(json.dumps(table, indent=2))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--save", help="also write the table as JSON here")
    p.set_defaults(func=spread)
    p = sub.add_parser("baseline")
    p.add_argument("--runs", type=int, default=5)
    p.set_defaults(func=baseline)
    p = sub.add_parser("digests")
    p.set_defaults(func=digests)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
