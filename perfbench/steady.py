"""Steadiness runs: every workload over several seeds, one process each.

    python3 perfbench/steady.py --sets 1:10 11:20 [--workloads a,b] \\
        [--traced] [--out perfbench/baseline.json]

Run it from the repository root.  For each set of seeds, workload and
end-to-end metric it reports the median over seeds and the spread
(first-to-third quartile distance over the median, from
``statistics.quantiles(n=4)``), flags spreads above a third of the
metric's bound in ``BENCHMARK.json`` and names the metric with the
widest spread.  With several sets it reports how much worse each later
set's medians are than the first's, against the bounds.  ``--traced``
adds one ``--trace 1`` run per workload on the first seed; ``--out``
writes the whole document, with the layer map, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
from layers import layer_map  # noqa: E402


def _seeds(spec: str) -> list[int]:
    if ":" in spec:
        lo, hi = spec.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed checks:\n"
                           f"{done.stdout}")
    return result


def _summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3.0,
            "values": values}


def _measure(workloads: list, seeds: list, seconds: int,
             bounds: dict) -> dict:
    """One set: workload -> metric -> summary over ``seeds``."""
    values: dict = {w: {m: [] for m in bounds} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            metrics = _run(workload, seed, seconds, 0)["metrics"]
            for name in bounds:
                values[workload][name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={metrics[n]['value']:.6g}" for n in bounds
            ), file=sys.stderr, flush=True)
    summaries = {}
    for workload in workloads:
        summary = {name: _summary(vals, bounds[name])
                   for name, vals in values[workload].items()}
        widest = max(summary, key=lambda name: summary[name]["spread"])
        summaries[workload] = {"end_to_end": summary,
                               "widest_spread": widest}
        print(f"\n{workload} seeds {seeds[0]}..{seeds[-1]}  "
              f"(widest spread: {widest})")
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:.6g}  "
                  f"IQR {s['q3'] - s['q1']:.4g}  "
                  f"spread {s['spread']:.3f} / bound {s['bound']}"
                  f"{'' if s['steady'] else '  (above bound/3)'}")
    return summaries


def _agreement(first: dict, later: dict, bench: dict) -> dict:
    """How much worse each metric's median got from one set to another,
    as a share of the first median (negative: it got better)."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    result = {}
    for workload, entry in later.items():
        result[workload] = {}
        for name, s in entry["end_to_end"].items():
            base = first[workload]["end_to_end"][name]["median"]
            worse = (s["median"] - base) / base
            if better[name] == "higher":
                worse = -worse
            result[workload][name] = {
                "worse_by": worse, "bound": s["bound"],
                "within": worse <= s["bound"],
            }
            print(f"  {workload:16s} {name:12s} worse by {worse:+.3f} "
                  f"/ bound {s['bound']}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", nargs="+", default=["1:10"],
                        help="one seed spec per set, e.g. 1:10 11:20")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    sets = []
    for spec in args.sets:
        seeds = _seeds(spec)
        sets.append({"seeds": seeds, "workloads": _measure(
            workloads, seeds, args.seconds, bounds)})
    document = {"run_seconds": args.seconds, "layers": layer_map(),
                "why": {w: why.get(w) for w in workloads}, "sets": sets}
    if len(sets) > 1:
        print("\nmedians of each later set against the first:")
        document["agreement"] = [
            _agreement(sets[0]["workloads"], later["workloads"], bench)
            for later in sets[1:]
        ]
    if args.traced:
        document["per_layer"] = {}
        for workload in workloads:
            traced = _run(workload, sets[0]["seeds"][0], args.seconds,
                          1)["metrics"]
            document["per_layer"][workload] = {
                n: m["value"] for n, m in traced.items()
            }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
