"""Run one benchmark workload for one seed in this process.

    python3 perfbench/run.py --workload tm2-recovery --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.
The run repeats whole rounds of the workload's sub-seeded operations
until ``--seconds`` have passed, checks every operation's output, and
prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median
of several fresh processes' start-to-inputs-ready time), ``peak_rss_mb``
and ``throughput`` (a round's work units per host second, taking each
input at its fastest repeat).  ``--trace 1`` runs every operation twice,
plain and under the per-layer wrappers of ``layers.py``, and reports
per-layer self time and counts per operation, with the wrappers'
coverage of the traced wall time and their overhead against the plain
runs.  Either way the metric names and units must match the ones
``BENCHMARK.json`` declares, or the run stops with an error.

An operation fails when it raises, when an output check fails, or when
its simulated statistics differ from an earlier run of the same input,
traced or not.
"""

from __future__ import annotations

import os

# Single-threaded numerics and no observability side effects, set before
# numpy or the library is imported (the set-up probes inherit them).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_TRACE"] = "0"
os.environ["REPRO_RUNSTORE"] = "off"
for _var in ("REPRO_LOG", "REPRO_AGING_KERNEL", "REPRO_CAPTURE_KERNEL",
             "REPRO_CALIBRATION_KERNEL"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args) -> float:
    """One fresh process's start-to-inputs-ready time."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = perf_counter()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(
            f"set-up probe exited {child.returncode} ({line.strip()!r})"
        )
    return ready - start


def _track_devices() -> list:
    """Collect every FpgaDevice built, to sum materialised segments."""
    from repro.fabric.device import FpgaDevice

    built: list = []
    init = FpgaDevice.__init__

    def tracked_init(device, *args, **kwargs):
        init(device, *args, **kwargs)
        built.append(device)

    FpgaDevice.__init__ = tracked_init
    return built


def _capture_words() -> float:
    from repro.observability.metrics import registry

    counter = registry.counters.get("capture_words_total")
    return counter.value if counter is not None else 0.0


def _timed_op(workload, inp, devices: list) -> tuple:
    devices.clear()
    words = _capture_words()
    gc.collect()
    start = perf_counter()
    stats = workload.run(inp)
    wall = perf_counter() - start
    stats["capture_words"] = _capture_words() - words
    stats["segments_materialised"] = sum(
        device.materialised_segments for device in devices
    )
    devices.clear()
    return wall, stats


class _Run:
    """Operation bookkeeping: attempts, failures, determinism."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[int, dict] = {}

    def op(self, index: int, inp, devices: list):
        """One checked operation; returns (wall, stats) or None."""
        self.attempted += 1
        try:
            wall, stats = _timed_op(self.workload, inp, devices)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.errors.append(f"input {index}: raised")
            return None
        errors = self.workload.check(inp, stats)
        simulated = {k: v for k, v in stats.items() if k != "work"}
        reference = self.reference.setdefault(index, simulated)
        if simulated != reference:
            errors.append(
                f"input {index}: simulated statistics changed between "
                f"runs: {reference} -> {simulated}"
            )
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return wall, stats


def _round_throughput(ops_by_input: dict) -> float:
    """A round's work over its time with every input at its fastest repeat.

    Contention on a shared host only ever slows an operation, and in
    bursts of a few seconds, while the same input always does the same
    work: the fastest repeat is the steadiest estimate of its cost.
    Summing over the round's inputs evens out how much work each seed
    draws.
    """
    done = [ops for ops in ops_by_input.values() if ops]
    work = sum(ops[0][1]["work"] for ops in done)
    seconds = sum(min(wall for wall, _ in ops) for ops in done)
    return work / seconds if done else 0.0


def _result_metrics(values: dict, spec: list) -> dict:
    """``values`` with their units, if they name exactly ``spec``'s metrics."""
    units = {metric["name"]: metric["unit"] for metric in spec}
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: reported only "
            f"{sorted(set(values) - set(units))}, declared only "
            f"{sorted(set(units) - set(values))}"
        )
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no library sources at {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    # Set-up probes run between rounds, outside the timed operations, so
    # their median spans the run rather than one burst of contention.
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = [_setup_probe(args)] if probes else []
    inputs = workload.setup(args.seed)
    from repro.observability import trace

    trace.disable()
    devices = _track_devices()
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()

    run = _Run(workload)
    plain = {i: [] for i in range(len(inputs))}
    traced = {i: [] for i in range(len(inputs))}
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds:
        rounds += 1
        for index, inp in enumerate(inputs):
            result = run.op(index, inp, devices)
            if result is None:
                continue
            plain[index].append(result)
            if tracer is not None:
                with tracer:
                    result = run.op(index, inp, devices)
                if result is not None:
                    traced[index].append(result)
        if len(setup_samples) < probes:
            setup_samples.append(_setup_probe(args))
    while len(setup_samples) < probes:
        setup_samples.append(_setup_probe(args))

    throughput = _round_throughput(plain)
    if not throughput:
        print("run.py: no operation succeeded", file=sys.stderr)
        return 1
    if tracer is not None:
        traced_throughput = _round_throughput(traced)
        if not traced_throughput:
            print("run.py: no traced operation succeeded", file=sys.stderr)
            return 1
        metrics = _result_metrics(tracer.metrics(
            [op for ops in traced.values() for op in ops],
            throughput / traced_throughput - 1.0,
        ), bench["per_layer"])
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _result_metrics({
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_mb,
            "throughput": throughput,
        }, bench["end_to_end"])
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": rounds,
        "operations": sum(len(ops) for ops in plain.values()),
        workload.throughput_name: throughput,
        "simulated": [run.reference.get(i) for i in range(len(inputs))],
        "errors": run.errors[:10],
    }
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
