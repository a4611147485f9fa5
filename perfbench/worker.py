"""One workload process: set up, run timed passes, print one JSON record.

Started by run.py in a fresh interpreter with an isolated environment; it is
not meant to be run by hand.  The last line of its standard output is the
record run.py reads.

    python3 perfbench/worker.py --workload desk --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload desk --seed 1 --setup-only
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports plus inputs

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import braidfloer  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import sampler as sampling  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(items, tracer=None, sampler=None) -> dict:
    """Run the items once, in order.

    With a sampler, wall_rel and cpu_rel are the pass's wall and CPU seconds
    times the sampler's rate over the same interval (see sampler.py).
    """
    records = []
    before = sampler.read() if sampler is not None else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for item in items:
        if tracer is not None:
            tracer.item = item.name
        start = time.perf_counter()
        outcome = item.run()
        records.append((item, outcome, time.perf_counter() - start))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    stats = {"records": records, "wall_s": wall, "cpu_s": cpu}
    if sampler is not None:
        rate = sampling.rate(before, sampler.read())
        stats.update({"wall_rel": wall * rate, "cpu_rel": cpu * rate, "sampler_rate": rate})
    item_s = [t for _, _, t in records]
    refusal_s = [t for item, _, t in records if item.refusal]
    stats["item_s.p50"] = statistics.median(item_s)
    stats["item_s.max"] = max(item_s)
    if refusal_s:
        stats["refusal_s.max"] = max(refusal_s)
    return stats


def mismatches(passes) -> list[tuple]:
    """(pass, item, message) for every outcome that differs from the record."""
    out = []
    for index, p in enumerate(passes):
        for item, outcome, _ in p["records"]:
            problem = workloads.check(item, outcome)
            if problem:
                out.append((index, item.name, problem))
    return out


def traced_checks(items, untraced, traced, tracer) -> list[tuple]:
    """Tracer self-check, error types, check-still-on guard, baseline sizes."""
    problems = [(1, item, message) for item, message in tracer.violations]
    for (item, a, _), (_, b, _) in zip(untraced["records"], traced["records"]):
        if a != b:
            problems.append((1, item.name, f"traced outcome {b} differs from untraced {a}"))
    route_exc = {}
    for _, _, item, name, _, _, exc in tracer.spans:
        if name == "pipeline.braid_floer_homology":
            route_exc.setdefault(item, exc)
    for item in items:
        if item.name in route_exc and route_exc[item.name] != item.error_type:
            problems.append(
                (1, item.name, f"raised {route_exc[item.name]}, recorded {item.error_type}")
            )
    for name, sizes in workloads.LARGE_BASELINE_SIZES.items():
        if any(i.name == name for i in items):
            got = [s[1:] for s in tracer.pair_sizes if s[0] == name]
            if got != sizes:
                problems.append((1, name, f"sizes {got} differ from the baseline {sizes}"))
    return problems


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "braidfloer": os.path.dirname(braidfloer.__file__),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main() -> int:
    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(braidfloer.__file__).startswith(src):
        print(f"worker: braidfloer imported from {braidfloer.__file__}, not {src}",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    items = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"setup_s": setup_s, "environment": environment(), "items": len(items)}
    if args.trace:
        untraced = run_pass(items)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(items, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        problems = mismatches(passes) + traced_checks(items, untraced, traced, tracer)
        layers = tracer.layer_metrics()
        layers["tracer.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        record["layers"] = layers
        record["spans"] = tracer.spans
        record["pair_sizes"] = tracer.pair_sizes
    else:
        sampler = sampling.Sampler().start()
        try:
            passes = [run_pass(items, sampler=sampler)]
            # whole passes only; another one starts while it fits the budget
            while time.perf_counter() - T0 - setup_s + passes[-1]["wall_s"] <= args.seconds:
                passes.append(run_pass(items, sampler=sampler))
        finally:
            sampler.stop()
        problems = mismatches(passes)
        for key in passes[0]:
            if key != "records":
                record[key] = statistics.median(p[key] for p in passes)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["passes"] = len(passes)
    record["attempted"] = len(items) * len(passes)
    record["failed"] = len({(index, name) for index, name, _ in problems})
    record["problems"] = [f"pass {index}, {name}: {message}" for index, name, message in problems]
    record["per_item_s"] = {
        item.name: [round(t, 6) for p in passes for i, _, t in p["records"] if i is item]
        for item in items
    }
    record["outcomes"] = {item.name: repr(o) for item, o, _ in passes[0]["records"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
