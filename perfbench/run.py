"""Outside-in benchmark of the braid Floer route and its toolkits.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Each workload runs in a fresh interpreter with no result cache, BLAS threads
pinned to 1 and a fixed hash seed.  With `--trace 0` the run times whole
passes over the workload's items with tracing off, beside a speed sampler
that shares the worker's CPU (sampler.py), and reports the end-to-end
metrics; set-up is timed in that process and in SETUP_PROBES more fresh
processes, and the median is reported.  With `--trace 1` it runs one
untraced and one traced pass, checks that they agree, and reports the
per-layer metrics.  Every item's outcome is checked against the recorded
one.  A table goes to standard output, a full record (environment, per-item
times, spans) to .perfbench_out/, and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk", "large", "toolkit")
SETUP_PROBES = 3
DEADLINE_S = 175.0
OUT_DIR = ".perfbench_out"

# wall_rel and cpu_rel are a pass's wall and CPU time in units of the
# reference kernel timed beside it (reference.py), which cancels the host's
# speed drift
END_TO_END = (
    ("wall_rel", "ref"),
    ("cpu_rel", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# printed and recorded, not in the JSON result: raw seconds follow the host's
# speed drift (up to +-30 % over minutes) too closely to hold a bound of 0.25,
# and only desk and large have refusals
RAW_METRICS = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_s.p50", "s"),
    ("item_s.max", "s"),
    ("refusal_s.max", "s"),
)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def isolated_env(root: Path) -> dict[str, str]:
    """No result cache, one BLAS thread, fixed hashing, package from src/."""
    env = {k: v for k, v in os.environ.items() if k != "BRAIDFLOER_CACHE_DIR"}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str:
    """HEAD of a checkout's own .git, read without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "braidfloer").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def declared_names(root: Path, trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    bench = json.loads(path.read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def worker(args, env, root: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run deadline passed before the workload process started")
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no record")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "braidfloer" / "__init__.py").is_file():
        print("perfbench: no src/braidfloer here; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = isolated_env(root)
    try:
        record = worker(args, env, root, deadline)
        setup = [record["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(worker(args, env, root, deadline, setup_only=True)["setup_s"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in record["layers"].items()}
    else:
        record["setup_s"] = statistics.median(setup)
        record["setup_samples_s"] = setup
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
    declared = declared_names(root, args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(declared)}", file=sys.stderr)
        return 4
    record["git_commit"] = git_commit(root)
    record["source_sha256"] = source_digest(root)
    record["nproc"] = os.cpu_count()
    record["affinity"] = len(os.sched_getaffinity(0))

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    env_doc = record["environment"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={env_doc['python']} numpy={env_doc['numpy']} scipy={env_doc['scipy']} "
        f"nproc={record['nproc']} commit={record['git_commit']} src={record['source_sha256']}"
    )
    print(f"  items {record['items']} x passes {record['passes']}; record in {out_path.relative_to(root)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for name, unit in RAW_METRICS:
        if not args.trace and name in record:
            print(f"  {name:<36} {record[name]:>14.6g} {unit} (not gated)")
    fail_share = record["failed"] / record["attempted"]
    print(f"  {'fail_share':<36} {fail_share:>14.6g} share "
          f"({record['failed']} of {record['attempted']} attempted)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
