'''Benchmark for the conformal_retrieval package.

Usage, from the repository root:

    python3 bench/run.py --workload exact-dense --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --workload all --seed 1

For each workload one child process generates the seeded inputs (and the
inputs of the pinned seed, whose digest must match bench/pins.json), then
PROCESSES child processes measure in turn, each for an equal share of
--seconds. With --trace 0 they report the end-to-end metrics of
BENCHMARK.json; with --trace 1 they wrap the package's public functions and
report its per-layer metrics instead. Metric lines go to stdout, then one
JSON object as the last line. The exit code is non-zero when any
correctness check fails, and 2 with no result when the benchmark cannot
run. A record of each run, with the environment it ran in and every raw
sample, is written to .bench_out/ at the repository root.
'''

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave bench/ as checked out

import summary  # noqa: E402
from spec import PIN_SEED, PROCESSES, WORKLOADS, input_digest  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
# Every run must finish within this many seconds.
RUN_LIMIT_S = 170

# BLAS gets one thread: workers=2 then uses exactly the box's two cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(Exception):
    '''The benchmark cannot run here; no result is printed.'''


def metric_units(trace) -> dict:
    '''Name -> unit of the metrics BENCHMARK.json lists for this mode.'''
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline) -> str:
    '''Run a worker to completion within the deadline; return its stdout.'''
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + argv[0])
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")]
                            + argv, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {argv[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}")
    return out


def environment() -> dict:
    '''Where the run happens; the generating child adds numpy and BLAS.'''
    env = {
        "git_sha": "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads": THREAD_ENV,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            env["git_sha"] = "unknown (git failed)"
    return env


def run_workload(name, seed, seconds, trace, deadline, pins, env) -> dict:
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    data = os.path.join(work, "data")
    pinned = os.path.join(work, "pinned")
    os.makedirs(work, exist_ok=True)
    try:
        gen = json.loads(run_child(
            ["generate", "--workload", name, "--seed", str(seed),
             "--out", data, "--pin-seed", str(PIN_SEED), "--pin-out", pinned],
            deadline))
        env = dict(env, **gen["environment"])
        digest = input_digest(data)
        pin_digest = input_digest(pinned)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
        records = []
        for part in range(PROCESSES):
            final = part == PROCESSES - 1
            record_path = os.path.join(work, f"record{part}.json")
            argv = ["measure", "--workload", name, "--seed", str(seed),
                    "--seconds", repr(seconds / PROCESSES),
                    "--trace", str(trace), "--final", str(int(final)),
                    "--data", data, "--digest", digest,
                    "--work", os.path.join(work, f"run{part}"),
                    "--record", record_path]
            if trace and final:
                argv += ["--spans", stem + "-spans.json"]
            start = time.monotonic()
            run_child(argv, deadline)
            with open(record_path, encoding="utf-8") as handle:
                records.append(json.load(handle))
            records[-1]["process_wall_s"] = time.monotonic() - start
        checks = [
            (pin_digest == pins.get(name),
             f"inputs at pinned seed {PIN_SEED} have digest {pin_digest}, "
             f"bench/pins.json expects {pins.get(name)}"),
            (all(r.get("digests") == records[0].get("digests") for r in records),
             "model, results or report bytes differ between processes"),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(WORK)
    result = {
        "workload": name, "seed": seed, "trace": trace, "environment": env,
        "input_sha256": digest, "pinned_sha256": pin_digest,
        "attempted": sum(r["attempted"] for r in records) + len(checks),
        "failed": sum(r["failed"] for r in records)
        + sum(not ok for ok, _ in checks),
        "failures": [f for r in records for f in r["failures"]]
        + [what for ok, what in checks if not ok],
        "errors": [r["error"] for r in records if r["error"]],
        "absent": sorted({a for r in records for a in r["absent"]}),
        "samples": {key: sum(len(r["samples"].get(key, ())) for r in records)
                    for key in records[0]["samples"]},
        "metrics": {},
    }
    if not result["errors"]:
        if trace:
            result["metrics"] = summary.per_layer(
                records, WORKLOADS[name]["k"], gen["generate_s"])
        else:
            result["metrics"] = summary.end_to_end(records)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, records=records), handle)
    return result


def write_pins(deadline) -> int:
    '''Regenerate the pinned-seed inputs of every workload and store their
    digests in bench/pins.json.'''
    pins = {}
    for name in sorted(WORKLOADS):
        work = os.path.join(WORK, f"pin-{name}-{os.getpid()}")
        try:
            run_child(["generate", "--workload", name, "--seed", str(PIN_SEED),
                       "--out", os.path.join(work, "a"),
                       "--pin-seed", str(PIN_SEED),
                       "--pin-out", os.path.join(work, "b")],
                      deadline)
            pins[name] = input_digest(os.path.join(work, "a"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate bench/pins.json and exit")
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "conformal_retrieval")):
            raise BenchError("no src/conformal_retrieval next to bench/")
        if opts.write_pins:
            return write_pins(deadline)
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
        units = metric_units(opts.trace)
        names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
        env = environment()
        runs = [run_workload(name, opts.seed, opts.seconds, opts.trace,
                             deadline, pins, env) for name in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for record in runs:
        name = record["workload"]
        print(f"bench: {name}: environment "
              f"{json.dumps(record['environment'], sort_keys=True)}",
              file=sys.stderr)
        prefix = "" if len(runs) == 1 else name + "."
        for failure in record["failures"] + record["errors"]:
            print(f"bench: {name}: FAILED: {failure}", file=sys.stderr)
        for metric in record["absent"]:
            print(f"bench: {name}: absent: {metric}", file=sys.stderr)
        print(f"bench: {name}: samples {json.dumps(record['samples'])}",
              file=sys.stderr)
        for metric, unit in units.items():
            value = record["metrics"].get(metric)
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"{name:16s} {metric:36s} {shown:>14s} {unit}")
            if value is not None:
                result["metrics"][prefix + metric] = {"value": value,
                                                       "unit": unit}
        print(f"{name:16s} {'ops_attempted':36s} {record['attempted']:>14d} count")
        print(f"{name:16s} {'ops_failed':36s} {record['failed']:>14d} count")
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
