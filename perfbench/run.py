"""End-to-end benchmark of the DeepN-JPEG reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tiny --seed 0 --seconds 10 --trace 0

Workloads (closed loop, one client, one process):

* ``paper-tiny``  — all seven figures at ``ExperimentConfig.tiny()``,
  ``workers=1``: the time to regenerate the paper, bound by NN training.
* ``edge-stream`` — one image at a time through DeepN-JPEG encode →
  container decode → single-image inference: codec and inference
  latency, no training in the timed phase.

Each run starts fresh interpreters with BLAS and OpenMP pinned to one
thread: one to warm bytecode and the page cache (discarded), then the
measuring one, which sets up, runs a discarded warm-up, times ops for
``--seconds`` seconds and checks every op.  Interpreters that only set
up run before and after it; ``setup_s`` is the median over them and the
measuring one.  The last line of standard output is the result as one
JSON object; the line before it stamps the environment.  ``--trace 1``
reports per-layer self times and counters instead of the end-to-end
metrics (see ``tracing.py``).  ``BENCHMARK.json`` at the root declares
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
#: Declares the metrics, with their units, that a run reports.
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")
#: Fresh interpreters that set the workload up, the measuring one
#: included; setup_s is their median.
SETUP_SAMPLES = 5
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Every run must end within this many seconds.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The environment of every benchmark interpreter.

    ``REPRO_*`` knobs are dropped so only default paths are measured.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = SOURCE
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = WORKDIR
    return env


def run_child(arguments, mode: str, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh interpreter; return its JSON line."""
    workdir = os.path.join(WORKDIR, mode)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    started = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "workload.py"), mode,
        "--workload", arguments.workload, "--seed", str(arguments.seed),
        "--seconds", str(arguments.seconds), "--trace", str(arguments.trace),
        "--t0", repr(started), "--workdir", workdir,
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        output = None
    # Stop the child if it overran, and any pool worker it left behind.
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if output is None:
        process.communicate()
        raise ChildFailed(f"{mode} did not finish before the deadline")
    if process.returncode != 0:
        raise ChildFailed(f"{mode} exited with status {process.returncode}")
    lines = output.decode("utf-8").strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} printed no result")
    return json.loads(lines[-1])


def per_layer(report: dict, names) -> dict:
    """Per-layer values: self time of ``<span>_ms``, counters by name."""
    trace = report["trace"]
    self_s = trace["self_s"]
    counters = trace["counters"]
    gets = counters.get("experiments.store_gets", 0)
    values = {
        "import_ms": 1e3 * report["import_s"],
        "experiments.store_hit_ratio": (
            counters.get("experiments.store_hits", 0) / gets if gets else 0.0
        ),
        # Time inside the benchmark's own set-up and op spans that no
        # layer span covers.
        "bench.other_ms": 1e3 * sum(
            seconds for name, seconds in self_s.items()
            if name.startswith("bench.")
        ),
        "trace.overhead_pct": trace["overhead_pct"],
    }
    for name in names:
        if name.endswith("_ms"):
            values.setdefault(name, 1e3 * self_s.get(name[:-3], 0.0))
        else:
            values.setdefault(name, counters.get(name, 0))
    return values


def main(argv=None) -> int:
    with open(DECLARATION, "r", encoding="utf-8") as handle:
        declaration = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True,
        choices=[workload["name"] for workload in declaration["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(
            f"error: no repro package under {SOURCE}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    declared = {
        kind: {metric["name"]: metric["unit"] for metric in declaration[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    samples = SETUP_SAMPLES - 1
    try:
        # A discarded interpreter warms bytecode and the page cache.
        versions = run_child(arguments, "import", deadline)
        # Set-up samples are taken before and after the measuring run, so
        # a few seconds of outside load cannot move all of them.
        setups = [
            run_child(arguments, "setup", deadline)["setup_s"]
            for _ in range(samples // 2)
        ]
        report = run_child(arguments, "run", deadline)
        setups.append(report["setup_s"])
        setups += [
            run_child(arguments, "setup", deadline)["setup_s"]
            for _ in range(samples - samples // 2)
        ]
    except (ChildFailed, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    stamp = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "blas": versions["blas"],
        "thread_pins": THREAD_PINS,
        "setup_samples_s": setups,
        **report["method"],
    }
    if arguments.trace:
        stamp["spans"] = report["trace"]["spans"]
        units = declared["per_layer"]
        values = per_layer(report, units)
    else:
        units = declared["end_to_end"]
        values = {"setup_s": statistics.median(setups), **report["metrics"]}
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": report["passed"] == report["attempted"],
        "attempted": report["attempted"],
        "failed": report["attempted"] - report["passed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
