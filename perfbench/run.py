"""The repository benchmark: three workloads, run from a checkout's source.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload valmod_range --seed 1 --seconds 15 --trace 0

Workloads (closed loops; ``BENCHMARK.json`` says why each was chosen):

* ``valmod_range``: serial ``repro.valmod`` over ECG series, lengths 64..96;
* ``mp_engine``: three matrix profiles per op through one session on the
  two-process engine;
* ``service_mixed``: ``repro serve`` in a subprocess, one keep-alive
  connection repeating a warm read, one uploading series and writing VALMOD
  motifs into the index.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a separate
traced run (spans recorded around each layer's public functions, written to
``perfbench/out/`` as Chrome trace-event JSON).  The line before it is a
``detail`` document: machine fingerprint, sample counts and percentiles.

Each measured process is a fresh ``worker.py`` (see its docstring).  The
native kernel is compiled before anything is timed.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("valmod_range", "mp_engine", "service_mixed")
# Fresh processes (service_mixed: fresh servers) per untraced run: setup_s
# and first_op_s are the medians over them.  valmod_range takes more because
# its first op costs what its input makes it cost, and a fresh process there
# costs under 3 s; a fresh server costs about 4 s.
PROCESSES = {"valmod_range": 6, "mp_engine": 4, "service_mixed": 4}
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The run could not produce a result (not an output mismatch)."""


def percentiles(samples: list) -> dict:
    """Sample count, median, and the highest of p75/p90/p95/p99 that has at
    least ten samples beyond it."""
    ordered = sorted(samples)
    summary = {"n": len(ordered)}
    if ordered:
        summary["p50"] = statistics.median(ordered)
    for q in (75, 90, 95, 99):
        if len(ordered) * (100 - q) / 100 >= 10:
            summary["top"] = f"p{q}"
            summary[f"p{q}"] = statistics.quantiles(ordered, n=100)[q - 1]
    return summary


class Runner:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = OUT / f"work-{os.getpid()}"
        # Build output and temporary files stay inside the checkout; repro's
        # own REPRO_* switches are not inherited, so every run measures the
        # defaults.
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(SOURCE), PYTHONUNBUFFERED="1", TMPDIR=str(tmp),
                        REPRO_NATIVE_CACHE=str(OUT / "native"))

    def build(self) -> None:
        """Compile and load the native kernel before anything is timed (a
        checkout carries no build output)."""
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.matrix_profile.kernels import available_kernels; "
             "print(','.join(available_kernels()))"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if result.returncode != 0:
            raise RunError(f"cannot import repro from {SOURCE}: {result.stderr.strip()[-400:]}")
        if "native" not in result.stdout:
            print("warning: the native kernel did not load; these numbers are not "
                  "comparable with native runs", file=sys.stderr)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, role: str, index: int, seconds: float) -> tuple:
        """Run one worker process; returns (setup seconds, its result)."""
        out_path = self.work / f"{role}-{index}.json"
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.args.workload, "--seed", str(self.args.seed),
                   "--seconds", str(seconds), "--role", role, "--index", str(index),
                   "--work", str(self.work), "--out", str(out_path),
                   "--trace-out", str(OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json")]
        started = time.perf_counter()
        proc = subprocess.Popen(command, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            setup_s = self._await_ready(proc) - started
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"{role} worker did not finish within the run limit") from None
        finally:
            proc.stdout.close()
            # The worker and its own children (a server, pool workers)
            # never outlive this call.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if not out_path.exists():
            raise RunError(f"{role} worker exited with {code} and no result")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        if code not in (0, 3):
            raise RunError(f"{role} worker exited with {code}: {result.get('errors')}")
        return setup_s, result

    def _await_ready(self, proc) -> float:
        while True:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise RunError("worker never became ready")
            readable, _, _ = select.select([proc.stdout], [], [], remaining)
            if readable:
                line = proc.stdout.readline()
                if line.strip() == b"READY":
                    return time.perf_counter()
                if not line:
                    raise RunError(f"worker exited during set-up ({proc.wait()})")

    def run(self) -> tuple:
        """Run the workload's processes; returns (results, setup samples).

        An untraced run is a few fresh processes one after another, each
        timing its set-up and first op and then running closed-loop ops for
        its share of ``--seconds``.  Spreading the samples over the whole
        run averages out the host's slow and fast spells.
        """
        if self.args.trace:
            setup_s, result = self.worker("trace", 0, self.args.seconds)
            return [result], [result.get("setup_s", setup_s)]
        results, setups = [], []
        processes = PROCESSES[self.args.workload]
        for index in range(processes):
            setup_s, result = self.worker("steady", index, self.args.seconds / processes)
            setups.append(result.get("setup_s", setup_s))
            results.append(result)
            if not result["correct"]:
                break
        return results, setups


def end_to_end(results: list, setups: list) -> tuple:
    firsts = [result["first_op_s"] for result in results]
    ops = [t for result in results for t in result["op_times"]]
    reads = [t for result in results for t in result["read_times"]]
    if not ops or not reads:
        raise RunError("the timed window completed no op")
    completed = sum(result.get("ops_completed", len(result["op_times"])) for result in results)
    window = sum(result["window_s"] for result in results)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "first_op_s": (statistics.median(firsts), "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "read_s_p50": (statistics.median(reads), "s"),
        "ops_per_s": (completed / window, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    samples = {"setup_s": percentiles(setups), "first_op_s": percentiles(firsts),
               "op_s": percentiles(ops), "read_s": percentiles(reads)}
    return metrics, samples


def per_layer(results: list) -> tuple:
    """Every per-layer metric BENCHMARK.json lists.  A traced run reports 0
    for a metric it does not measure, and names it under "not_measured":
    that layer does none of the work in the processes this benchmark
    instruments.  (The service's compute layers run inside the server, which
    is observed through GET /metrics and /stats instead.)"""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    layers = results[-1]["layers"]
    metrics = {m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"]) for m in declared}
    return metrics, {"traced_ops": results[-1].get("traced_ops"),
                     "trace_file": results[-1].get("trace_file"),
                     "not_measured": sorted(set(metrics) - set(layers))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SOURCE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        runner.build()
        results, setups = runner.run()
        correct = all(result["correct"] for result in results)
        if correct:
            if args.trace:
                metrics, samples = per_layer(results)
            else:
                metrics, samples = end_to_end(results, setups)
    except RunError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    errors = [error for result in results for error in result["errors"]]
    for error in errors:
        print(f"{args.workload}: {error}", file=sys.stderr)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, sum(r["attempted"] for r in results)),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        return 1
    if args.trace:
        print(results[-1]["table"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": results[-1]["fingerprint"], "samples": samples}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": True,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
