"""One benchmark process: set a workload up, run its ops, check the outputs.

``run.py`` starts this file once per process it measures; it is not meant
to be run by hand.  The process prints ``READY`` on standard output when its
set-up is done (imports, input generation, native kernel load), then runs
its role and writes one JSON document to ``--out``:

* ``steady``: the first op in this fresh process, then closed-loop ops for
  ``--seconds`` seconds, then the output checks;
* ``trace``: the layer breakdown.  Untraced and traced ops alternate on the
  same input; the traced ones run with :mod:`layers` wrappers around each
  layer's public functions.

Every input comes from ``--seed`` through :func:`stream_seed`, so a seed
always yields the same input set.  Checks run outside the timed regions; a
mismatch raises :class:`Mismatch`, which aborts the run.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro import AnalysisRequest, EngineConfig
from repro.api.cache import series_digest
from repro.core.partial_profile import PartialProfileStore
from repro.engine.executor import ParallelExecutor
from repro.exceptions import ReproError
from repro.harness.workloads import WORKLOADS
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import available_kernels, resolve_kernel
from repro.service.client import ServiceClient

from layers import Tracer, format_table, self_times

perf = time.perf_counter

# valmod_range: the paper's workload (Figure 3's ECG dataset, length range
# 64..96, top-3 pairs per length).
VALMOD_N, VALMOD_MIN, VALMOD_MAX, VALMOD_TOP_K = 4096, 64, 96, 3
# mp_engine: three windows batched through one session on the process engine.
MP_N, MP_WINDOWS, MP_JOBS, MP_SERIES, MP_READS_PER_OP = 16384, (128, 256, 512), 2, 2, 20
# service_mixed: warm reads of one large profile beside VALMOD writes.
READ_N, READ_WINDOW = 32768, 128
WRITE_N, WRITE_MIN, WRITE_MAX = 4096, 48, 64

STREAM_VALMOD, STREAM_MP, STREAM_READ, STREAM_WRITE = 1, 2, 3, 4

class Mismatch(Exception):
    """An output check failed; the run is aborted."""


def stream_seed(seed: int, stream: int, index: int) -> int:
    """The generator seed of input ``index`` of one input stream."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel": resolve_kernel(None),
        "native_loaded": "native" in available_kernels(),
    }


def time_for_another(deadline: float, last_op_s: float) -> bool:
    """Start another op if it should end nearer the deadline than stopping
    now would: the timed window then lasts ``--seconds`` on average instead
    of overrunning it by half an op."""
    return perf() + last_op_s / 2 < deadline


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# --------------------------------------------------------------------- #
# valmod_range
# --------------------------------------------------------------------- #
def valmod_series(seed: int, index: int) -> np.ndarray:
    return WORKLOADS["ecg"].build(VALMOD_N, random_state=stream_seed(seed, STREAM_VALMOD, index)).values


def valmod_op(values: np.ndarray):
    started = perf()
    result = repro.valmod(values, VALMOD_MIN, VALMOD_MAX, top_k=VALMOD_TOP_K)
    return perf() - started, result


def valmod_reads(values: np.ndarray, result, times: list) -> list:
    """One read per length: a MASS query of the length's best motif against
    the series (where else does this motif occur?).  Returns what the
    check needs: the query's distances at both members of the pair."""
    observed = []
    for length in range(VALMOD_MIN, VALMOD_MAX + 1):
        pair = result.length_results[length].motifs[0]
        query = values[pair.offset_a:pair.offset_a + length]
        started = perf()
        profile = repro.mass(query, values)
        times.append(perf() - started)
        observed.append((pair.distance, float(profile[pair.offset_a]), float(profile[pair.offset_b])))
    return observed


def znorm_distance(values: np.ndarray, a: int, b: int, length: int) -> float:
    x = values[a:a + length]
    y = values[b:b + length]
    x = (x - x.mean()) / x.std()
    y = (y - y.mean()) / y.std()
    return float(np.sqrt(np.sum((x - y) ** 2)))


def check_valmod(values: np.ndarray, result, reads: list) -> None:
    for length in range(VALMOD_MIN, VALMOD_MAX + 1):
        pairs = result.length_results[length].motifs
        if len(pairs) != VALMOD_TOP_K:
            raise Mismatch(f"valmod: {len(pairs)} pairs at length {length}")
        for pair in pairs:
            direct = znorm_distance(values, pair.offset_a, pair.offset_b, length)
            if not np.isclose(pair.distance, direct, rtol=1e-7, atol=1e-7):
                raise Mismatch(f"valmod: pair {pair} at length {length}: direct distance {direct}")
    for length in (VALMOD_MIN, VALMOD_MAX):
        radius = default_exclusion_radius(length)
        best = repro.stomp(values, length, exclusion_radius=radius).motifs(1)[0]
        ours = result.length_results[length].motifs[0]
        if (best.offset_a, best.offset_b) != (ours.offset_a, ours.offset_b) or not np.isclose(
            best.distance, ours.distance, rtol=0, atol=1e-8
        ):
            raise Mismatch(f"valmod: top-1 at length {length} is {ours}, stomp says {best}")
    # A self-match distance is sqrt(2L(1 - r)) with r rounded just below 1,
    # so it reads about 1e-6, not 0.
    for distance, at_self, at_partner in reads:
        if abs(at_self) > 1e-5 or not np.isclose(at_partner, distance, rtol=1e-7, atol=1e-7):
            raise Mismatch(f"valmod read: distance {distance}, query profile {at_self}, {at_partner}")


def pruning_power(result) -> float:
    valid = total = 0
    for length, entry in result.length_results.items():
        if length > VALMOD_MIN:
            valid += entry.pruning.num_valid
            total += entry.pruning.num_profiles
    return valid / total


def install_valmod(tracer: Tracer) -> None:
    # The packages re-export functions named like these modules, so the
    # modules are looked up by name.
    stomp_module = importlib.import_module("repro.matrix_profile.stomp")
    valmod_module = importlib.import_module("repro.core.valmod")
    tracer.patch(stomp_module, "run_sweep", "kernels.run_sweep")
    tracer.patch(PartialProfileStore, "ingest_centered_profile", "partial_profile.ingest")
    tracer.patch(PartialProfileStore, "advance_to", "partial_profile.advance_to")
    tracer.patch(PartialProfileStore, "evaluate", "partial_profile.evaluate")
    tracer.patch(valmod_module, "distance_profile", "valmod.recompute")


def run_valmod(args, out: dict) -> None:
    # Every op of the run gets its own series: VALMOD's cost depends on the
    # input, and a median over many inputs is what keeps it steady.
    index = args.index * 1000
    values = valmod_series(args.seed, index)
    ready()
    flt = minflt()
    first_s, result = valmod_op(values)
    out["minflt_first"] = minflt() - flt
    out["first_op_s"] = first_s
    out["attempted"] += 1
    if args.role == "trace":
        check_valmod(values, result, [])
        trace_valmod(args, out, index)
        return
    read_times: list = []
    op_times: list = []
    outputs = [(index, result, valmod_reads(values, result, read_times))]
    window_start = perf()
    deadline = window_start + args.seconds
    elapsed, start = first_s, index
    while index == start or time_for_another(deadline, elapsed):
        index += 1
        values = valmod_series(args.seed, index)
        out["attempted"] += 1
        try:
            elapsed, result = valmod_op(values)
            reads = valmod_reads(values, result, read_times)
        except ReproError as error:
            out["failed"] += 1
            out["errors"].append(repr(error))
            continue
        op_times.append(elapsed)
        outputs.append((index, result, reads))
    out["window_s"] = perf() - window_start
    for index, result, reads in outputs:
        check_valmod(valmod_series(args.seed, index), result, reads)
    out["op_times"], out["read_times"] = op_times, read_times
    out["attempted"] += len(read_times)


def trace_valmod(args, out: dict, index: int) -> None:
    tracer = Tracer()
    rows: list = []
    deadline = perf() + args.seconds
    while perf() < deadline or not rows:
        index += 1
        values = valmod_series(args.seed, index)
        flt = minflt()
        untraced_s, result = valmod_op(values)
        flt = minflt() - flt
        with tracer.installed(install_valmod):
            with tracer.span("valmod.op") as root:
                traced = repro.valmod(values, VALMOD_MIN, VALMOD_MAX, top_k=VALMOD_TOP_K)
        out["attempted"] += 2
        check_valmod(values, result, [])
        check_valmod(values, traced, [])
        table = self_times(tracer.finished(root))
        wall = root[4] - root[3]
        rows.append({
            "wall": wall,
            "table": table,
            "kernels.sweep_s": column(table, "kernels.run_sweep", "self_s"),
            "partial_profile.ingest_s": column(table, "partial_profile.ingest", "self_s"),
            "partial_profile.ingest_calls": column(table, "partial_profile.ingest", "calls"),
            "partial_profile.advance_s": column(table, "partial_profile.advance_to", "self_s"),
            "partial_profile.evaluate_s": column(table, "partial_profile.evaluate", "self_s"),
            "valmod.recompute_s": column(table, "valmod.recompute", "self_s"),
            "valmod.recompute_calls": column(table, "valmod.recompute", "calls"),
            "valmod.other_s": column(table, "valmod.op", "self_s"),
            "valmod.pruning_power": pruning_power(traced),
            "proc.minflt_op": flt,
            "trace.overhead": wall / untraced_s,
        })
    layers = {name: median([row[name] for row in rows]) for name in rows[0] if name not in ("wall", "table")}
    layers["proc.minflt_first"] = out["minflt_first"]
    finish_trace(args, out, tracer, rows, layers, ("valmod.op",))


def column(table: dict, name: str, key: str) -> float:
    """One entry of a :func:`layers.self_times` table; 0 for a span that
    never ran."""
    return table.get(name, {}).get(key, 0.0)


def finish_trace(args, out: dict, tracer: Tracer, rows: list, layers: dict, roots: tuple) -> None:
    """Median per-op table, Chrome trace file, per-layer metrics."""
    merged: dict = {}
    for row in rows:
        for name, entry in row["table"].items():
            slot = merged.setdefault(name, [])
            slot.append(entry)
    table = {
        name: {key: median([entry[key] for entry in entries]) for key in ("calls", "total_s", "self_s")}
        for name, entries in merged.items()
    }
    wall = median([row["wall"] for row in rows])
    out["table"] = format_table(args.workload, table, wall, roots, layers["trace.overhead"])
    trace_path = Path(args.trace_out)
    tracer.chrome_trace(str(trace_path))
    out["trace_file"] = trace_path.name
    out["traced_ops"] = len(rows)
    out["layers"] = layers


# --------------------------------------------------------------------- #
# mp_engine
# --------------------------------------------------------------------- #
def mp_series(seed: int, index: int) -> np.ndarray:
    series = repro.generate_random_walk(MP_N, random_state=stream_seed(seed, STREAM_MP, index % MP_SERIES))
    return series.values


MP_REQUESTS = [AnalysisRequest(kind="matrix_profile", params={"window": w}) for w in MP_WINDOWS]


def mp_op(values: np.ndarray, read_times: list | None):
    """One op: a fresh session, the three windows as one engine batch; then
    warm re-reads of the same batch from the session's cache."""
    session = repro.analyze(values, engine=EngineConfig(executor="parallel", n_jobs=MP_JOBS))
    try:
        started = perf()
        results = session.run_many(MP_REQUESTS)
        elapsed = perf() - started
        profiles = [(r.payload.distances, r.payload.indices) for r in results]
        reads_ok = True
        if read_times is not None:
            for _ in range(MP_READS_PER_OP):
                started = perf()
                again = session.run_many_with_info(MP_REQUESTS)
                read_times.append(perf() - started)
                reads_ok &= all(
                    source == "memory" and r.payload.distances is d
                    for (r, source), (d, _) in zip(again, profiles)
                )
    finally:
        session.close()
    return elapsed, profiles, reads_ok


def mp_reference(work: Path, index: int, values: np.ndarray) -> list:
    """Serial native ``repro.stomp`` of one input, computed once per run and
    shared between the run's processes through the work directory."""
    path = work / f"mp-ref-{index % MP_SERIES}.npz"
    if path.exists():
        with np.load(path) as saved:
            return [(saved[f"d{w}"], saved[f"i{w}"]) for w in MP_WINDOWS]
    reference = []
    for window in MP_WINDOWS:
        profile = repro.stomp(values, window)
        reference.append((profile.distances, profile.indices))
    tmp = work / f"mp-ref-{index % MP_SERIES}.tmp.npz"
    np.savez(tmp, **{f"d{w}": d for w, (d, _) in zip(MP_WINDOWS, reference)},
             **{f"i{w}": i for w, (_, i) in zip(MP_WINDOWS, reference)})
    os.replace(tmp, path)
    return reference


def check_mp(profiles: list, reference: list, reads_ok: bool) -> None:
    if not reads_ok:
        raise Mismatch("mp_engine: a warm re-read was not a memory hit on the same arrays")
    for window, (d, i), (rd, ri) in zip(MP_WINDOWS, profiles, reference):
        if not np.array_equal(i, ri):
            raise Mismatch(f"mp_engine: indices differ from serial stomp at window {window}")
        if not np.allclose(d, rd, rtol=0, atol=1e-8):
            raise Mismatch(f"mp_engine: distances differ from serial stomp at window {window}")


def shm_entries() -> set:
    """Names in /dev/shm, where the engine's shared-memory segments live."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_mp(args, out: dict) -> None:
    work = Path(args.work)
    index = args.index
    values = mp_series(args.seed, index)
    ready()
    if args.role == "trace":
        trace_mp(args, out, values)
        return
    read_times: list = []
    op_times: list = []
    first_s, profiles, reads_ok = mp_op(values, read_times)
    out["first_op_s"] = first_s
    out["attempted"] += 1
    outputs = [(index, profiles, reads_ok)]
    window_start = perf()
    deadline = window_start + args.seconds
    elapsed, start = first_s, index
    while index == start or time_for_another(deadline, elapsed):
        index += 1
        values = mp_series(args.seed, index)
        out["attempted"] += 1
        try:
            elapsed, profiles, reads_ok = mp_op(values, read_times)
        except ReproError as error:
            out["failed"] += 1
            out["errors"].append(repr(error))
            continue
        op_times.append(elapsed)
        outputs.append((index, profiles, reads_ok))
    out["window_s"] = perf() - window_start
    for index, profiles, reads_ok in outputs:
        check_mp(profiles, mp_reference(work, index, mp_series(args.seed, index)), reads_ok)
    out["op_times"], out["read_times"] = op_times, read_times
    out["attempted"] += len(read_times)


def install_mp(tracer: Tracer) -> None:
    batch_module = importlib.import_module("repro.engine.batch")
    install_valmod(tracer)  # registered so the trace shows these layers stay idle
    tracer.patch(batch_module, "compute_profiles", "engine.batch")
    tracer.patch(ParallelExecutor, "map", "engine.map", count_arg=2)


def trace_mp(args, out: dict, values: np.ndarray) -> None:
    shm_before = shm_entries()
    started = perf()
    executor = ParallelExecutor(MP_JOBS)
    executor.prewarm()
    pool_start = perf() - started
    executor.close()
    first_s, _, _ = mp_op(values, None)
    out["first_op_s"] = first_s
    out["attempted"] += 1
    tracer = Tracer()
    rows: list = []
    index = args.index
    deadline = perf() + args.seconds
    while perf() < deadline or not rows:
        index += 1
        values = mp_series(args.seed, index)
        untraced_s, _, _ = mp_op(values, None)
        session = repro.analyze(values, engine=EngineConfig(executor="parallel", n_jobs=MP_JOBS))
        try:
            with tracer.installed(install_mp):
                with tracer.span("api.run_many") as root:
                    results = session.run_many(MP_REQUESTS)
        finally:
            session.close()
        started = perf()
        reference = [(p.distances, p.indices) for p in (repro.stomp(values, w) for w in MP_WINDOWS)]
        serial_s = perf() - started
        out["attempted"] += 2
        check_mp([(r.payload.distances, r.payload.indices) for r in results], reference, True)
        spans = tracer.finished(root)
        table = self_times(spans)
        wall = root[4] - root[3]
        batch = column(table, "engine.batch", "total_s")
        mapped = column(table, "engine.map", "total_s")
        rows.append({
            "wall": wall,
            "table": table,
            "engine.batch_s": batch,
            "engine.map_s": mapped,
            "engine.prep_s": batch - mapped,
            "engine.tasks": sum(span[6].get("items", 0) for span in spans if span[2] == "engine.map"),
            "api.session_s": wall - batch,
            "kernels.serial_s": serial_s,
            "engine.efficiency": serial_s / (MP_JOBS * untraced_s),
            "kernels.sweep_s": column(table, "kernels.run_sweep", "self_s"),
            "partial_profile.ingest_calls": column(table, "partial_profile.ingest", "calls"),
            "trace.overhead": wall / untraced_s,
        })
    layers = {name: median([row[name] for row in rows]) for name in rows[0] if name not in ("wall", "table")}
    layers["engine.pool_start_s"] = pool_start
    layers["engine.shm_left"] = len(shm_entries() - shm_before)
    finish_trace(args, out, tracer, rows, layers, ("api.run_many",))


# --------------------------------------------------------------------- #
# service_mixed
# --------------------------------------------------------------------- #
READ_REQUEST = AnalysisRequest(kind="matrix_profile", params={"window": READ_WINDOW})
WRITE_REQUEST = AnalysisRequest(kind="motifs", params={"min_length": WRITE_MIN, "max_length": WRITE_MAX})


class Server:
    """``repro serve`` in a subprocess, with its own fresh data directory.

    ``--workers 2`` gives each connection a worker.  With the default single
    worker every read queues behind the running VALMOD write, and the read
    latency splits into two modes whose median jumps from run to run.
    """

    def __init__(self, work: Path, tag: str) -> None:
        data = work / f"data-{tag}"
        self.stderr_path = work / f"serve-{tag}.err"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--data-dir", str(data), "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def stop(self) -> int:
        """SIGINT, as an operator would; returns the ERROR/traceback lines
        the server printed (a forced kill counts as one more)."""
        forced = 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                forced = 1
        self.proc.stdout.close()
        self._stderr.close()
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return forced + sum(1 for line in text.splitlines() if "Traceback" in line or "ERROR" in line)


def write_series(seed: int, index: int):
    return WORKLOADS["ecg"].build(WRITE_N, random_state=stream_seed(seed, STREAM_WRITE, index))


def read_op(client: ServiceClient, digest: str):
    started = perf()
    result, source = client.analyze(digest, READ_REQUEST)
    return perf() - started, result, source


def write_op(client: ServiceClient, series):
    started = perf()
    result, source = client.analyze(series, WRITE_REQUEST)
    answer = client.query({"digest": series_digest(series.values), "kind": "motif"})
    return perf() - started, result, source, answer


def check_read(result, source: str, primed) -> None:
    if source != "memory":
        raise Mismatch(f"service read answered from {source!r}, not memory")
    if not (np.array_equal(result.payload.distances, primed.distances)
            and np.array_equal(result.payload.indices, primed.indices)):
        raise Mismatch("service read arrays differ from the primed result")


def check_write(result, source: str, answer: dict) -> None:
    if source != "computed":
        raise Mismatch(f"service write answered from {source!r}, not computed")
    best = result.payload.best_overall()
    found = any(
        row["length"] == best.window and {row["start"], row["partner"]} == {best.offset_a, best.offset_b}
        for row in answer["rows"]
    )
    if not found:
        raise Mismatch(f"service write motif {best} is missing from /query")


def start_primed(work: Path, tag: str, seed: int):
    """Start a server and prime its read result; returns (server, setup_s,
    read client, read digest, primed profile)."""
    started = perf()
    read_values = repro.generate_random_walk(READ_N, random_state=stream_seed(seed, STREAM_READ, 0)).values
    server = Server(work, tag)
    reader = ServiceClient(port=server.port)
    try:
        digest = reader.put_series(read_values, series_name="read")
        primed, source = reader.analyze(digest, READ_REQUEST)
        setup_s = perf() - started
        if source != "computed":
            raise Mismatch(f"priming read answered from {source!r}")
    except BaseException:
        reader.close()
        server.stop()
        raise
    return server, setup_s, reader, digest, primed.payload


def mixed_load(seconds: float, reader, writer, digest, primed, seed, write_index, out, tracer=None):
    """Two closed loops, one per keep-alive connection, for ``seconds``.

    Returns the successful reads as ``(seconds, cache source)``, the
    successful writes' seconds, the window length and the last write index
    used.  Each output is checked as soon as its request has been timed.
    """
    reads: list = []
    writes: list = []
    last_index = [write_index]
    deadline = perf() + seconds

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    def read_loop():
        while perf() < deadline:
            out["attempted"] += 1
            try:
                with span("read.op"):
                    elapsed, result, source = read_op(reader, digest)
            except ReproError as error:
                out["failed"] += 1
                out["errors"].append(repr(error))
                continue
            check_read(result, source, primed)
            reads.append((elapsed, source))

    def write_loop():
        elapsed = 0.0
        while last_index[0] == write_index or time_for_another(deadline, elapsed):
            last_index[0] += 1
            series = write_series(seed, last_index[0])
            out["attempted"] += 1
            try:
                with span("write.op"):
                    elapsed, result, source, answer = write_op(writer, series)
            except ReproError as error:
                out["failed"] += 1
                out["errors"].append(repr(error))
                continue
            check_write(result, source, answer)
            writes.append(elapsed)

    failures: list = []
    threads = [threading.Thread(target=guarded, args=(fn, failures)) for fn in (read_loop, write_loop)]
    window_start = perf()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = perf() - window_start
    if failures:
        raise failures[0]
    return reads, writes, window, last_index[0]


def guarded(fn, failures: list) -> None:
    try:
        fn()
    except BaseException as error:  # re-raised by the joining thread
        failures.append(error)


def run_service(args, out: dict) -> None:
    work = Path(args.work)
    ready()
    write_index = args.index * 1000
    server, setup_s, reader, digest, primed = start_primed(work, str(args.index), args.seed)
    out["setup_s"] = setup_s
    writer = ServiceClient(port=server.port)
    try:
        out["attempted"] += 1
        elapsed, result, source, answer = write_op(writer, write_series(args.seed, write_index))
        check_write(result, source, answer)
        out["first_op_s"] = elapsed
        if args.role == "trace":
            trace_service(args, out, server, reader, writer, digest, primed, write_index)
        else:
            reads, writes, window, _ = mixed_load(
                args.seconds, reader, writer, digest, primed, args.seed, write_index, out)
            out["read_times"] = [elapsed for elapsed, _ in reads]
            out["op_times"], out["window_s"] = writes, window
            out["ops_completed"] = len(reads) + len(writes)
    finally:
        # The connections stay open and idle while the server stops, as a
        # client pool's would.
        shutdown_errors = server.stop()
        reader.close()
        writer.close()
    if args.role == "trace":
        out["layers"]["service.shutdown_errors"] = shutdown_errors


def install_service(tracer: Tracer) -> None:
    tracer.patch(ServiceClient, "analyze", "client.analyze")
    tracer.patch(ServiceClient, "put_series", "client.put_series")
    tracer.patch(ServiceClient, "query", "client.query")


def histogram_mean(families: dict, kind: str, phase: str) -> float:
    entry = families.get("service", {}).get("histograms", {}).get(f"{kind}.{phase}")
    if not entry or not entry.get("count"):
        return 0.0
    return entry["sum"] / entry["count"]


def raw_read_bytes(port: int, digest: str) -> int:
    """Bytes of one read response, fetched with a bare HTTP client."""
    body = json.dumps({"request": READ_REQUEST.as_dict(), "series_digest": digest}).encode()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", "/analyze", body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
        if response.status != 200:
            raise Mismatch(f"raw read answered {response.status}")
        return len(payload)
    finally:
        connection.close()


def trace_service(args, out, server, reader, writer, digest, primed, write_index) -> None:
    half = args.seconds / 2
    _, plain_writes, _, write_index = mixed_load(
        half, reader, writer, digest, primed, args.seed, write_index, out)
    monitor = ServiceClient(port=server.port)
    try:
        token = monitor.metrics()["token"]
        uploads = monitor.stats()["uploads"]
        tracer = Tracer()
        with tracer.installed(install_service):
            reads, writes, _, last_index = mixed_load(
                half, reader, writer, digest, primed, args.seed, write_index, out, tracer)
        delta = monitor.metrics(since=token)
        if delta.get("window") != "delta":
            raise Mismatch("GET /metrics?since= did not answer a delta window")
        families = delta["families"]
        stats = monitor.stats()
        response_bytes = raw_read_bytes(server.port, digest)
        out["attempted"] += 1
    finally:
        monitor.close()
    queue_r = histogram_mean(families, "matrix_profile", "queue")
    execute_r = histogram_mean(families, "matrix_profile", "execute")
    total_r = histogram_mean(families, "matrix_profile", "total")
    spans = tracer.spans
    table = self_times(spans)
    query_times = [s[4] - s[3] for s in spans if s[2] == "client.query" and s[4] is not None]
    layers = {
        "service.queue_s.read": queue_r,
        "service.queue_s.write": histogram_mean(families, "motifs", "queue"),
        "service.execute_s.read": execute_r,
        "service.execute_s.write": histogram_mean(families, "motifs", "execute"),
        "service.respond_s.read": total_r - queue_r - execute_r,
        "client.residual_s.read": sum(elapsed for elapsed, _ in reads) / len(reads) - total_r,
        "service.response_bytes.read": response_bytes,
        "api.hit_ratio.read": sum(1 for _, source in reads if source == "memory") / len(reads),
        "store.uploads_per_write": (stats["uploads"] - uploads) / (last_index - write_index),
        "index.query_s": median(query_times),
        "index.rows": stats["index"]["rows"],
        "trace.overhead": median(writes) / median(plain_writes),
    }
    wall = sum(s[4] - s[3] for s in spans if s[1] is None and s[4] is not None)
    finish_trace(args, out, tracer, [{"wall": wall, "table": table}], layers, ("read.op", "write.op"))


# --------------------------------------------------------------------- #
def ready() -> None:
    """Signal the end of set-up; later output goes to standard error, so the
    parent can stop reading this pipe."""
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    os.dup2(2, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["valmod_range", "mp_engine", "service_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=["steady", "trace"])
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    out = {"attempted": 0, "failed": 0, "errors": [], "correct": True, "fingerprint": fingerprint()}
    runner = {"valmod_range": run_valmod, "mp_engine": run_mp, "service_mixed": run_service}[args.workload]
    code = 0
    try:
        runner(args, out)
    except Mismatch as error:
        out["correct"] = False
        out["errors"].append(f"mismatch: {error}")
        code = 3
    tmp = Path(args.out + ".tmp")
    tmp.write_text(json.dumps(out), encoding="utf-8")
    os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
