#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload join-wide --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run.  It sets up the workload several times
(the median is ``setup_s``), warms every distinct op once, and then
measures for ``--seconds``.  It checks every timed output against its
oracle and prints the end-to-end metrics.  ``--trace 1`` is the separate
traced run.  It runs a pass under the outside-in tracer (:mod:`layers`)
between two untraced passes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any output
mismatch is listed by op name, and the exit code is then 1.  Queries the
server rejected or cancelled are listed as ``NOT-COMPLETED`` and counted
in ``failed``; they leave the run correct.  See README.md in this
directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("join-wide", "groupby-modes", "serve-tier-rw")
#: Setups (build plus warm pass) per timed run: at least SETUP_REPS, and
#: more until the size's ``setup_min_s`` have passed.  ``setup_s`` is
#: their median.
SETUP_REPS = 3
#: A host tail percentile is reported only with this many samples
#: beyond it.
TAIL_SAMPLES_BEYOND = 10

#: Seconds the speed probe's kernel takes on the reference machine (a
#: shared 2-core VM at 2.1 GHz, Python 3.11, numpy 2.4).  Host times are reported
#: at that speed: raw seconds x CAL_REFERENCE_S / probe median.
CAL_REFERENCE_S = 0.1
#: Minimum wall time between two speed-probe samples.
CAL_INTERVAL_S = 2.0

#: serve-tier-rw's sim_ms_p50 windows span this many update periods
#: (5 x 20 = 100 events).
SIM_WINDOW_UPDATES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_ms_p50": "ms",
    "host_rows_per_s": "rows/s",
    "sim_ms_p50": "sim-ms",
    "sim_ms_p95": "sim-ms",
    "sim_rows_per_s": "rows/sim-s",
    "sim_goodput_qps": "q/sim-s",
    "host_rss_peak_mb": "MB",
}


def _import_library() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _tail(samples: List[float], q: float) -> Optional[float]:
    """The q-th percentile, or None when fewer than the required samples
    lie beyond it."""
    if len(samples) * (100.0 - q) / 100.0 < TAIL_SAMPLES_BEYOND:
        return None
    return _percentile(samples, q)


class SpeedProbe:
    """Samples the machine's current speed with a fixed numpy kernel.

    The benchmark runs on shared machines whose speed drifts by tens of
    percent within seconds and across minutes.  A fixed kernel -- a
    random gather and scan over 2^21 values, a sort of 2^19 keys and an
    interpreter-bound loop -- sampled through the run outside the timed
    regions tracks that drift; host times are divided by it, so they
    measure the program rather than the machine's momentary speed.  Each
    sample is the faster of two back-to-back kernel runs, because the
    first run after a large operator pays for cold caches.  The probe
    imports no library code, so a change to the program cannot move it.
    """

    BURST = 2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self._order = rng.permutation(1 << 21)
        self._values = rng.integers(0, 1 << 31, 1 << 21)
        self._keys = rng.integers(0, 1 << 31, 1 << 19).astype(np.int32)
        # Preallocated outputs: the probe allocates nothing, so allocator
        # and page-fault state left behind by the program cannot move it.
        self._gathered = np.empty_like(self._values)
        self._sorted = np.empty_like(self._keys)
        self._table = {i: i * 7 for i in range(256)}
        self.samples: List[float] = []
        self._last = 0.0

    def _kernel(self) -> float:
        import numpy as np

        started = time.perf_counter()
        np.take(self._values, self._order, out=self._gathered)
        np.cumsum(self._gathered, out=self._gathered)
        self._sorted[:] = self._keys
        self._sorted.sort(kind="stable")
        # Interpreter-bound part (the serving layer is mostly Python).
        table = self._table
        acc = 0
        for i in range(100_000):
            acc += table[i & 255] ^ i
        return time.perf_counter() - started

    def sample(self) -> None:
        gc.disable()
        try:
            self.samples.append(min(self._kernel() for _ in range(self.BURST)))
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def maybe(self) -> None:
        """Sample when CAL_INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.sample()

    @property
    def nbytes(self) -> int:
        """Bytes of the probe's arrays, resident for the whole run."""
        return sum(a.nbytes for a in (self._order, self._values, self._keys,
                                      self._gathered, self._sorted))

    @property
    def factor(self) -> float:
        """Multiply raw host seconds by this to get reference-speed seconds."""
        return CAL_REFERENCE_S / statistics.median(self.samples)


def _status_mb(field: str) -> Optional[float]:
    """A ``kB`` field of /proc/self/status in MB, or None off Linux."""
    try:
        text = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    return None


class RssPeak:
    """Peak resident memory of the timed phase.

    Entering resets the kernel's peak-RSS mark (VmHWM), so set-up and the
    correctness references, which run before, do not count.  The speed
    probe's arrays stay resident through the phase and are taken off, so
    the value moves with the program's own memory.  Where the mark cannot
    be reset, the process-wide peak is reported and ``scope`` says so.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe_mb = probe.nbytes / 2**20
        self.scope = "process"
        self.baseline_mb: Optional[float] = None

    def __enter__(self) -> "RssPeak":
        gc.collect()
        try:
            Path("/proc/self/clear_refs").write_text("5")
            self.scope = "timed phase"
        except OSError:
            pass
        self.baseline_mb = _status_mb("VmRSS")
        return self

    def __exit__(self, *exc) -> None:
        peak = _status_mb("VmHWM") if self.scope == "timed phase" else None
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.peak_mb = peak - self.probe_mb

    def record(self) -> Dict[str, object]:
        return {"rss_scope": self.scope, "rss_baseline_mb": self.baseline_mb,
                "rss_probe_mb": self.probe_mb}


def provenance(name: str, seed: int, size: str, seconds: float) -> Dict[str, object]:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- batch workloads ----------------------------------------------------------


def _batch_pass(workload, expected_sim: Dict[str, float], tally: Dict[str, object],
                host: Dict[str, List[float]], probe: Optional[SpeedProbe] = None) -> float:
    """One pass over the op cycle; returns the timed host seconds.

    Each op is timed alone; its output check runs outside the timing.
    """
    timed = 0.0
    for op in workload.ops:
        started = time.perf_counter()
        output, sim_s = op.run()
        elapsed = time.perf_counter() - started
        timed += elapsed
        host[op.name].append(elapsed)
        tally["queries"] += 1
        tally["rows"] += op.rows
        reason = workload.check(op, output)
        if reason is not None:
            tally["mismatches"][f"{op.name}: {reason}"] += 1
        if sim_s != expected_sim[op.name]:
            tally["sim_drift"][op.name] += 1
        del output
        if probe is not None:
            probe.maybe()
    return timed


def _new_tally() -> Dict[str, object]:
    return {"queries": 0, "rows": 0, "mismatches": Counter(), "sim_drift": Counter()}


def _median_setup(build, warm, min_s: float, probe: SpeedProbe):
    """Set the workload up repeatedly: ``build()``, then ``warm(built)``.

    Returns the last build and its warm result, the median setup seconds
    and the median build seconds.
    """
    setups, builds = [], []
    built = None
    while len(setups) < SETUP_REPS or sum(setups) < min_s:
        built = None
        gc.collect()
        probe.maybe()
        started = time.perf_counter()
        built = build()
        done = time.perf_counter()
        warmed = warm(built)
        setups.append(time.perf_counter() - started)
        builds.append(done - started)
    return built, warmed, statistics.median(setups), statistics.median(builds)


def _setup_batch(workloads, name: str, seed: int, size, probe: SpeedProbe):
    """Generate inputs and build the executors, then warm every op once.

    Returns the workload, its warm pass's simulated seconds per op, the
    median setup seconds and the median build seconds.
    """
    return _median_setup(
        lambda: workloads.BATCH_BUILDERS[name](seed, size),
        lambda workload: {op.name: op.run()[1] for op in workload.ops},
        size.setup_min_s, probe,
    )


def _batch_sim_metrics(workload, sims: Dict[str, float]) -> Dict[str, float]:
    per_query = [sims[op.name] for op in workload.ops]
    cycle_s = sum(per_query)
    return {
        "sim_ms_p50": statistics.median(per_query) * 1e3,
        "sim_ms_p95": _percentile(per_query, 95) * 1e3,
        "sim_rows_per_s": workload.cycle_rows / cycle_s,
        "sim_goodput_qps": len(per_query) / cycle_s,
    }


def run_batch(workloads, name: str, seed: int, size, seconds: float) -> Dict[str, object]:
    probe = SpeedProbe()
    probe.sample()
    workload, sims, setup_s, generate_s = _setup_batch(workloads, name, seed, size, probe)
    started = time.perf_counter()
    workload.compute_references()
    reference_s = time.perf_counter() - started

    host: Dict[str, List[float]] = {op.name: [] for op in workload.ops}
    tally = _new_tally()
    timed = 0.0
    cycles = 0
    with RssPeak(probe) as rss:
        # Whole cycles only, so every run times the same op mix; stop
        # before a cycle that would overrun the measurement time.
        while cycles < 2 or timed + timed / cycles <= seconds:
            probe.sample()
            timed += _batch_pass(workload, sims, tally, host, probe)
            cycles += 1
        probe.sample()

    factor = probe.factor
    samples = [t * factor for times in host.values() for t in times]
    p90 = _tail(samples, 90)
    raw_p50 = statistics.mean(statistics.median(t) for t in host.values())
    metrics = {
        "setup_s": setup_s * factor,
        # Median per op, averaged over the fixed op mix: every op counts
        # once, whatever its share of the cycle's time.
        "host_ms_p50": raw_p50 * factor * 1e3,
        "host_rows_per_s": tally["rows"] / (timed * factor),
        **_batch_sim_metrics(workload, sims),
        "host_rss_peak_mb": rss.peak_mb,
    }
    mismatched = sum(tally["mismatches"].values())
    return {
        "metrics": metrics,
        "attempted": tally["queries"],
        "failed": mismatched,
        "mismatches": dict(tally["mismatches"]),
        "sim_drift": dict(tally["sim_drift"]),
        "extra": {
            "host_ms_p90": None if p90 is None else p90 * 1e3,
            "host_samples": len(samples),
            "cycles": cycles,
            "ops_per_cycle": len(workload.ops),
            "timed_host_s": timed,
            "speed_factor": factor,
            "speed_samples": len(probe.samples),
            "raw_host_ms_p50": raw_p50 * 1e3,
            "raw_setup_s": setup_s,
            "setup.generate.host_s": generate_s,
            "setup.reference.host_s": reference_s,
            "sim_ms_by_op": {op: s * 1e3 for op, s in sims.items()},
            **rss.record(),
        },
        "provenance": workload.provenance,
    }


# -- serve-tier-rw --------------------------------------------------------------


def _setup_serve(workloads, seed: int, size, seconds: float, probe: SpeedProbe):
    """Generate the catalog and event stream and build the server, then
    warm every template once on a throwaway server.

    Returns the workload and server, the median setup seconds and the
    median build seconds.
    """
    def build():
        workload = workloads.ServeWorkload(seed, size, seconds)
        return workload, workload.make_server()

    (workload, server), _, setup_s, build_s = _median_setup(
        build, lambda built: built[0].warm(), size.setup_min_s, probe)
    return workload, server, setup_s, build_s


def _serve_pass(workloads, workload, server, on_outcome=None,
                probe: Optional[SpeedProbe] = None) -> Dict[str, object]:
    """Drive the event stream through *server*; time only the server calls."""
    from reference import exact_digest

    catalog = dict(workload.catalog)
    versions = {name: 0 for name in catalog}
    pending = {}
    mismatches: Counter = Counter()
    wrong = set()
    windows: List[List[float]] = []
    window = [0.0, 0]
    timed = 0.0
    checked = 0

    def check_outcomes() -> None:
        nonlocal checked
        outcomes = server.outcomes
        while checked < len(outcomes):
            outcome = outcomes[checked]
            checked += 1
            template, key, deps, _ = pending[outcome.query_id]
            if outcome.status == "completed":
                digest, numpy_note = workload.expected(key, template, deps)
                if numpy_note is not None:
                    mismatches[f"{template.name}: {numpy_note}"] += 1
                    wrong.add(outcome.query_id)
                elif exact_digest(workloads.columns_of(outcome.output)) != digest:
                    mismatches[f"{template.name}: served output differs from "
                               "plain execute()"] += 1
                    wrong.add(outcome.query_id)
            if on_outcome is not None:
                on_outcome(outcome)
            # Checked: drop the output so a long stream stays small.
            outcome.output = None
            outcome.result = None

    for index, event in enumerate(workload.events):
        template = None
        started = time.perf_counter()
        server.run(until_s=event.at_s)
        if event.relation is not None:
            server.update(event.name, event.relation)
        else:
            template = workload.templates[event.template]
            query_id = server.submit(
                template.build(catalog), at_s=event.at_s,
                deadline_s=workloads.SERVE_DEADLINE_S,
            )
        elapsed = time.perf_counter() - started
        timed += elapsed
        window[0] += elapsed
        if template is None:
            catalog[event.name] = event.relation
            versions[event.name] += 1
        else:
            window[1] += 1
            key = (event.template, tuple(versions[d] for d in template.deps))
            pending[query_id] = (template, key, {d: catalog[d] for d in template.deps},
                                 len(windows))
        if (index + 1) % workloads.SERVE_UPDATE_EVERY == 0:
            windows.append(window)
            window = [0.0, 0]
        check_outcomes()
        if probe is not None:
            probe.maybe()
    started = time.perf_counter()
    server.run()
    elapsed = time.perf_counter() - started
    timed += elapsed
    if window[1]:
        windows.append(window)
    windows[-1][0] += elapsed
    check_outcomes()
    return {
        "timed": timed,
        "windows": [t / n for t, n in windows if n],
        "queries": len(pending),
        "mismatches": mismatches,
        "wrong": wrong,
        "rows": {qid: workload.rows_of(t, deps) for qid, (t, _, deps, _) in pending.items()},
        "window_of": {qid: entry[3] for qid, entry in pending.items()},
    }


def _serve_sim_metrics(server, result) -> Dict[str, float]:
    done = [o for o in server.outcomes if o.status == "completed"]
    latencies = [o.latency_s for o in done]
    makespan = server.report().makespan_s
    on_time = [o for o in done if not o.deadline_missed]
    rows = sum(result["rows"][o.query_id] for o in done)
    by_window: Dict[int, List[float]] = {}
    for outcome in done:
        window = result["window_of"][outcome.query_id] // SIM_WINDOW_UPDATES
        by_window.setdefault(window, []).append(outcome.latency_s)
    return {
        # The per-query latency distribution is multi-modal (result-cache
        # hits, tier-hot and tier-cold operators at a few discrete solo
        # times), so its median jumps between modes from seed to seed.
        # The median over 100-event windows of the window's mean latency
        # is steady; the per-query median goes into the record.
        "sim_ms_p50": statistics.median(
            statistics.mean(v) for v in by_window.values()) * 1e3,
        "sim_ms_p95": _percentile(latencies, 95) * 1e3,
        "sim_rows_per_s": rows / makespan,
        "sim_goodput_qps": len(on_time) / makespan,
    }


def _serve_gate(server, result) -> Tuple[int, Counter, Counter]:
    """Failed queries of one pass: the count, the wrong outputs by reason
    and the queries the server did not complete by status.

    Rejected, cancelled and failed queries are failures of the service,
    not wrong output: they count in ``failed`` but leave the run correct.
    """
    not_done = Counter(o.status for o in server.outcomes if o.status != "completed")
    return sum(not_done.values()) + len(result["wrong"]), result["mismatches"], not_done


def run_serve(workloads, seed: int, size, seconds: float) -> Dict[str, object]:
    probe = SpeedProbe()
    probe.sample()
    workload, server, setup_s, generate_s = _setup_serve(workloads, seed, size, seconds, probe)
    workload.compute_references()
    with RssPeak(probe) as rss:
        probe.sample()
        result = _serve_pass(workloads, workload, server, probe=probe)
        probe.sample()
    factor = probe.factor
    done = [o for o in server.outcomes if o.status == "completed"]
    failed, mismatches, not_done = _serve_gate(server, result)
    rows = sum(result["rows"][o.query_id] for o in done)
    p90 = _tail(result["windows"], 90)
    raw_p50 = statistics.median(result["windows"])
    metrics = {
        "setup_s": setup_s * factor,
        # Median over 20-event windows (one update each) of the host
        # time per query in the window.
        "host_ms_p50": raw_p50 * factor * 1e3,
        "host_rows_per_s": rows / (result["timed"] * factor),
        **_serve_sim_metrics(server, result),
        "host_rss_peak_mb": rss.peak_mb,
    }
    return {
        "metrics": metrics,
        "attempted": result["queries"],
        "failed": failed,
        "mismatches": dict(mismatches),
        "not_completed": dict(not_done),
        "sim_drift": {},
        "extra": {
            "host_ms_p90": None if p90 is None else p90 * factor * 1e3,
            "host_samples": len(result["windows"]),
            "timed_host_s": result["timed"],
            "speed_factor": factor,
            "speed_samples": len(probe.samples),
            "raw_host_ms_p50": raw_p50 * 1e3,
            "raw_setup_s": setup_s,
            "deadline_missed": sum(o.deadline_missed for o in done),
            "sim_ms_p50_per_query": _percentile([o.latency_s for o in done], 50) * 1e3,
            "setup.generate.host_s": generate_s,
            "setup.reference.host_s": workload.reference_seconds,
            **rss.record(),
        },
        "provenance": workload.provenance,
    }


# -- the traced run -------------------------------------------------------------


def _speed_adjusted(run_pass):
    """Run one pass under its own speed probe; returns (result, factor)."""
    probe = SpeedProbe()
    probe.sample()
    result = run_pass(probe)
    probe.sample()
    return result, probe.factor


def _phase_counters(phases: Dict[str, float], queries: int) -> Dict[str, float]:
    return {
        f"joins.sim_ms.{phase}": phases.get(phase, 0.0) * 1e3 / max(queries, 1)
        for phase in ("transform", "match", "materialize")
    }


def _zero_serve_tier() -> Dict[str, float]:
    import layers

    names = layers.LAYER_MAP["serve"]["metrics"] + layers.LAYER_MAP["tier"]["metrics"]
    return {name: 0.0 for name in names if not name.endswith("host_ms")}


def trace_batch(workloads, name: str, seed: int, size) -> Dict[str, object]:
    from repro.obs import TraceSession

    import layers

    started = time.perf_counter()
    workload = workloads.BATCH_BUILDERS[name](seed, size)
    generate_s = time.perf_counter() - started
    sims = {op.name: op.run()[1] for op in workload.ops}
    started = time.perf_counter()
    workload.compute_references()
    reference_s = time.perf_counter() - started

    host = {op.name: [] for op in workload.ops}
    tally = _new_tally()

    def untraced_pass() -> float:
        timed, speed = _speed_adjusted(
            lambda probe: _batch_pass(workload, sims, tally, host, probe))
        return timed * speed

    before = untraced_pass()
    tracer = layers.Tracer().install()
    session = TraceSession("perfbench")
    try:
        with session:
            traced, traced_speed = _speed_adjusted(
                lambda probe: _batch_pass(workload, sims, tally, host, probe))
    finally:
        tracer.uninstall()
    untraced = (before + untraced_pass()) / 2
    queries = len(workload.ops)
    counters = {
        "faults.retries": session.metrics.value("fault_kernel_retries"),
        "faults.degraded_ops": session.metrics.value("degraded_operators"),
        "obs.trace_overhead_frac": traced * traced_speed / untraced - 1.0,
        "setup.generate.host_s": generate_s,
        "setup.reference.host_s": reference_s,
        **_phase_counters(session.phase_seconds(), queries),
        **_zero_serve_tier(),
    }
    return {
        "metrics": layers.per_layer(tracer, queries, counters),
        "attempted": tally["queries"],
        "failed": sum(tally["mismatches"].values()),
        "mismatches": dict(tally["mismatches"]),
        "sim_drift": dict(tally["sim_drift"]),
        "extra": {"untraced_host_s": untraced, "traced_host_s": traced * traced_speed,
                  "spans": len(tracer.spans)},
        "provenance": workload.provenance,
    }


def trace_serve(workloads, seed: int, size, seconds: float) -> Dict[str, object]:
    import layers

    started = time.perf_counter()
    workload = workloads.ServeWorkload(seed, size, seconds)
    generate_s = time.perf_counter() - started
    workload.warm()
    workload.compute_references()
    # Every pass's outputs go through the gate, not only the traced one's.
    gate = {"attempted": 0, "failed": 0, "mismatches": Counter(), "not_completed": Counter()}

    def checked_pass(server, run_pass):
        result, speed = _speed_adjusted(run_pass)
        failed, mismatches, not_done = _serve_gate(server, result)
        gate["attempted"] += result["queries"]
        gate["failed"] += failed
        gate["mismatches"].update(mismatches)
        gate["not_completed"].update(not_done)
        return result, speed

    def untraced_pass() -> float:
        server = workload.make_server()
        result, speed = checked_pass(
            server, lambda probe: _serve_pass(workloads, workload, server, probe=probe))
        return result["timed"] * speed

    before = untraced_pass()

    phases: Dict[str, float] = {}
    waits: List[float] = []

    def on_outcome(outcome) -> None:
        if outcome.status == "completed":
            waits.append(outcome.queue_wait_s)
        session = getattr(outcome.result, "session", None)
        if session is not None:
            for phase, seconds_ in session.phase_seconds().items():
                phases[phase] = phases.get(phase, 0.0) + seconds_

    server = workload.make_server()
    tracer = layers.Tracer().install()
    try:
        traced, traced_speed = checked_pass(
            server,
            lambda probe: _serve_pass(workloads, workload, server, on_outcome, probe))
    finally:
        tracer.uninstall()
    untraced = (before + untraced_pass()) / 2
    queries = traced["queries"]
    statuses = Counter(o.status for o in server.outcomes)
    plan_hits = server.metrics.value("serve.plan_cache_hits")
    plan_misses = server.metrics.value("serve.plan_cache_misses")
    result_hits = server.metrics.value("serve.result_cache_hits")
    result_misses = server.metrics.value("serve.result_cache_misses")
    tier = server.tiering.stats()
    counters = {
        "faults.retries": 0.0,
        "faults.degraded_ops": 0.0,
        # Mean, not median: at the offered rate most queries are admitted
        # at once, so the median wait is 0 on every run.
        "serve.queue_wait_sim_ms_mean": statistics.mean(waits) * 1e3 if waits else 0.0,
        "serve.plan_cache.hit_ratio": plan_hits / max(plan_hits + plan_misses, 1.0),
        "serve.result_cache.hit_ratio": result_hits / max(result_hits + result_misses, 1.0),
        "serve.invalidated_entries": server.metrics.value("serve.invalidated_entries"),
        "serve.rejected": float(statuses["rejected"]),
        "serve.cancelled": float(statuses["cancelled"]),
        "serve.deadline_missed": float(sum(o.deadline_missed for o in server.outcomes)),
        "serve.brownout_transitions": server.metrics.value("serve.brownout_transitions"),
        "tier.hit_ratio": tier["hit_ratio"],
        "tier.admissions": tier["admissions"],
        "tier.evictions": tier["evictions"],
        "tier.demotions": tier["demotions"],
        "tier.invalidated_bytes": server.metrics.value("serve.tier_invalidated_bytes"),
        "obs.trace_overhead_frac": traced["timed"] * traced_speed / untraced - 1.0,
        "setup.generate.host_s": generate_s,
        "setup.reference.host_s": workload.reference_seconds,
        **_phase_counters(phases, queries),
    }
    return {
        "metrics": layers.per_layer(tracer, queries, counters),
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "mismatches": dict(gate["mismatches"]),
        "not_completed": dict(gate["not_completed"]),
        "sim_drift": {},
        "extra": {"untraced_host_s": untraced,
                  "traced_host_s": traced["timed"] * traced_speed,
                  "spans": len(tracer.spans)},
        "provenance": workload.provenance,
    }


# -- entry point ------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> Dict[str, object]:
    """Run one workload and return the full record."""
    import workloads

    workloads.quiet_warnings()
    size = workloads.SIZES[size_name]
    if trace:
        if name == "serve-tier-rw":
            outcome = trace_serve(workloads, seed, size, seconds)
        else:
            outcome = trace_batch(workloads, name, seed, size)
    elif name == "serve-tier-rw":
        outcome = run_serve(workloads, seed, size, seconds)
    else:
        outcome = run_batch(workloads, name, seed, size, seconds)
    outcome["provenance"] = {
        **provenance(name, seed, size_name, seconds), **outcome["provenance"],
        "timed_queries": outcome["attempted"],
    }
    outcome.setdefault("not_completed", {})
    outcome["failed_frac"] = outcome["failed"] / outcome["attempted"]
    # Only wrong output makes a run incorrect; shed and cancelled queries
    # are counted in failed_frac.
    outcome["correct"] = not outcome["mismatches"] and not outcome["sim_drift"]
    return outcome


def _units(metrics: Dict[str, float], trace: bool) -> Dict[str, str]:
    if trace:
        import layers

        return {name: layers.unit_of(name) for name in metrics}
    return {name: END_TO_END_UNITS[name] for name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' shrinks every input for the self-test")
    args = parser.parse_args(argv)
    _import_library()

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    metrics = outcome["metrics"]
    units = _units(metrics, bool(args.trace))
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    extra = outcome["extra"]
    if "host_ms_p90" in extra:
        p90 = extra["host_ms_p90"]
        print(f"{'host_ms_p90':40s} "
              f"{'n/a' if p90 is None else format(p90, '.6g')} ms "
              f"({extra['host_samples']} samples; needs "
              f"{TAIL_SAMPLES_BEYOND} beyond the percentile)")
    print(f"{'failed_frac':40s} {outcome['failed_frac']:.6g} fraction "
          f"({outcome['failed']} of {outcome['attempted']})")
    for status, count in sorted(outcome["not_completed"].items()):
        print(f"NOT-COMPLETED server: {status} x{count}")
    for what, count in sorted(outcome["mismatches"].items()):
        print(f"MISMATCH {what} x{count}")
    for op, count in sorted(outcome["sim_drift"].items()):
        print(f"SIM-DRIFT {op}: simulated seconds changed between runs x{count}")
    print(json.dumps({"record": {
        key: outcome[key] for key in
        ("provenance", "metrics", "extra", "attempted", "failed", "failed_frac",
         "mismatches", "not_completed", "sim_drift")
    }, "units": units}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
