"""The serve-mix workload: ``repro serve`` over ``repro cachesvc serve``.

Two client threads run a closed loop (each sends its next request when
the previous one has finished) over one seeded request stream.  The
daemons run with their defaults on ephemeral ports over a fresh cache
root; every exit path kills both process groups, worker children
included, and waits until they are gone.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness

CLIENTS = 2
#: Requests per stream and the Zipf exponent of key popularity; every
#: key is touched, so first touches are 135 / 450 = 30% of requests.
STREAM_LENGTH = 450
ZIPF_S = 1.1
#: Streams per run are ``max(1, round(seconds / NOMINAL_STREAM_S))``.
NOMINAL_STREAM_S = 30.0
START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0

#: Live daemons of this checkout, so a later run can refuse to start
#: while an earlier one's daemons still answer.
PIDFILE = harness.WORK / "daemons.json"


def stream_keys() -> List[Tuple[str, str]]:
    from repro.synth.registry import BENCHMARK_ORDER

    names = [n for n in BENCHMARK_ORDER if n not in harness.SERVE_EXCLUDED]
    return harness.suite_cells(names)


def make_stream(keys: List[Tuple[str, str]], seed: int,
                length: int) -> List[Tuple[str, str]]:
    """A seeded Zipf-like request stream touching every key.

    Popularity ranks are a seeded permutation of *keys*.  First touches
    sit at evenly spaced slots, so exactly ``len(keys)`` of them spread
    over the stream; a first touch picks an untouched key and a repeat a
    touched one, both by Zipf weight.  The cold work, and how it
    interleaves with warm hits, is therefore the same for every seed.
    """
    rng = random.Random(f"{seed}:serve-mix")
    ranked = list(keys)
    rng.shuffle(ranked)
    weight = {key: 1.0 / (rank + 1) ** ZIPF_S for rank, key in enumerate(ranked)}
    first = {round(i * length / len(keys)) for i in range(len(keys))}
    untouched = list(ranked)
    touched: List[Tuple[str, str]] = []
    stream = []
    for slot in range(length):
        if slot in first:
            key = rng.choices(untouched, [weight[k] for k in untouched])[0]
            untouched.remove(key)
            touched.append(key)
        else:
            key = rng.choices(touched, [weight[k] for k in touched])[0]
        stream.append(key)
    return stream


# -- daemons ------------------------------------------------------------------


def _http(url: str, method: str, path: str, body=None,
          timeout: float = JOB_TIMEOUT) -> Tuple[int, bytes]:
    """One request on a fresh connection (both daemons speak HTTP/1.0)."""
    host, port = url.split("//", 1)[1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _ok(url: str, method: str, path: str, body=None) -> bytes:
    status, data = _http(url, method, path, body)
    if status >= 400:
        raise RuntimeError(f"{method} {path}: HTTP {status} {data!r}")
    return data


def answers(url: str) -> bool:
    try:
        return _http(url, "GET", "/healthz", timeout=1.0)[0] == 200
    except OSError:
        return False


def group_alive(pgid: int) -> bool:
    """Whether any process of group *pgid* is still running."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


class Daemon:
    """One daemon in its own process group (its workers included)."""

    def __init__(self, name: str, argv: List[str], log) -> None:
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=harness.ROOT,
            env=harness.child_env(),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            start_new_session=True,
        )
        self.url: Optional[str] = None

    def read_url(self, deadline: float) -> str:
        """The URL from the daemon's ``listening on`` banner line."""
        while self.url is None:
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} did not start in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"{self.name} exited before listening")
            if "listening on " in line:
                self.url = line.rsplit("listening on ", 1)[1].strip()
        return self.url

    def proc_stat(self) -> Tuple[float, float]:
        """(peak RSS MiB, CPU seconds incl. reaped workers) of the daemon."""
        pid = self.proc.pid
        with open(f"/proc/{pid}/status") as handle:
            hwm = next(
                int(line.split()[1]) for line in handle
                if line.startswith("VmHWM:")
            )
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = sum(int(v) for v in fields[11:15])  # utime stime cutime cstime
        return hwm / 1024.0, ticks / os.sysconf("SC_CLK_TCK")

    def kill(self) -> None:
        """Terminate the whole group, escalate after 5 s, wait for all."""
        pgid = self.proc.pid
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                if self.proc.poll() is not None and not group_alive(pgid):
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if group_alive(pgid):
            raise RuntimeError(f"{self.name} group {pgid} survived SIGKILL")


class Daemons:
    """Both daemons over one fresh root; a context manager that always
    tears them down."""

    def __init__(self) -> None:
        self.root = harness.fresh_dir("serve-root")
        self.log = open(self.root / "daemons.log", "w")
        self.started: List[Daemon] = []
        self.cachesvc: Optional[Daemon] = None
        self.serve: Optional[Daemon] = None

    def __enter__(self) -> "Daemons":
        try:
            deadline = time.monotonic() + START_TIMEOUT
            self.cachesvc = self._start("cachesvc", [
                "cachesvc", "serve", "--port", "0",
                "--cache-dir", str(self.root / "cache"),
            ])
            cache_url = self.cachesvc.read_url(deadline)
            self.serve = self._start("serve", [
                "serve", "--port", "0", "--cache-url", cache_url,
            ])
            serve_url = self.serve.read_url(deadline)
            for url in (cache_url, serve_url):
                while not answers(url):
                    if time.monotonic() > deadline:
                        raise RuntimeError(f"{url} never answered /healthz")
                    time.sleep(0.005)
        except BaseException as error:
            self.log.flush()
            log = (self.root / "daemons.log").read_text()[-2000:]
            self.__exit__(None, None, None)
            raise RuntimeError(f"daemon start failed: {error}\n{log}") from error
        return self

    def _start(self, name: str, argv: List[str]) -> Daemon:
        daemon = Daemon(name, argv, self.log)
        self.started.append(daemon)
        _record_pids(self.started)
        return daemon

    def stats(self, daemon: Daemon) -> dict:
        return json.loads(_ok(daemon.url, "GET", "/stats"))

    def __exit__(self, *exc) -> None:
        errors = []
        for daemon in reversed(self.started):
            try:
                daemon.kill()
            except Exception as error:  # noqa: BLE001 — kill the rest too
                errors.append(error)
        self.started.clear()
        _record_pids(self.started)
        self.log.close()
        harness.remove_tree(self.root)
        if errors:
            raise errors[0]


def _record_pids(daemons: List[Daemon]) -> None:
    PIDFILE.parent.mkdir(parents=True, exist_ok=True)
    PIDFILE.write_text(json.dumps([
        {"pgid": d.proc.pid, "url": d.url} for d in daemons
    ]))


def refuse_leftovers() -> None:
    """Refuse to start while daemons an earlier run recorded still run
    or answer: a warm leftover would serve the stream from memory."""
    try:
        recorded = json.loads(PIDFILE.read_text())
    except (OSError, ValueError):
        return
    live = [
        entry for entry in recorded
        if group_alive(entry["pgid"])
        or (entry.get("url") and answers(entry["url"]))
    ]
    if live:
        raise RuntimeError(f"daemons of an earlier run still live: {live}")


# -- client ---------------------------------------------------------------------


def run_job(url: str, key: Tuple[str, str]) -> dict:
    """POST one job, follow its event stream to the end, fetch it."""
    bench, label = key
    body = {"source": bench}
    if label.startswith("wmax"):
        body["wmax"] = int(label[4:])
    else:
        body["config"] = label
    job_id = json.loads(_ok(url, "POST", "/jobs", body))["id"]
    events = _ok(url, "GET", f"/jobs/{job_id}/events?timeout={JOB_TIMEOUT:.0f}")
    job = json.loads(_ok(url, "GET", f"/jobs/{job_id}"))
    job["dispatched"] = any(
        json.loads(line).get("kind") == "dispatch"
        for line in events.splitlines() if line.strip()
    )
    return job


class Outcome:
    __slots__ = ("key", "latency", "job", "error")

    def __init__(self, key, latency, job=None, error=None):
        self.key = key
        self.latency = latency
        self.job = job
        self.error = error


def drive(url: str, stream: List[Tuple[str, str]]) -> Tuple[float, List[Outcome]]:
    """Run *stream* through :data:`CLIENTS` closed-loop clients."""
    outcomes: List[Optional[Outcome]] = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            key = stream[index]
            t0 = time.perf_counter()
            try:
                job = run_job(url, key)
                outcomes[index] = Outcome(key, time.perf_counter() - t0, job)
            except Exception as error:  # noqa: BLE001 — counted as failed
                outcomes[index] = Outcome(
                    key, time.perf_counter() - t0, error=repr(error)
                )

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, outcomes


def job_signature(result: dict) -> list:
    stats = result["stats"]
    return harness.signature(result["instructions"], result["rrams"],
                             stats["stdev"], stats["max_writes"])


def run(seed: int, seconds: float, trace: bool,
        reference: "harness.ReferenceTable") -> dict:
    refuse_leftovers()
    keys = stream_keys()
    passes = max(1, round(seconds / NOMINAL_STREAM_S))
    stream = make_stream(keys, seed, STREAM_LENGTH * passes)

    setup_samples = []
    for _ in range(harness.SETUP_REPEATS - 1):
        start = time.perf_counter()
        with Daemons():
            setup_samples.append(time.perf_counter() - start)
    start = time.perf_counter()
    with Daemons() as daemons:
        setup_samples.append(time.perf_counter() - start)
        serve, cachesvc = daemons.serve, daemons.cachesvc
        fresh_serve = daemons.stats(serve)
        fresh_cache = daemons.stats(cachesvc)
        _, cpu0_serve = serve.proc_stat()
        _, cpu0_cache = cachesvc.proc_stat()
        seconds_run, outcomes = drive(serve.url, stream)
        rss_serve, cpu_serve = serve.proc_stat()
        rss_cache, cpu_cache = cachesvc.proc_stat()
        serve_stats = daemons.stats(serve)
        cache_stats = daemons.stats(cachesvc)

    checks = []
    if fresh_serve["jobs"]["total"]:
        checks.append(f"serve was not fresh: {fresh_serve['jobs']}")
    if fresh_cache["entries"] or fresh_cache["root"] != str(
            daemons.root / "cache"):
        checks.append("cachesvc was not fresh over this run's root")

    failures = []
    sigs: Dict[str, list] = {}
    latencies = []
    for outcome in outcomes:
        latencies.append(outcome.latency)
        key = "/".join(outcome.key)
        if outcome.error is not None:
            failures.append(f"{key}: {outcome.error}")
            continue
        job = outcome.job
        if job["status"] != "done":
            failures.append(f"{key}: job {job['id']} is {job['status']}: "
                            f"{job.get('error')}")
            continue
        result = job["result"]
        if result["verified_patterns"] < 64:
            failures.append(f"{key}: verified at "
                            f"{result['verified_patterns']} patterns")
        sig = job_signature(result)
        known = sigs.setdefault(key, sig)
        if known != sig:
            failures.append(f"{key}: repeat gave {sig}, not {known}")
        problem = reference.check(key, sig)
        if problem:
            failures.append(problem)

    distinct = len(set(stream))
    dispatches = serve_stats["cache"]["workers"]["workers"]
    if dispatches != distinct:
        checks.append(f"serve dispatched {dispatches} cold jobs for "
                      f"{distinct} distinct keys")
    if cache_stats["duplicate_puts"]:
        checks.append(f"cachesvc saw {cache_stats['duplicate_puts']} "
                      "duplicate compiles")

    metrics = {
        "cells_per_s": len(stream) / seconds_run,
        "setup_s": harness.median(setup_samples),
        "peak_rss_mb": rss_serve + rss_cache,
    }
    lat, notes = harness.latency_metrics([latencies])
    metrics.update(lat)
    if len(sigs) == distinct:
        metrics.update(harness.count_metrics(sigs))
    else:
        checks.append(f"{distinct - len(sigs)} keys produced no result")
    notes = [
        f"stream of {len(stream)} requests, {distinct} distinct keys, "
        f"seed {seed}, {CLIENTS} closed-loop clients, {seconds_run:.3f} s",
        "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup_samples),
    ] + notes

    layer = {}
    if trace:
        layer, table = _serve_layers(outcomes, serve_stats, cache_stats)
        cpu = (cpu_serve - cpu0_serve) + (cpu_cache - cpu0_cache)
        layer.update({
            "proc.cpu_s": cpu,
            "proc.cpu_util": cpu / seconds_run,
            # Nothing is wrapped: the layer figures come from the job
            # records and /stats bodies every run reads anyway.
            "trace.overhead": 0.0,
        })
        notes.extend(table)
    return {
        "attempted": len(stream),
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "metrics": metrics,
        "layer": layer,
        "notes": notes,
    }


def _serve_layers(outcomes, serve_stats, cache_stats):
    """serve.* and cachesvc.* metrics from job timestamps and /stats."""
    waits, services, cold, http = [], [], [], []
    for outcome in outcomes:
        job = outcome.job
        if job is None or job["status"] != "done":
            continue
        waits.append(job["started_at"] - job["submitted_at"])
        service = job["finished_at"] - job["started_at"]
        services.append(service)
        if job["dispatched"]:
            cold.append(service)
        http.append(outcome.latency - (job["finished_at"] - job["submitted_at"]))

    def mean_ms(values):
        return sum(values) / len(values) * 1e3 if values else 0.0

    tiers = cache_stats["tiers"]
    layer = {
        "serve.queue_wait_ms": mean_ms(waits),
        "serve.service_ms": mean_ms(services),
        "serve.cold_service_ms": mean_ms(cold),
        "serve.http_ms": mean_ms(http),
        "serve.coalesced": float(serve_stats["jobs"].get("coalesced", 0)),
        "serve.dispatches": float(serve_stats["cache"]["workers"]["workers"]),
        "cachesvc.memory_hits": float(tiers["memory_hits"]),
        "cachesvc.disk_hits": float(tiers["disk_hits"]),
        "cachesvc.misses": float(cache_stats["misses"]),
        "cachesvc.flight_waits": float(cache_stats["flight_waits"]),
        "cachesvc.duplicate_puts": float(cache_stats["duplicate_puts"]),
        "cachesvc.verify_rejects": float(cache_stats["verify_rejects"]),
    }
    n = len(services)
    table = [
        f"layer table: {n} jobs (means per job; serve = time inside "
        "repro serve, http = client round trip minus server time)",
        f"  {'layer':<24}{'total_s':>10}{'mean_ms':>10}",
        f"  {'serve.queue_wait':<24}{sum(waits):>10.3f}{mean_ms(waits):>10.2f}",
        f"  {'serve.service':<24}{sum(services):>10.3f}"
        f"{mean_ms(services):>10.2f}",
        f"  {'serve.cold_service':<24}{sum(cold):>10.3f}{mean_ms(cold):>10.2f}",
        f"  {'http':<24}{sum(http):>10.3f}{mean_ms(http):>10.2f}",
    ]
    return layer, table
