"""Benchmark of the PLiM endurance-management reproduction.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``suite-cold``     — Tables I+III, 18 benchmarks x 9 configurations,
  one ``run_matrix`` call per cell over a fresh disk-cache root
* ``compile-verify`` — 18 benchmarks x 6 rewrite-free configurations,
  each verified at 8192 patterns
* ``suite-warm``     — the suite-cold matrix over a fixture root that
  already holds every artefact
* ``serve-mix``      — a seeded Zipf-like stream through ``repro serve``
  over ``repro cachesvc serve``, two closed-loop clients; run by hand
  only, too noisy on a 2-CPU host for BENCHMARK.json (see README.md)

The report lists every metric by name and unit; the last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import harness
from layers import SCRIPT_PASSES

WORKLOADS = ("suite-cold", "compile-verify", "suite-warm", "serve-mix")

END_TO_END = {
    "cells_per_s": "cells/s",
    "cell_p50_ms": "ms",
    "cell_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rm3_instructions": "count",
    "rram_devices": "count",
    "write_stdev_gmean": "writes",
    "max_writes_gmean": "writes",
}

PROCESS_LAYER = {
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead": "ratio",
}

#: Per-layer metrics of the in-process workloads (BENCHMARK.json).
PER_LAYER = {
    "synth.build_s": "s",
    "synth.builds": "count",
    "opt.rewrite_s": "s",
    "opt.rewrites": "count",
    "opt.gates_in": "count",
    "opt.gates_out": "count",
    "opt.pass_calls": "count",
    "mig.rebuilds": "count",
    **{f"opt.pass.{p}_s": "s" for p in SCRIPT_PASSES},
    "plim.compile_s": "s",
    "plim.compiles": "count",
    "plim.gates_compiled": "count",
    "plim.us_per_gate": "us",
    "verify.verify_s": "s",
    "verify.calls": "count",
    "verify.patterns": "count",
    "verify.sim_s": "s",
    "verify.exec_s": "s",
    "verify.exhaustive_share": "ratio",
    "runner.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "diskcache.load_s": "s",
    "diskcache.loads": "count",
    "diskcache.store_s": "s",
    "diskcache.stores": "count",
    "diskcache.bytes_written": "bytes",
    "diskcache.hit_ratio": "ratio",
    "host.speed": "ratio",
    **PROCESS_LAYER,
}

#: Per-layer metrics of serve-mix, read from job records and /stats.
SERVE_LAYER = {
    "serve.queue_wait_ms": "ms",
    "serve.service_ms": "ms",
    "serve.cold_service_ms": "ms",
    "serve.http_ms": "ms",
    "serve.coalesced": "count",
    "serve.dispatches": "count",
    "cachesvc.memory_hits": "count",
    "cachesvc.disk_hits": "count",
    "cachesvc.misses": "count",
    "cachesvc.flight_waits": "count",
    "cachesvc.duplicate_puts": "count",
    "cachesvc.verify_rejects": "count",
    **PROCESS_LAYER,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _exit_on_signal(signum, frame):
    # A normal exit runs every cleanup: daemons, probes, fresh roots.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _exit_on_signal)
    harness.prepare_process()
    from repro.analysis.diskcache import code_fingerprint

    reference = harness.ReferenceTable(code_fingerprint())
    if args.workload == "serve-mix":
        import servemix

        record = servemix.run(args.seed, args.seconds, bool(args.trace),
                              reference)
    else:
        import inproc

        record = inproc.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), reference)
    reference.save()

    layers = SERVE_LAYER if args.workload == "serve-mix" else PER_LAYER
    wanted = layers if args.trace else END_TO_END
    values = record["layer"] if args.trace else record["metrics"]
    missing = sorted(set(END_TO_END) - set(record["metrics"]))
    correct = not record["failed"] and not record["checks"] and not missing

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for note in record["notes"]:
        print(f"  {note}")
    print("end-to-end metrics:")
    for name, unit in END_TO_END.items():
        value = record["metrics"].get(name, 0.0)
        print(f"  {name:<28}{value:>16.6g}  {unit}")
    if args.trace:
        print("per-layer metrics:")
        for name, unit in layers.items():
            print(f"  {name:<28}{values.get(name, 0.0):>16.6g}  {unit}")
    for problem in record["checks"]:
        print(f"CHECK FAILED: {problem}")
    for problem in record["failures"][:20]:
        print(f"FAILED CELL: {problem}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {correct}")

    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    if missing and not args.trace:
        result["metrics"] = {
            name: entry for name, entry in result["metrics"].items()
            if name not in missing
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
