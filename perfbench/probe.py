"""Child process of the benchmark: set-up probes and the fixture build.

    python3 perfbench/probe.py setup WORKLOAD   # print "ready" once set up
    python3 perfbench/probe.py fixture DIR      # cold suite into DIR

The first line of output is always ``ready``.
"""

import sys

import harness


def main(argv) -> None:
    harness.prepare_process()
    import inproc

    mode, arg = argv
    if mode == "setup":
        inproc.setup_probe(arg)
    elif mode == "fixture":
        inproc.build_fixture(arg)
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
