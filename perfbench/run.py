"""Repository benchmark: default-config Gram products, serving over TCP
one request at a time, and out-of-core farm streaming.

    python3 perfbench/run.py --workload gram_dense --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``gram_dense``, ``serve_lone``, ``ooc_stream`` (see
``workloads.py`` for what each isolates).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, and reports the
per-layer metrics, the host floors and the tracing overhead.  Every
result is checked against numpy.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it repeat the metrics for a reader, with
``error_rate`` and the host record.  ``--quick`` shrinks every shape
and sets up once (the self-tests use it).

The library is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 before measuring anything.
"""

import argparse
import os
import shutil
import sys

import hermetic

WORKLOAD_NAMES = ("gram_dense", "serve_lone", "ooc_stream")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small shapes and a single set-up")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(hermetic.SRC, "repro")):
        print(f"perfbench: the library sources ({hermetic.SRC}/repro) are "
              "missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workdir = os.path.join(hermetic.ROOT, ".perfbench_work",
                           f"run-{os.getpid()}")
    hermetic.apply(workdir)
    try:
        import harness
        return harness.run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
