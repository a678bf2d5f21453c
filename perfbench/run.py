"""The repository benchmark: chase-deep, chase-wide and service-mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload chase-deep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with every probe off;
``--trace 1`` is the separate traced run that splits each workload's time
across the layers (see ``perfbench/README.md`` for every metric).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check, a leaked child process
or shared-memory segment, or a ledger that does not reconcile makes
``correct`` false and the exit status 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("chase-deep", "chase-wide", "service-mix")

#: Fresh-process set-ups measured per chase run for ``setup_s``.
SETUP_SAMPLES = 5

#: Every process of a run uses this string-hash seed.  With a random one per
#: process, the chase-wide median of a whole run moves by up to 30 % between
#: processes on the same input; with it fixed, runs differ only by --seed.
HASH_SEED = "0"


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, SRC)


def _setup_probe(workload, seed):
    """Child mode: set the workload up, say so, tear it down."""
    import chase_workloads

    work = chase_workloads.WORKLOADS[workload](seed)
    print("ready", flush=True)
    work.close()


def _chase_setup_seconds(workload, seed):
    """Median seconds from process start to a ready engine, over fresh processes."""
    from probes import CLOCK, median, stolen_s

    samples = []
    for _ in range(SETUP_SAMPLES):
        stolen = stolen_s()
        started = CLOCK()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = child.stdout.readline()
        samples.append(CLOCK() - started - (stolen_s() - stolen))
        child.communicate(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"{workload} set-up failed in a child process")
    return median(samples)


def main():
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Takes effect only at interpreter start: restart this same process
        # (same pid, nothing left running) with the fixed seed.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    _import_library()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import layers
    from probes import Tally, leak_audit, shm_segments

    shm_before = shm_segments()
    tally = Tally()
    ledger_problems = []
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        # Each workload imports only its own module, so the benchmark process
        # of a chase workload holds no service client code in its peak RSS.
        if args.workload == "service-mix":
            import service_mix

            if args.trace:
                per_layer = service_mix.measure_traced(
                    ROOT, workdir, args.seed, args.seconds, tally, ledger_problems
                )
            else:
                metrics = service_mix.measure(ROOT, args.seed, args.seconds, tally)
        else:
            import chase_workloads

            factory = chase_workloads.WORKLOADS[args.workload]
            if args.trace:
                per_layer = chase_workloads.measure_traced(
                    factory, args.seed, args.seconds, tally, ledger_problems
                )
            else:
                setup_s = _chase_setup_seconds(args.workload, args.seed)
                work = factory(args.seed)
                try:
                    metrics = chase_workloads.measure(work, args.seconds, tally)
                finally:
                    work.close()
                metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layers.complete(per_layer)
    problems = leak_audit(shm_before) + ledger_problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
