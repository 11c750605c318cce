"""Benchmark of torusmf: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload scan_rod --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run sets up the program several times (fresh import, kernel construction,
a first small call), then repeats whole rounds of the workload's timed call
while the next round is likely to end within ``--seconds``, then checks
every round's outputs against references computed apart from the program.
Times are scaled to a reference host speed sampled during the run (see
``pace.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
rounds, so that it also reports the tracing overhead, and writes its spans
to ``perfbench/out/``.
"""

import os

# single-threaded numerics: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

# numpy and scipy load before the program, so set-up times torusmf alone
import numpy  # noqa: F401
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401

import checks
from pace import Pacer
from tracer import Tracer, layer_metrics, layer_unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 11
SETUP_SAMPLES = 4  # host-speed samples before each set-up and after the last


def fresh_import(submodules: tuple[str, ...]):
    """Import torusmf from this checkout's ``src/`` as if for the first time."""
    for name in [n for n in sys.modules
                 if n == "torusmf" or n.startswith("torusmf.")]:
        del sys.modules[name]
    tm = importlib.import_module("torusmf")
    for sub in submodules:
        importlib.import_module(f"torusmf.{sub}")
    if Path(tm.__file__).resolve().parent != SRC / "torusmf":
        raise ImportError(f"torusmf imported from {tm.__file__}, not {SRC}")
    return tm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced_run = bool(args.trace)
    if not (SRC / "torusmf" / "__init__.py").is_file():
        print(f"no torusmf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed)
    pacer = Pacer()
    tracer = Tracer(pacer)

    # set-up: a traced run records the kernel-construction spans here;
    # host-speed samples go between the set-ups, none inside one
    setup_raw = []
    tracer.tracing = traced_run
    for i in range(SETUP_REPEATS):
        pacer.sample(SETUP_SAMPLES)
        tracer.round = f"setup{i}"
        t0 = perf_counter()
        tm = fresh_import(workload.modules)
        if traced_run:
            tracer.install()
        prepared = workload.prepare(tm)
        setup_raw.append(perf_counter() - t0)
    pacer.sample(SETUP_SAMPLES)
    tracer.tracing = False
    setup_speed = pacer.speed()[0]
    pacer.install(workload.paced)

    walls = {False: [], True: []}  # raw round wall times, by tracing
    solves = {False: [], True: []}  # scaled to the reference speed
    cpus = []  # scaled, untraced rounds
    speeds = {f"setup{i}": setup_speed for i in range(SETUP_REPEATS)}
    outcomes, fault_notes = [], []
    attempted = failed = 0
    traced_rounds = []
    start = perf_counter()
    i = 0
    while True:
        # a traced run alternates: even rounds untraced, odd rounds traced
        tracing = traced_run and i % 2 == 1
        tracer.round = f"round{i}"
        attempted += workload.ops_per_round
        pacer.reset()
        tracer.tracing = tracing
        w0, c0 = perf_counter(), process_time()
        try:
            pacer.sample()
            result = workload.call(tm, prepared)
        except Exception:
            tracer.tracing = False
            failed += workload.ops_per_round
            traceback.print_exc()
        else:
            wall, cpu = perf_counter() - w0, process_time() - c0
            tracer.tracing = False
            walls[tracing].append(wall)
            solve, cpu = pacer.scale(wall, cpu)
            solves[tracing].append(solve)
            if tracing:
                traced_rounds.append(tracer.round)
                speeds[tracer.round] = pacer.speed()[0]
            else:
                cpus.append(cpu)
            notes = workload.failed_ops(result)
            failed += len(notes)
            fault_notes += notes
            outcomes.append(workload.outcome(result))
        i += 1
        # stop before a round that would likely end past --seconds
        now = perf_counter()
        if (now - start + (now - w0) > args.seconds
                and (i % 2 == 0 or not traced_run)):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = bool(outcomes)
    if outcomes:
        workload.complete(tm, prepared, outcomes)
    for k, o in enumerate(outcomes):
        for name, ok, detail in checks.self_test(workload.checks, o):
            correct &= ok
            if k == 0 or not ok:
                print(f"{'PASS' if ok else 'FAIL'} {workload.name} round {k} "
                      f"{name}: {detail}")
    for note in sorted(set(fault_notes)):
        print(f"FAILED OPERATION {workload.name}: {note}")

    if traced_run:
        if not traced_rounds:
            print("no traced round completed", file=sys.stderr)
            return 1
        tracer.write(HERE / "out" /
                    f"{workload.name}-seed{args.seed}-spans.json")
        metrics = {k: (v, layer_unit(k)) for k, v in
                   layer_metrics(tracer.spans, traced_rounds, speeds).items()}
        traced = statistics.median(solves[True])
        untraced = statistics.median(solves[False])
        metrics["trace.solve_s"] = (traced, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    else:
        if not solves[False]:
            print("no round completed", file=sys.stderr)
            return 1
        metrics = {
            "solve_s": (statistics.median(solves[False]), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setup_raw) * setup_speed, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} attempted {attempted}, failed {failed}; raw "
          f"round wall s untraced {walls[False]}, traced {walls[True]}; "
          f"scaled untraced {solves[False]}, traced {solves[True]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
