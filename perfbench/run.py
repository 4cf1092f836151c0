"""The repository benchmark: one workload, one seed, one JSON verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload renew-durable --seed 7 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke     # every workload, tiny, ~40 s

Workloads (see each module's docstring for why it exists):

* ``check-local``   — ``SlManager.check`` in process (``check_local.py``);
* ``renew-durable`` — one ``serve-remote --data-dir --fsync always``
  under renew+return pairs, then SIGKILL/restart (``renew_durable.py``);
* ``fleet-churn``   — a 2-process replicated fleet under SL-Local
  lifecycles (``fleet_churn.py``).

Every run checks the program's answers (granted checks and verified
tokens, ledger conservation, escrowed keys back bit-exact, recovered
ledgers equal to the pre-kill probe) and the generator's own schedule
slip; a run that fails any check prints ``"correct": false`` with no
numbers and exits 1.  Human-readable lines (every metric with its unit
and sample count) come first; the last line is the JSON verdict.
With ``--trace 0`` its metrics are the end-to-end ones; ``--trace 1``
adds a traced repetition and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

#: End-to-end metric -> unit, gated by BENCHMARK.json: the set-up,
#: and the CPU the system spends per operation (the application
#: process for the in-process check; the servers plus the client
#: library for the socket workloads).  CPU time is what capacity
#: costs and, unlike wall time, does not count what a busy host
#: steals.  Capacity and open-loop latency (timed from when each call
#: was due) are printed with their sample counts but not gated: on a
#: shared 2-vCPU host they drift between runs by more than any bound a
#: regression gate may use.
END_TO_END = {"setup_s": "s", "cpu_ms_per_op": "ms"}
WORKLOADS = ("check-local", "renew-durable", "fleet-churn")
SMOKE_SECONDS = 3.0


def _module(workload: str):
    import check_local
    import fleet_churn
    import renew_durable

    return {"check-local": check_local, "renew-durable": renew_durable,
            "fleet-churn": fleet_churn}[workload]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale) -> dict:
    module = _module(workload)
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    result = module.run(seed, seconds, trace, work, scale)
    return module.report(result, scale)


def verdict(outcome: dict, trace: bool, scale) -> dict:
    """The verdict line: numbers only for a run that passed."""
    from layers import PER_LAYER, complete, decomposition_problem

    problems = list(outcome["problems"])
    if trace and scale.strict:
        problem = decomposition_problem(outcome["layers"])
        if problem:
            problems.append(problem)
    metrics = {}
    if not problems:
        if trace:
            metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                       for name, value in complete(outcome["layers"]).items()}
        else:
            metrics = {name: {"value": outcome["e2e"][name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    return {"correct": not problems, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics,
            "problems": problems}


def print_report(workload: str, outcome: dict, trace: bool) -> None:
    from layers import PER_LAYER, complete

    print(f"== {workload}")
    for name, (value, unit, samples) in outcome["named"].items():
        print(f"  {name:28s} {value:14.4f} {unit:14s} n={samples}")
    for name, unit in END_TO_END.items():
        print(f"  {name:28s} {outcome['e2e'][name]:14.4f} {unit}")
    if trace:
        for name, value in complete(outcome["layers"]).items():
            print(f"  {name:36s} {value:14.4f} {PER_LAYER[name]}")
    else:
        for name, value in sorted(outcome["layers"].items()):
            print(f"  {name:36s} {value:14.4f} {PER_LAYER[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload end to end at a tiny "
                             "scale (plumbing check; numbers unchecked)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    sys.path.insert(0, SRC)
    from common import kill_leftovers

    # A runner stopped from outside still reaps its servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run(args)
    finally:
        kill_leftovers()


def _run(args) -> int:
    from common import FULL, SMOKE

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            outcome = measure(workload, args.seed, SMOKE_SECONDS, True,
                              SMOKE)
            print_report(workload, outcome, True)
            line = verdict(outcome, True, SMOKE)
            print(f"  -> correct={line['correct']} "
                  f"{'; '.join(line['problems'])}")
            ok = ok and line["correct"]
        return 0 if ok else 1

    outcome = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), FULL)
    print_report(args.workload, outcome, bool(args.trace))
    line = verdict(outcome, bool(args.trace), FULL)
    for problem in line.pop("problems"):
        print(f"  PROBLEM: {problem}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
