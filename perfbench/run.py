"""Benchmark for sagin_sfc: training throughput, set-up and exact search.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 35 --trace 0

Runs whole rounds of one workload (see workloads.py) until --seconds have
passed, checks every output, and prints the metrics; the last line of
standard output is one JSON object. With --trace 0 it prints the end-to-end
metrics. With --trace 1 it spends the first half of the time on untraced
rounds and the second half on traced ones, prints the per-layer metrics and
the trace's own overhead, and writes the aggregated spans to perfbench/out/.

The package is imported from this checkout's src/ without installing it;
if it is not there the run stops with a non-zero exit.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_package():
    """Import sagin_sfc from ROOT/src and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    try:
        import sagin_sfc
    except ImportError as exc:
        raise SystemExit(f"perfbench: sagin_sfc not found under {src}: {exc}") from exc
    found = Path(sagin_sfc.__file__).resolve().parent.parent
    if found != src:
        raise SystemExit(f"perfbench: sagin_sfc imported from {found}, not {src}")
    return sagin_sfc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(rounds, setup_s, agents) -> dict:
    """Pooled rates over each piece of work's best round.

    Rounds repeat identical operations, and the host's speed drops for
    seconds at a time under other load, so a piece's fastest round is the
    one least disturbed (the reasoning of timeit). The pieces are training
    episodes (each episode's wall time as ``learn.train`` measures it) and
    exact solves. A rate pools the best times of all pieces of
    its kind: an agent's decisions over the sum of its episodes' best times,
    the exact set's size over the sum of its solves' best times.
    """
    metrics = {"setup_s": (setup_s, "s")}
    for kind in agents:
        decisions = seconds = 0.0
        for key, episodes in rounds[0].train.items():
            if key[0] != kind:
                continue
            repeats = [r.train[key] for r in rounds
                       if len(r.train.get(key, ())) == len(episodes)]
            for e, (d, _) in enumerate(episodes):
                decisions += d
                seconds += min(rep[e][1] for rep in repeats)
        metrics[f"{kind}_decisions_per_s"] = (decisions / seconds if seconds else 0.0,
                                              "decisions/s")
    best = [min(r.exact[i] for r in rounds if i in r.exact) for i in rounds[0].exact]
    metrics["exact_instances_per_s"] = (len(best) / sum(best) if best else 0.0, "instances/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def round_to_round(rounds) -> list:
    """Problems where a round's training did not repeat the first round's."""
    first = {key: [d for d, _ in episodes] for key, episodes in rounds[0].train.items()}
    return [f"round {n}: {key} made decisions {got}, round 1 made {first.get(key)}"
            for n, r in enumerate(rounds[1:], start=2)
            for key, episodes in r.train.items()
            if first.get(key) != (got := [d for d, _ in episodes])]


def write_trace(tracer, path: Path, **extra) -> None:
    doc = {
        "stats": {label: {"calls": c, "s": s, "self_s": self_s}
                  for label, (c, s, self_s) in sorted(tracer.stats.items())},
        "edges": [{"parent": parent, "callable": label, "calls": c, "s": s}
                  for (parent, label), (c, s) in sorted(tracer.edges.items(),
                                                        key=lambda kv: str(kv[0]))],
        "counts": tracer.counts,
        "absent": tracer.absent,
        **extra,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = import_package()
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(package)
    inputs = workloads.build_inputs(workload, args.seed, ROOT)
    if tracer:
        tracer.mark_setup()
        tracer.remove()

    rounds, plain_s, traced_s = [], [], []

    def play(span, times):
        started = time.perf_counter()
        rounds.append(workloads.play_round(inputs, span))
        times.append(time.perf_counter() - started)

    start = time.perf_counter()
    untraced_until = args.seconds / 2 if tracer else args.seconds
    while not plain_s or time.perf_counter() - start < untraced_until:
        play(lambda label: nullcontext(), plain_s)
    if tracer:
        tracer.install(package)
        while not traced_s or time.perf_counter() - start < args.seconds:
            play(tracer.span, traced_s)
        tracer.remove()

    problems = [p for r in rounds for p in r.problems] + round_to_round(rounds)
    failures = [f for r in rounds for f in r.failures]
    for line in (problems[:20] + failures[:20]):
        print(f"perfbench: {line}", file=sys.stderr)

    if tracer:
        overhead = 100.0 * (_median(traced_s) / _median(plain_s) - 1.0)
        uncalled = tracer.uncalled()
        metrics = tracer.layer_metrics(len(traced_s))
        metrics["trace.overhead_pct"] = (overhead, "%")
        metrics["trace.absent"] = (len(tracer.absent), "count")
        metrics["trace.uncalled"] = (len(uncalled), "count")
        for label in tracer.absent:
            print(f"trace: absent {label}")
        for label in uncalled:
            print(f"trace: uncalled {label}")
        print(f"trace: {len(plain_s)} untraced rounds, median {_median(plain_s):.3f} s; "
              f"{len(traced_s)} traced rounds, median {_median(traced_s):.3f} s; "
              f"overhead {overhead:.1f}%")
        write_trace(tracer, ROOT / "perfbench" / "out" / f"trace-{workload.name}-seed{args.seed}.json",
                    workload=workload.name, seed=args.seed, traced_rounds=len(traced_s),
                    untraced_round_s=plain_s, traced_round_s=traced_s, uncalled=uncalled)
    else:
        metrics = end_to_end(rounds, inputs.setup_s, workloads.AGENTS)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"rounds {len(rounds)}, problems {len(problems)}, failed operations {len(failures)}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
