"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so module-level
caches (compiled scripts, site templates, parsed URLs) never carry
over between repetitions. It prints one JSON object on its last line:
the end-to-end figures, the failure accounting and the output digest,
plus the per-layer figures when ``--trace 1``.

    python3 e2ebench/rep.py --workload static-cold --seed 1 \\
        --workers 2 --trace 0 --workdir .bench_work/x
"""

import argparse
import gc
import json
import os
import re
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: A set-up is repeated until this many seconds have been spent on it,
#: so a workload whose inputs build in milliseconds still reports a
#: median of many set-ups rather than one figure at the timer's noise.
SETUP_FLOOR_S = 0.5

#: Set-ups per repetition, at the most.
SETUP_MAX = 25


def _rss_peak_kb():
    with open("/proc/self/status") as handle:
        match = re.search(r"VmHWM:\s+(\d+)", handle.read())
    return int(match.group(1)) if match else 0


def _reset_rss_peak():
    """Reset VmHWM so set-up's peak is not charged to the timed phase."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _steal_s():
    """CPU seconds the hypervisor gave to other guests, over all CPUs.

    Recorded beside the timings: on a shared virtual machine it is the
    first thing to check when a run is slower than its neighbours.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _usage():
    """``(CPU seconds of this process and its children, steal seconds)``."""
    return (_cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN),
            _steal_s())


def set_up(workload_name, seed, workers, workdir, scale, clock,
           floor_s=SETUP_FLOOR_S, tracer=None):
    """Build the workload's inputs.

    Returns ``(workload, client, setup_s, spans)``, ``spans`` being the
    ``[start, end, cpu_s, steal_s]`` of each set-up, on ``clock``. A
    set-up is timed from the workload's construction to the end of its
    ``gc.collect()``: input building only, not interpreter start-up or
    imports. It is repeated, each time from scratch in a directory of
    its own, until ``floor_s`` seconds have been spent (at most
    ``SETUP_MAX`` times), and ``setup_s`` is the median. Only the last
    set-up's inputs go on to the timed phase.
    """
    import serving
    import workloads

    times = []
    spans = []
    while True:
        workload = client = None
        gc.collect()
        where = os.path.join(workdir, "setup%d" % len(times))
        os.makedirs(where)
        cpu_before, steal_before = _usage()
        start = clock()
        workload = workloads.WORKLOADS[workload_name](seed, workers, where,
                                                      scale=scale)
        if tracer is not None:
            tracer.open_span("bench.setup", "bench")
        workload.setup()
        client = serving.ClosedLoopClient(workload.service, workload.mix(),
                                          workload.repeats, seed)
        if tracer is not None:
            tracer.close_span()
        gc.collect()
        end = clock()
        cpu_after, steal_after = _usage()
        spans.append([start, end, cpu_after - cpu_before,
                      steal_after - steal_before])
        times.append(spans[-1][1] - start)
        if sum(times) >= floor_s or len(times) >= SETUP_MAX:
            return workload, client, statistics.median(times), spans


def run_repetition(workload_name, seed, workers, workdir, trace=False,
                   scale="full", tamper=None):
    """Set up, time, check; returns the repetition's result dict.

    A traced repetition sets up once, so ``corpus.generate_s`` is one
    set-up's generation. ``tamper`` (tests only) may rewrite served
    answers after the timed phase, to prove the answer check catches a
    wrong one.
    """
    import serving
    import spans
    import workloads

    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    # The clock the speed samplers stamp their samples with (speed.py).
    clock = time.monotonic
    try:
        workload, client, setup_s, setup_spans = set_up(
            workload_name, seed, workers, workdir, scale, clock,
            floor_s=0.0 if trace else SETUP_FLOOR_S, tracer=tracer)

        hwm_reset = _reset_rss_peak()
        if tracer is not None:
            import layers

            counters_before = layers.cache_counters(workload)
            tracer.open_span("bench.timed", "bench")
        timed_start = clock()
        truths = []
        wall = parent_cpu = child_cpu = steal = 0.0
        deltas = []
        landing_spans = []
        for index, landing in enumerate(workload.landings()):
            parent_before = _cpu(resource.RUSAGE_SELF)
            child_before = _cpu(resource.RUSAGE_CHILDREN)
            steal_before = _steal_s()
            landed = clock()
            truths.append(landing())
            ended = clock()
            wall += ended - landed
            stolen = _steal_s() - steal_before
            steal += stolen
            cpu = (_cpu(resource.RUSAGE_SELF) - parent_before,
                   _cpu(resource.RUSAGE_CHILDREN) - child_before)
            parent_cpu += cpu[0]
            child_cpu += cpu[1]
            deltas.append(client.run_window(index) - landed)
            landing_spans.append([landed, ended, sum(cpu), stolen,
                                  deltas[-1]])
        timed_s = clock() - timed_start
        if tracer is not None:
            tracer.close_span()
            counters = layers.difference(layers.cache_counters(workload),
                                         counters_before)
        peak_rss_mb = _rss_peak_kb() / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tamper is not None:
        tamper(client.samples)
    accounting = workloads.Accounting()
    workload.check_outputs(accounting)
    failed, mismatches = serving.check_samples(client.samples, truths)
    accounting.add("queries", len(client.samples), failed,
                   "wrong answers: %s" % ", ".join(mismatches))
    summary = serving.latency_summary(client.samples, client.seconds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": parent_cpu + child_cpu,
        "peak_rss_mb": peak_rss_mb,
        "delta_s": statistics.median(deltas),
    }
    result = {
        "workload": workload_name,
        "seed": seed,
        "workers": workers,
        "traced": bool(trace),
        "metrics": metrics,
        "timed_s": timed_s,
        "spans": {"setup": setup_spans, "landings": landing_spans},
        "client_s": client.seconds,
        "parent_cpu_s": parent_cpu,
        "worker_cpu_s": child_cpu,
        "worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "rss_peak_reset": hwm_reset,
        "steal_s": steal,
        "client": summary,
        "attempted": accounting.attempted,
        "failed": accounting.failed,
        "problems": accounting.problems,
        "digest": workloads.digest(
            workload, serving.answers_digest_material(client.samples)),
    }
    if tracer is not None:
        result["layers"], result["dominant_layer"] = layers.layer_metrics(
            tracer, workload, counters)
        result["layers"]["trace.in_process"] = int(workers == 1)
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)
    result = run_repetition(args.workload, args.seed, args.workers,
                            args.workdir, trace=bool(args.trace),
                            scale=args.scale)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
