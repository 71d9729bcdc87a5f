"""End-to-end benchmark of the reproduction: one workload, one seed.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload static-cold --seed 1 --seconds 24 \\
        --trace 0

Every repetition runs in a fresh interpreter (``rep.py``), beside one
host-speed sampler per CPU (``speed.py``) that lets timings be given
at a fixed reference speed. With ``--trace 0`` the command repeats the
workload untraced until ``--seconds`` have passed (at least twice) and
reports the median of each end-to-end metric. With ``--trace 1`` it
runs three repetitions: untraced with one worker per core, untraced
in-process, and traced in-process, and reports the per-layer metrics (see
README.md). Either way the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the host's core count, the source revision and the
Python version, is written under ``.bench_out/``.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
from catalog import END_TO_END, LAYERS, PER_LAYER, PREDICTED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Untraced repetitions per run, at the least. A run repeats until
#: ``--seconds`` have passed, so on a slowed host it makes fewer
#: repetitions instead of running longer.
MIN_REPETITIONS = 2

#: A run must end within 180 s; no repetition starts after this.
LAST_START_S = 120.0

#: Per-layer figures a traced run takes from its untraced parallel
#: repetition rather than from the traced one.
_FROM_UNTRACED = {
    "exec.parent_cpu_s": lambda rep: rep["parent_cpu_s"],
    "exec.worker_cpu_s": lambda rep: rep["worker_cpu_s"],
    "exec.worker_peak_rss_mb": lambda rep: rep["worker_peak_rss_mb"],
    "host.steal_s": lambda rep: rep["steal_s"],
    "host.speed_factor": lambda rep: rep["speed_factor"],
    "results.query_p50_ms": lambda rep: rep["client"]["p50_ms"],
    "results.query_p99_ms": lambda rep: rep["client"]["p99_ms"],
    "results.queries_per_s": lambda rep: rep["client"]["queries_per_s"],
    "results.query_hit_ms": lambda rep: rep["client"]["hit_ms"],
    "results.query_miss_ms": lambda rep: rep["client"]["miss_ms"],
    "results.cache_hit_rate": lambda rep: rep["client"]["hit_rate"],
}


class BenchError(Exception):
    """The benchmark cannot run here, or a repetition crashed."""


def source_revision(root):
    """The git commit, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(
                os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def child_env(root, workdir):
    """The repetition's environment: no REPRO_* settings leak in."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    return env


def run_repetition(root, workdir, workload, seed, workers, trace, scale,
                   timeout):
    """Start one ``rep.py``; returns its result dict."""
    os.makedirs(workdir)
    command = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--workers", str(workers), "--trace", str(int(trace)),
               "--workdir", workdir, "--scale", scale]
    # A session of its own, so the repetition can be killed together
    # with its pool workers.
    child = subprocess.Popen(command, cwd=root, env=child_env(root, workdir),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        # A timeout, or this run being stopped: the repetition and its
        # pool workers go too.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("repetition of %s exceeded %.0f s"
                             % (workload, timeout))
        raise
    if child.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip()[-2000:]
        raise BenchError("repetition of %s exited %d:\n%s"
                         % (workload, child.returncode, tail))
    lines = stdout.decode("utf-8", "replace").strip().splitlines()
    return json.loads(lines[-1])


def accounting(reps):
    """``(correct, attempted, failed, problems)`` over repetitions.

    Besides each repetition's own failures, every repetition whose
    output digest differs from the first one's counts as one failure.
    """
    attempted = sum(sum(rep["attempted"].values()) for rep in reps)
    failed = sum(sum(rep["failed"].values()) for rep in reps)
    problems = [problem for rep in reps for problem in rep["problems"]]
    digest = reps[0]["digest"]
    for rep in reps[1:]:
        if rep["digest"] != digest:
            failed += 1
            problems.append("output digest of a %d-worker%s repetition "
                            "differs from the first repetition's"
                            % (rep["workers"],
                               " traced" if rep["traced"] else ""))
    return failed == 0, attempted, failed, problems


def at_reference_speed(rep, samples):
    """Put the repetition's timings at reference speed (see speed.py).

    The measured figures move to ``rep["measured"]``; ``rep["metrics"]``
    gets each timing with the host's slowdown taken out, over the
    interval it covers: every set-up, every landing, every
    landing-to-answer delta. Wall times also lose the share of the
    interval's CPU time that the hypervisor withheld (steal).
    ``peak_rss_mb`` is not a timing and stays as measured.
    """
    adjust = functools.partial(speed.at_reference_speed, samples)
    share = speed.ran_share
    landings = rep["spans"]["landings"]
    rep["deltas"] = [adjust(delta * share(cpu, steal), start, start + delta)
                     for start, _, cpu, steal, delta in landings]
    rep["measured"] = rep["metrics"]
    rep["metrics"] = {
        "setup_s": statistics.median(
            adjust((end - start) * share(cpu, steal), start, end)
            for start, end, cpu, steal in rep["spans"]["setup"]),
        "wall_s": sum(adjust((end - start) * share(cpu, steal), start, end)
                      for start, end, cpu, steal, _ in landings),
        "cpu_s": sum(adjust(cpu, start, end)
                     for start, end, cpu, _, _ in landings),
        "peak_rss_mb": rep["measured"]["peak_rss_mb"],
        "delta_s": statistics.median(rep["deltas"]),
    }
    rep["speed_factor"] = speed.speed_factor(samples, landings[0][0],
                                             landings[-1][1])


def median_metrics(reps):
    """Median of each end-to-end metric over the repetitions.

    ``delta_s`` is the median over every landing of every repetition
    rather than a median of medians: ``rerun-serve`` makes four short
    landings a repetition.
    """
    metrics = {name: statistics.median(rep["metrics"][name] for rep in reps)
               for name in END_TO_END}
    metrics["delta_s"] = statistics.median(
        delta for rep in reps for delta in rep["deltas"])
    return metrics


def untraced_run(root, work, args, workers, deadline):
    reps = []
    started = time.monotonic()
    while (len(reps) < MIN_REPETITIONS
           or time.monotonic() - started < args.seconds):
        if time.monotonic() - started > LAST_START_S:
            break
        reps.append(run_repetition(
            root, os.path.join(work, "rep%d" % len(reps)), args.workload,
            args.seed, workers, False, args.scale,
            deadline - time.monotonic()))
    return reps


def untraced_metrics(reps):
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in median_metrics(reps).items()}


def traced_run(root, work, args, workers, deadline):
    plan = (("parallel", workers, False), ("inline", 1, False),
            ("traced", 1, True))
    reps = {}
    for label, count, trace in plan:
        reps[label] = run_repetition(
            root, os.path.join(work, label), args.workload, args.seed,
            count, trace, args.scale, deadline - time.monotonic())
    return [reps[label] for label, _, _ in plan]


def traced_metrics(args, root, reps):
    """Per-layer figures from the (parallel, inline, traced) repetitions."""
    reps = dict(zip(("parallel", "inline", "traced"), reps))
    traced = reps["traced"]
    values = dict(traced["layers"])
    for name, read in _FROM_UNTRACED.items():
        values[name] = read(reps["parallel"])
    untraced_wall = reps["inline"]["metrics"]["wall_s"]
    overhead = traced["metrics"]["wall_s"] - untraced_wall
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / untraced_wall
    spans = os.path.join(root, ".bench_out", "spans-%s-seed%d.jsonl"
                         % (args.workload, args.seed))
    shutil.copyfile(traced["spans_file"], spans)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in sorted(PER_LAYER.items())}


def report(args, info, reps, metrics):
    """Human-readable lines; the JSON result follows them."""
    lines = ["workload %s seed %d trace %d: cpu_count=%d python=%s "
             "revision=%s" % (args.workload, args.seed, args.trace,
                              info["cpu_count"], info["python"],
                              info["revision"])]
    for rep in reps:
        figures, client = rep["metrics"], rep["client"]
        lines.append(
            "  rep workers=%d%s setup %.3fs wall %.3fs cpu %.3fs "
            "rss %.1fMB delta %.3fs | measured wall %.3fs, host speed "
            "x%.3f, steal %.2fs | reads p50 %.3fms p99 %.3fms %.0f q/s "
            "(%d queries, %.1f%% hits)"
            % (rep["workers"], " traced" if rep["traced"] else "",
               figures["setup_s"], figures["wall_s"], figures["cpu_s"],
               figures["peak_rss_mb"], figures["delta_s"],
               rep["measured"]["wall_s"], rep["speed_factor"],
               rep["steal_s"], client["p50_ms"], client["p99_ms"],
               client["queries_per_s"], client["queries"],
               100 * client["hit_rate"]))
    if args.trace:
        traced = reps[-1]
        selfs = sorted(((metrics[layer + ".self_s"]["value"], layer)
                        for layer in LAYERS), reverse=True)
        lines.append("  traced in-process (1 worker) so spans see worker "
                     "calls; self time by layer:")
        for seconds, layer in selfs:
            lines.append("    %-16s %8.3fs" % (layer, seconds))
        lines.append("    %-16s %8.3fs (not inside a traced call)"
                     % ("(benchmark)", metrics["bench.self_s"]["value"]))
        predicted = PREDICTED[args.workload]
        verdict = ("holds" if traced["dominant_layer"] in predicted
                   else "is WRONG")
        lines.append("  dominant layer: %s; the prediction (one of %s) %s"
                     % (traced["dominant_layer"], ", ".join(predicted),
                        verdict))
        lines.append("  tracing overhead: %+.3fs (%+.1f%%) on wall_s, "
                     "traced vs untraced in-process"
                     % (metrics["trace.overhead_s"]["value"],
                        100 * metrics["trace.overhead_share"]["value"]))
    return lines


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    # Stopped from outside, the run unwinds, so the repetition and the
    # speed samplers are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, _exit_on_signal)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("e2ebench: no src/repro here; run from the root "
                         "of a checkout\n")
        return 2
    deadline = time.monotonic() + 170.0
    workers = os.cpu_count() or 1
    work = os.path.join(root, ".bench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    run_reps = traced_run if args.trace else untraced_run
    try:
        # The speed samplers run beside every repetition and are stopped,
        # and waited for, before the figures are worked out.
        with speed.HostSpeed(os.path.join(work, "speed")) as host:
            reps = run_reps(root, work, args, workers, deadline)
        for rep in reps:
            at_reference_speed(rep, host.samples)
        metrics = (traced_metrics(args, root, reps) if args.trace
                   else untraced_metrics(reps))
    except (BenchError, speed.SpeedError) as exc:
        sys.stderr.write("e2ebench: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, problems = accounting(reps)
    info = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "revision": source_revision(root)}
    for line in report(args, info, reps, metrics):
        print(line)
    for problem in problems:
        print("  FAILED: %s" % problem)
    record = dict(info, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, scale=args.scale,
                  correct=correct, attempted=attempted, failed=failed,
                  problems=problems, metrics=metrics, repetitions=reps)
    out = os.path.join(root, ".bench_out", "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
