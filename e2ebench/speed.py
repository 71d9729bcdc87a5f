"""The host's speed during a run, to give timings at a fixed speed.

On a shared virtual machine the other guests slow this one in two
ways, for seconds to minutes at a time. They slow its instructions, by
up to ~2x, so CPU time grows with wall time. And the hypervisor
withholds its CPUs (steal time), which stretches wall time but not CPU
time. Neither wall nor CPU time repeats from one run to the next. What
does repeat is a timing with both taken out.

:class:`HostSpeed` starts one sampler process per CPU, pinned to it.
Every ``PERIOD_S`` each sampler times one fixed reference task (~0.4 ms:
zlib and SHA-256 over 20 KB, then a regular-expression scan of 4 KB)
and records ``(time.monotonic(), seconds)``. Between tasks it sleeps,
so the samplers take ~2% of each CPU. A task that starts on a woken
sampler runs on the CPU as it is at that moment, whatever else is
runnable there, so its time tracks the host's speed.

The task was chosen among six candidates (dict and string churn,
pickling, lookups in a 60K-entry dict, list allocation, the regular
expression, zlib with SHA-256) over ~80 repetitions of the three
workloads on a shared 2-core virtual machine. The pure-Python
candidates slowed more than the workloads did, and zlib alone less;
zlib plus the regular expression slowed about as much as the workloads
(log-log slope 1.0-1.2) and left the least spread after division.

:func:`at_reference_speed` turns a measured interval into seconds at
the reference speed: the interval times ``REFERENCE_MS`` over the
median task time of the samples taken within it, on every CPU. A short
interval is widened to ``MIN_WINDOW_S`` around its middle. The median
leaves out the samples a steal interrupted; :func:`ran_share` takes
steal out of wall time instead.

    python3 e2ebench/speed.py --cpu 0 --out samples.json

runs one sampler until it receives SIGTERM or its parent ends, then
writes its samples.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import zlib

#: The reference task's time, in ms, that defines reference speed. It is
#: about the task's median time on a quiet 2-core Xeon virtual machine,
#: so adjusted figures read close to measured ones there.
REFERENCE_MS = 0.4

#: Sleep between two reference tasks.
PERIOD_S = 0.02

#: An interval shorter than this is widened to it for its samples.
MIN_WINDOW_S = 0.5

#: Fewest samples a speed is taken from; the window widens until it has
#: them.
MIN_SAMPLES = 8


class SpeedError(Exception):
    """The samplers did not run, so no speed can be given."""


_BLOB = bytes(range(256)) * 80
_PATTERN = re.compile(r"(\w+)=(\d+)")
_TEXT = " ".join("k%d=%d" % (i, i * 7) for i in range(300))


def reference_task():
    """The fixed task a sampler times: compression, hashing, a scan."""
    zlib.compress(_BLOB, 6)
    hashlib.sha256(_BLOB).digest()
    return _PATTERN.findall(_TEXT)


def sample(out, stop):
    """Time the reference task every ``PERIOD_S`` until ``stop()``."""
    samples = []
    while not stop():
        started = time.monotonic()
        reference_task()
        samples.append((started, time.monotonic() - started))
        time.sleep(PERIOD_S)
    with open(out, "w") as handle:
        json.dump(samples, handle)


class HostSpeed:
    """Sampler processes, one per CPU, for the life of a ``with`` block."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.children = []
        self.samples = []

    def __enter__(self):
        os.makedirs(self.workdir, exist_ok=True)
        cpus = sorted(os.sched_getaffinity(0))
        for cpu in cpus:
            out = os.path.join(self.workdir, "speed-cpu%d.json" % cpu)
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--cpu",
                 str(cpu), "--out", out], stdin=subprocess.DEVNULL)
            self.children.append((child, out))
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def stop(self):
        """Stop every sampler, wait for each, and load their samples."""
        for child, _ in self.children:
            if child.poll() is None:
                child.send_signal(signal.SIGTERM)
        for child, out in self.children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            if os.path.exists(out):
                with open(out) as handle:
                    self.samples.extend(tuple(s) for s in json.load(handle))
        self.children = []
        self.samples.sort()


def speed_factor(samples, start, end):
    """``REFERENCE_MS`` over the median sample time in the window.

    ``samples`` are ``(monotonic start, seconds)`` pairs. The window is
    ``[start, end]``, widened to ``MIN_WINDOW_S`` around its middle and
    then doubled until it holds ``MIN_SAMPLES`` samples.
    """
    middle = (start + end) / 2.0
    half = max(end - start, MIN_WINDOW_S) / 2.0
    if len(samples) < MIN_SAMPLES:
        raise SpeedError("only %d speed samples were taken" % len(samples))
    while True:
        times = [seconds for at, seconds in samples
                 if middle - half <= at <= middle + half]
        if len(times) >= MIN_SAMPLES:
            return REFERENCE_MS / (1000.0 * statistics.median(times))
        half *= 2.0


def ran_share(cpu_s, steal_s):
    """Share of the CPU time wanted over an interval that was given.

    ``cpu_s`` is the CPU time the program got and ``steal_s`` the time
    the hypervisor withheld the CPUs while they had work (``/proc/stat``,
    all CPUs). Wall time times this share is the wall time the interval
    would have taken with nothing withheld, if the withheld time was
    spread over the interval's work.
    """
    wanted = cpu_s + steal_s
    return cpu_s / wanted if wanted > 0 else 1.0


def at_reference_speed(samples, seconds, start, end):
    """``seconds`` measured over ``[start, end]``, at reference speed."""
    return seconds * speed_factor(samples, start, end)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        os.sched_setaffinity(0, {args.cpu})
    except OSError:
        pass
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    # A sampler whose run was killed outright stops by itself.
    parent = os.getppid()
    sample(args.out, lambda: bool(stopping) or os.getppid() != parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
