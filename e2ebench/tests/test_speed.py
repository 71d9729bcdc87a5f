"""Host-speed samplers and timings at reference speed."""

import os
import signal
import subprocess
import sys
import time

import pytest

import catalog
import run
import speed
from conftest import BENCH_DIR, REPO_ROOT


#: A sample at exactly reference speed, in seconds.
REF = speed.REFERENCE_MS / 1000.0


def _samples(start, end, seconds, step=0.02):
    count = int(round((end - start) / step))
    return [(start + i * step, seconds) for i in range(count)]


def test_factor_is_reference_over_the_median_sample_in_the_window():
    samples = (_samples(0.0, 10.0, REF) + _samples(10.0, 20.0, 2 * REF))
    samples.sort()
    assert speed.speed_factor(samples, 2.0, 8.0) == pytest.approx(1.0)
    assert speed.speed_factor(samples, 12.0, 18.0) == pytest.approx(0.5)
    # Twice as slow a host gives half the speed, so the same work reads
    # the same at reference speed.
    assert speed.at_reference_speed(samples, 4.0, 12.0, 16.0) \
        == pytest.approx(speed.at_reference_speed(samples, 2.0, 3.0, 5.0))


def test_short_or_empty_windows_widen_until_they_hold_samples():
    samples = _samples(0.0, 1.0, REF) + _samples(5.0, 6.0, REF)
    # A 1 ms interval is widened to MIN_WINDOW_S around its middle.
    assert speed.speed_factor(samples, 0.5, 0.501) == pytest.approx(1.0)
    # An interval with no sample in it doubles until it has enough.
    assert speed.speed_factor(samples, 3.0, 3.5) == pytest.approx(1.0)
    with pytest.raises(speed.SpeedError):
        speed.speed_factor(samples[:speed.MIN_SAMPLES - 1], 0.0, 1.0)


def test_samplers_stop_and_are_waited_for(tmp_path):
    with speed.HostSpeed(str(tmp_path)) as host:
        children = [child for child, _ in host.children]
        assert children
        time.sleep(0.5)
    assert all(child.returncode is not None for child in children)
    assert not host.children
    assert len(host.samples) >= speed.MIN_SAMPLES
    assert all(0 < seconds < 1 for _, seconds in host.samples)


def test_ran_share_takes_steal_out():
    assert speed.ran_share(3.0, 1.0) == pytest.approx(0.75)
    assert speed.ran_share(0.0, 0.0) == 1.0


def test_repetition_timings_are_put_at_reference_speed():
    samples = _samples(0.0, 10.0, 2 * REF)
    # The second landing wanted 4 s of CPU and the hypervisor withheld
    # 1 s of it, so a quarter of its wall time is taken out.
    rep = {"metrics": {"setup_s": 1.0, "wall_s": 3.0, "cpu_s": 5.0,
                       "peak_rss_mb": 90.0, "delta_s": 1.5},
           "spans": {"setup": [[0.0, 1.0, 1.0, 0.0]],
                     "landings": [[2.0, 3.0, 2.0, 0.0, 1.5],
                                  [4.0, 6.0, 3.0, 1.0, 2.0]]}}
    run.at_reference_speed(rep, samples)
    assert rep["measured"]["wall_s"] == 3.0
    assert rep["metrics"] == pytest.approx({
        "setup_s": 0.5, "wall_s": 0.5 + 0.75, "cpu_s": 2.5,
        "peak_rss_mb": 90.0, "delta_s": (0.75 + 0.75) / 2})
    assert rep["deltas"] == pytest.approx([0.75, 0.75])
    assert rep["speed_factor"] == pytest.approx(0.5)


def test_delta_is_the_median_over_every_landing():
    reps = [{"metrics": dict.fromkeys(catalog.END_TO_END, 1.0),
             "deltas": deltas} for deltas in ([1.0, 5.0, 6.0], [2.0])]
    # The median of the four landings, not of the two repetitions'
    # medians (5.0 and 2.0).
    assert run.median_metrics(reps)["delta_s"] == pytest.approx(3.5)


def _processes_mentioning(text):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as handle:
                if text.encode() in handle.read():
                    found.append(pid)
        except OSError:
            pass
    return found


def test_a_stopped_run_stops_its_samplers_and_repetition():
    run_py = os.path.join(BENCH_DIR, "run.py")
    child = subprocess.Popen(
        [sys.executable, run_py, "--workload", "rerun-serve", "--seed", "5",
         "--seconds", "60", "--trace", "0", "--scale", "tiny"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    work = "rerun-serve-5-%d" % child.pid
    deadline = time.monotonic() + 60
    # Wait until a repetition runs beside the samplers, then stop the run.
    while (len(_processes_mentioning(work)) < 3
           and time.monotonic() < deadline):
        time.sleep(0.05)
    child.send_signal(signal.SIGTERM)
    stdout, _ = child.communicate(timeout=60)
    assert child.returncode != 0
    assert stdout == b""
    time.sleep(0.5)
    assert _processes_mentioning(work) == []
    assert not os.path.exists(os.path.join(REPO_ROOT, ".bench_work", work))
