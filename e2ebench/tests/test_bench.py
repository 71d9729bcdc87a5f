"""The benchmark at a tiny scale: names, units, digests, failure checks."""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import catalog
import rep
import run
import workloads
from conftest import BENCH_DIR, REPO_ROOT


def _command(workload, trace, seed=7, cwd=REPO_ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_prints_its_end_to_end_metrics(workload):
    result = _result(_command(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == catalog.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    done = _command("static-cold", trace=1)
    result = _result(done)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == catalog.PER_LAYER
    assert result["metrics"]["trace.in_process"]["value"] == 1
    assert "dominant layer:" in done.stdout
    assert "traced in-process" in done.stdout


def test_same_seed_gives_the_same_digest(tmp_path):
    first = rep.run_repetition("rerun-serve", 3, 1, str(tmp_path / "a"),
                               scale="tiny")
    again = rep.run_repetition("rerun-serve", 3, 1, str(tmp_path / "b"),
                               scale="tiny")
    other = rep.run_repetition("rerun-serve", 4, 1, str(tmp_path / "c"),
                               scale="tiny")
    assert first["digest"] == again["digest"]
    assert other["digest"] != first["digest"]
    assert run.accounting([first, again]) == (
        True, first["attempted"]["apps"] * 2
        + first["attempted"]["ingests"] * 2
        + first["attempted"]["queries"] * 2, 0, [])


def test_planted_wrong_answer_is_counted_and_fails(tmp_path):
    def tamper(samples):
        league = next(s for s in samples if s.query.kind == "sdk_league")
        league.answer = list(league.answer) + [("not-an-sdk", 1)]

    result = rep.run_repetition("static-cold", 3, 1, str(tmp_path),
                                scale="tiny", tamper=tamper)
    assert result["failed"]["queries"] == 1
    assert any("sdk_league" in problem for problem in result["problems"])
    correct, _, failed, _ = run.accounting([result])
    assert correct is False and failed == 1


def test_digest_mismatch_between_repetitions_fails():
    left = {"attempted": {"apps": 1}, "failed": {"apps": 0},
            "problems": [], "digest": "a", "workers": 2, "traced": False}
    right = dict(left, digest="b", workers=1)
    correct, attempted, failed, problems = run.accounting([left, right])
    assert (correct, attempted, failed) == (False, 2, 1)
    assert "1-worker" in problems[0]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, str(tmp_path / "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), str(tmp_path))
    done = _command("static-cold", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def _analysis(package, failed):
    return types.SimpleNamespace(package=package, failed=failed)


def test_drop_check_counts_apps_lost_after_the_cut():
    broken = {"b"}
    corpus = types.SimpleNamespace(spec_for=lambda package: (
        types.SimpleNamespace(broken=package in broken)))
    whole = types.SimpleNamespace(
        selected=9, analyzed=3,
        analyses=[_analysis("a", False), _analysis("b", True),
                  _analysis("c", False), _analysis("d", False)])
    accounting = workloads.Accounting()
    workloads.check_study_drops(whole, corpus, 4, "whole", accounting)
    assert (accounting.attempted["apps"], accounting.failed["apps"]) == (4, 0)
    # One app of the four taken on never reached the result.
    lost = types.SimpleNamespace(selected=9, analyzed=2,
                                 analyses=whole.analyses[:3])
    workloads.check_study_drops(lost, corpus, 4, "lost", accounting)
    assert accounting.failed["apps"] == 1
    assert "lost" in accounting.problems[0]
