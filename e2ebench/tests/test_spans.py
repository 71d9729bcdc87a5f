"""The tracing wrappers: transparent, removable, absent when untraced."""

import sqlite3
import sys
import types

import rep
import spans
import workloads
from repro.results.store import ResultsStore
from repro.web import urls


def _targets():
    """``(owner, attribute, original)`` for every traced entry point."""
    return [spans._resolve(module, attribute)
            for _, _, module, attribute in spans.TARGETS]


def _bindings():
    """Every module-level name and traced method, by identity."""
    spans.import_all("repro")
    found = {}
    for module in spans._repro_modules():
        for attr, value in vars(module).items():
            found[(module.__name__, attr)] = value
    for owner, attr, original in _targets():
        found[(repr(owner), attr)] = getattr(owner, attr)
    return found


def test_wrappers_return_what_the_wrapped_functions_return(tmp_path):
    text = "https://user:pw@cdn.example.com:8443/a/b?x=1&x=2#frag"
    expected = urls.parse_url(text)
    store = ResultsStore(str(tmp_path / "results.db"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.is_wrapped(urls.parse_url)
        assert spans.is_wrapped(sqlite3.connect)
        parsed = urls.parse_url(text)
        generation = store.generation()
    finally:
        tracer.uninstall()
    assert parsed == expected
    assert parsed.userinfo == expected.userinfo
    assert generation == store.generation() == 0
    names = {span[0] for span in tracer.spans}
    assert {"web.parse_url", "results.generation",
            "results.connect"} <= names
    assert all(span[3] is not None for span in tracer.spans)


def test_uninstall_restores_every_binding():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    # A module first imported while the wrappers are installed binds a
    # wrapper under its own name; uninstall must put that back too.
    late = types.ModuleType("repro._late_import_probe")
    late.parse_url = urls.parse_url
    sys.modules[late.__name__] = late
    try:
        assert spans.is_wrapped(late.parse_url)
    finally:
        tracer.uninstall()
        del sys.modules[late.__name__]
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert late.parse_url is before[("repro.web.urls", "parse_url")]
    assert not spans.is_wrapped(sqlite3.connect)


def _capture_identities(monkeypatch, seen):
    """Record, at landing time, whether each target is the original."""
    originals = _targets()
    land = workloads.StaticCold._land

    def spying_land(self):
        seen.append([getattr(owner, attr) is original
                     for owner, attr, original in originals])
        return land(self)

    monkeypatch.setattr(workloads.StaticCold, "_land", spying_land)
    return originals


def test_untraced_repetition_never_runs_wrappers(monkeypatch, tmp_path):
    seen = []
    _capture_identities(monkeypatch, seen)
    result = rep.run_repetition("static-cold", 5, 1, str(tmp_path),
                                scale="tiny")
    assert seen and all(all(flags) for flags in seen)
    assert "layers" not in result


def test_traced_repetition_wraps_then_unwraps(monkeypatch, tmp_path):
    seen = []
    originals = _capture_identities(monkeypatch, seen)
    result = rep.run_repetition("static-cold", 5, 1, str(tmp_path),
                                trace=True, scale="tiny")
    assert seen and not any(any(flags) for flags in seen)
    assert all(getattr(owner, attr) is original
               for owner, attr, original in originals)
    assert result["layers"]["trace.in_process"] == 1
    assert result["layers"]["apk.read_apk_calls"] > 0
    # Set-up calls into the corpus layer from the benchmark's own module.
    assert result["layers"]["corpus.generate_s"] > 0


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent]


def test_self_time_and_nesting_helpers():
    timed = [
        _span("bench.timed", "bench", 0.0, 10.0, -1),
        _span("static_analysis.study", "static_analysis", 1.0, 9.0, 0),
        _span("exec.map", "exec", 3.0, 8.0, 1),
        _span("apk.read_apk", "apk", 4.0, 6.0, 2),
        _span("apk.read_apk", "apk", 4.5, 5.0, 3),
    ]
    own = spans.self_times(timed)
    assert own == {"bench": 2.0, "static_analysis": 3.0, "exec": 3.0,
                   "apk": 2.0}
    assert spans.outermost(timed, "apk.read_apk") == (2, 2.0)
    assert spans.pre_dispatch_seconds(
        timed, {"static_analysis.study"}) == 2.0
    # A study nested in another counts once, from the outer one's start.
    assert spans.pre_dispatch_seconds(
        timed, {"bench.timed", "static_analysis.study"}) == 3.0
    # The tracer's task pickling just before a dispatch is not the
    # study's parent-serial work.
    pickled = [
        _span("bench.timed", "bench", 0.0, 10.0, -1),
        _span("static_analysis.study", "static_analysis", 1.0, 9.0, 0),
        _span("trace.pickle_tasks", "trace", 2.5, 3.0, 1),
        _span("exec.map", "exec", 3.0, 8.0, 1),
    ]
    assert spans.pre_dispatch_seconds(
        pickled, {"static_analysis.study"}) == 1.5
    tree, stop = spans.subtree(timed, 1)
    assert stop == len(timed)
    assert [span[4] for span in tree] == [-1, 0, 1, 2]
    assert spans.find(timed, "exec.map") == 2
