"""The closed-loop read client and the in-memory answers it is checked on.

One caller sends a query, waits for the answer, then sends the next,
like the ``python -m repro.results`` CLI. A *window* is the run of
queries sent after one landing (an ingest that bumps the store
generation). Every key of the workload's mix appears ``repeats`` times
in a window, in a seeded shuffle, so each key misses the
generation-keyed cache exactly once per window and the miss share is
``1 / repeats``: far from 1%, so ``p99`` falls among misses, and far
from 50%, so ``p50`` falls among hits.

Answers are kept by reference during the timed phase and compared with
the in-memory reductions only afterwards, so checking costs no timed
work.
"""

import collections
import math
import random
import time

from repro.errors import NetworkError
from repro.static_analysis.nutrition import build_label
from repro.static_analysis.report import Aggregator
from repro.web.classify import classify_endpoint
from repro.web.urls import parse_url_cached


class Query:
    """One ResultsService call: a kind plus its keyword arguments."""

    __slots__ = ("kind", "kwargs")

    def __init__(self, kind, **kwargs):
        self.kind = kind
        self.kwargs = kwargs

    def __repr__(self):
        args = ", ".join("%s=%r" % kv for kv in sorted(self.kwargs.items()))
        return "%s(%s)" % (self.kind, args)


class Sample:
    """One served query as the client saw it."""

    __slots__ = ("window", "query", "seconds", "hit", "answer")

    def __init__(self, window, query, seconds, hit, answer):
        self.window = window
        self.query = query
        self.seconds = seconds
        self.hit = hit
        self.answer = answer


def window_order(mix, repeats, rng):
    """The queries of one window: the probe first, then a seeded shuffle.

    ``mix[0]`` is the probe, whose answer must reflect the landing; it
    is sent first so its completion time gives ``delta_s``.
    """
    rest = [query for query in mix[1:] for _ in range(repeats)]
    rest += [mix[0]] * (repeats - 1)
    rng.shuffle(rest)
    return [mix[0]] + rest


class ClosedLoopClient:
    """Sends windows of queries to one ResultsService, one at a time."""

    def __init__(self, service, mix, repeats, seed):
        self.service = service
        self.mix = list(mix)
        self.repeats = repeats
        self.rng = random.Random(seed)
        self.samples = []
        self.seconds = 0.0

    def run_window(self, window):
        """Send one window; returns the probe's completion time."""
        service = self.service
        # The clock rep.py and the speed samplers use.
        clock = time.monotonic
        order = window_order(self.mix, self.repeats, self.rng)
        begin = clock()
        probe_done = None
        for query in order:
            hits = service.hits
            start = clock()
            answer = getattr(service, query.kind)(**query.kwargs)
            done = clock()
            if probe_done is None:
                probe_done = done
            self.samples.append(Sample(window, query, done - start,
                                       service.hits > hits, answer))
        self.seconds += clock() - begin
        return probe_done


def percentile(ordered, share):
    """Nearest-rank percentile of an ascending list (0 < share <= 1)."""
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(samples, client_seconds):
    """Client-side figures in ms; hits and misses pooled and apart.

    ``client_seconds`` is the client's own time, for ``queries_per_s``.
    """
    seconds = sorted(s.seconds for s in samples)
    hits = sorted(s.seconds for s in samples if s.hit)
    misses = sorted(s.seconds for s in samples if not s.hit)
    return {
        "queries": len(samples),
        "queries_per_s": len(samples) / client_seconds,
        "p50_ms": 1000 * percentile(seconds, 0.50),
        "p99_ms": 1000 * percentile(seconds, 0.99),
        "hit_ms": 1000 * percentile(hits, 0.50) if hits else 0.0,
        "miss_ms": 1000 * percentile(misses, 0.50) if misses else 0.0,
        "hit_rate": len(hits) / len(samples) if samples else 0.0,
    }


# -- in-memory reductions ----------------------------------------------------


def _label_view(label):
    """A nutrition label's served content, comparable by ``==``."""
    if label is None:
        return None
    return (label.package, label.grade, label.disclosure_lines())


def _crawl_census(crawl, app=None, app_specific_only=False):
    """Endpoint census rows reduced from the live CrawlResult."""
    rows = {}
    for visit in crawl.visits:
        if app is not None and visit.app.name != app:
            continue
        specific = set(crawl.app_specific_hosts(visit))
        per_host = {}
        for endpoint in visit.endpoints:
            netloc = endpoint.split("://", 1)[1].split("/", 1)[0]
            stats = per_host.setdefault(netloc, [0, 0, 0, ""])
            stats[0] += 1
            try:
                url = parse_url_cached(endpoint)
            except NetworkError:
                continue
            stats[3] = url.registrable_domain
            if url.scheme in ("http", "ws"):
                stats[1] = 1
            if url.has_credentials:
                stats[2] = 1
        for host in visit.hosts():
            stats = per_host.get(host)
            if stats is None:
                continue
            if app_specific_only and host not in specific:
                continue
            classification = str(classify_endpoint(
                host, intended_url=visit.site.landing_url))
            row = rows.setdefault((stats[3], classification),
                                  [set(), 0, 0, 0, 0])
            row[0].add(visit.app.name)
            row[1] += 1
            row[2] += stats[0]
            row[3] += stats[1]
            row[4] += stats[2]
    return sorted(
        ((domain, cls, len(r[0]), r[1], r[2], r[3], r[4])
         for (domain, cls), r in rows.items()),
        key=lambda row: (-row[2], -row[3], row[0], row[1]),
    )


def _census_view(rows):
    """SQL orders census ties on (apps, visits, domain) arbitrarily."""
    return sorted(tuple(row) for row in rows)


def _static_endpoint_rows(endpoints, validation, app=None):
    matched = {}
    if validation is not None:
        for package, url, flag in validation.static_detail:
            matched.setdefault((package, url), []).append(flag)
    rows = []
    for entry in endpoints.apps:
        for record in entry.records:
            flags = matched.get((entry.package, record.url))
            rows.append((entry.package, "static", record.url,
                         record.sdk or "", int(record.partial),
                         int(record.cleartext), int(record.credentials),
                         int(flags.pop(0)) if flags else 0))
    if app is not None:
        rows = [row for row in rows if row[0] == app]
    return rows


def _webapi_rows(measurements):
    rows = []
    for name in sorted(measurements):
        counts = collections.Counter(measurements[name].webapi_pairs)
        for (interface, method), calls in sorted(counts.items()):
            rows.append((name, interface, method, calls))
    return rows


def _finding_rows(impact, app=None, attacker=None):
    return [
        (f.app, f.sdk, f.bridge, f.attacker, f.severity,
         ",".join(f.readable), ",".join(f.invocable), f.flow_count,
         int(f.cleartext))
        for f in impact.findings
        if (app is None or f.app == app)
        and (attacker is None or f.attacker == attacker)
    ]


def _trend_rows(studies):
    rows = []
    for snapshot, result in studies:
        analyzed = result.analyzed
        total = analyzed or 1
        webview = len(result.webview_apps())
        ct = len(result.customtabs_apps())
        both = len(result.both_apps())
        rows.append({
            "snapshot": snapshot, "analyzed": analyzed,
            "webview_apps": webview, "ct_apps": ct, "both_apps": both,
            "webview_share": 100.0 * webview / total,
            "ct_share": 100.0 * ct / total,
            "both_share": 100.0 * both / total,
        })
    return rows


class Truth:
    """What every query should answer, from the live study objects.

    ``studies`` is the list of ``(snapshot, StudyResult)`` ingested so
    far, oldest first; the newest is what the league, label and funnel
    queries read.
    """

    def __init__(self, studies=(), crawl=None, measurements=None,
                 impact=None, endpoints=None, validation=None):
        self.studies = list(studies)
        self.crawl = crawl
        self.measurements = measurements
        self.impact = impact
        self.endpoints = endpoints
        self.validation = validation
        self._memo = {}

    def expected(self, query):
        key = repr(query)
        if key not in self._memo:
            self._memo[key] = self._compute(query.kind, **query.kwargs)
        return self._memo[key]

    def _latest(self):
        return self.studies[-1][1]

    def _compute(self, kind, **kw):
        if kind == "sdk_league":
            aggregator = Aggregator(self._latest())
            counts = (aggregator.sdk_webview_apps
                      if kw.get("mechanism", "webview") == "webview"
                      else aggregator.sdk_ct_apps)
            return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if kind == "adoption_trend":
            return _trend_rows(self.studies)
        if kind == "funnel":
            return self._latest().funnel_dict()
        if kind == "nutrition_label":
            result = self._latest()
            for analysis in result.analyses:
                if analysis.package == kw["package"] and not analysis.failed:
                    return _label_view(build_label(
                        analysis, analysis.label_sdks(result.labeler)))
            return None
        if kind == "endpoint_summary":
            return self.crawl.endpoint_summary(kw["app"])
        if kind == "endpoint_census":
            return _census_view(_crawl_census(
                self.crawl, kw.get("app"),
                kw.get("app_specific_only", False)))
        if kind == "webapi_usage":
            return _webapi_rows(self.measurements)
        if kind == "bridge_findings":
            return _finding_rows(self.impact, kw.get("app"),
                                 kw.get("attacker"))
        if kind == "capability_ranking":
            return self.impact.sdk_capability_ranking()
        if kind == "static_endpoints":
            return _static_endpoint_rows(self.endpoints, self.validation,
                                         kw.get("app"))
        if kind == "static_sdk_census":
            census = self.endpoints.sdk_census()
            return [(sdk, census[sdk]) for sdk in sorted(census)]
        if kind == "validation":
            return self.validation.as_rows()
        raise ValueError("no in-memory reduction for query kind %r" % kind)


def served_view(query, answer):
    """The served answer in the form :class:`Truth` computes."""
    if query.kind == "nutrition_label":
        return _label_view(answer)
    if query.kind == "endpoint_census":
        return _census_view(answer)
    return answer


def check_samples(samples, truths):
    """Compare every served answer with its window's truth.

    Returns ``(failed, mismatches)``; ``mismatches`` names up to five
    wrong answers for the report.
    """
    failed = 0
    mismatches = []
    for sample in samples:
        expected = truths[sample.window].expected(sample.query)
        if served_view(sample.query, sample.answer) != expected:
            failed += 1
            if len(mismatches) < 5:
                mismatches.append("window %d %r" % (sample.window,
                                                    sample.query))
    return failed, mismatches


def answers_digest_material(samples):
    """The distinct answers of each window, in a canonical text form."""
    seen = {}
    for sample in samples:
        key = (sample.window, repr(sample.query))
        if key not in seen:
            seen[key] = repr(served_view(sample.query, sample.answer))
    return "\n".join("%d %s %s" % (window, query, text)
                     for (window, query), text in sorted(seen.items()))
