"""The three workloads: inputs, timed landings, read mixes and checks.

Each workload builds its inputs from the seed in :meth:`setup`, then
``landings()`` yields the timed steps. A landing produces results
through the public study entry points, ingests them, and returns the
:class:`~serving.Truth` its read window is checked against. After the
timed phase, :meth:`check_outputs` does the drop accounting and
:meth:`digest_material` gives the canonical output text.

Why these three (see README.md):

- ``static-cold``: a fresh corpus through the static study and the
  endpoint census with empty caches. APK synthesis, decode, decompile,
  Java parse and the call graph do the work; the JS engine does none.
- ``dynamic``: the in-app-browser crawl, the controlled-page
  measurement and the impact census. The web, netstack and JS layers do
  the work; no DEX layer runs.
- ``rerun-serve``: follow-up snapshots landed incrementally over a base
  snapshot, with a closed-loop reader between landings. The caches,
  the run store and the results store do the work, reads beside writes.
"""

import datetime
import hashlib
import json
import os
import random

from serving import Query, Truth
from repro.core import DynamicStudy, StaticStudy
# Called through the package, not bound here by ``from ... import``:
# the tracer rebinds the ``repro`` packages' names, not this module's.
import repro.corpus
from repro.dynamic.apps import real_app_profiles, webview_iab_profiles
from repro.dynamic.crawler import AdbCrawler
from repro.dynamic.measurements import IabMeasurementHarness
from repro.endpoints import EndpointCensus
from repro.endpoints.crossval import cross_validate
from repro.exec import ExecConfig
from repro.impact import ImpactCensus
from repro.impact.attacker import ATTACKERS
from repro.impact.census import DEFAULT_IMPACT_CHUNK_SIZE
from repro.longitudinal import LongitudinalStudy, RunStore
from repro.obs import Obs
from repro.results.serve import ResultsService
from repro.results.store import ResultsStore
from repro.static_analysis.export import export_study_json
from repro.web.sites import top_sites

#: Input sizes. ``full`` is what the benchmark measures; ``tiny`` keeps
#: the benchmark's own tests fast and exercises the same code.
SCALES = {
    "full": {
        "static_universe": 30_000, "static_apps": 600,
        "labels": 64, "app_endpoints": 30, "static_repeats": 12,
        "sites": 100, "top_apps": 1000, "dynamic_repeats": 24,
        "rerun_universe": 20_000, "rerun_apps": 400, "follow_ups": 4,
        "fixture_sites": 10, "fixture_endpoint_apps": 100,
        "rerun_labels": 12, "rerun_app_endpoints": 6, "rerun_repeats": 10,
    },
    "tiny": {
        "static_universe": 600, "static_apps": 12,
        "labels": 6, "app_endpoints": 3, "static_repeats": 3,
        "sites": 3, "top_apps": 30, "dynamic_repeats": 3,
        "rerun_universe": 600, "rerun_apps": 10, "follow_ups": 2,
        "fixture_sites": 2, "fixture_endpoint_apps": 10,
        "rerun_labels": 4, "rerun_app_endpoints": 2, "rerun_repeats": 3,
    },
}

#: IABs the rerun-serve fixtures crawl and measure: two with
#: app-specific endpoints (LinkedIn, Kik), one that calls Web APIs (Kik)
#: and one that does neither (Snapchat), so every read query has rows.
FIXTURE_APPS = ("Snapchat", "LinkedIn", "Kik")

#: Apps left out of the rerun-serve impact fixture: probing their
#: injected scripts takes ~1.5 s each, and the other apps already give
#: findings of every attacker kind.
FIXTURE_SKIP = ("Facebook", "Instagram")

#: Follow-up snapshots after the corpus's 2023-01-13 base, quarterly.
FOLLOW_UP_DATES = ("2023-04-13", "2023-07-13", "2023-10-13", "2024-01-13")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _endpoints_json(result):
    """Canonical reconstruction text (pickle bytes are not canonical)."""
    return json.dumps([
        [a.package, [[r.url, r.partial, r.cleartext, r.credentials,
                      r.host, r.registrable_domain, r.owner_class, r.sdk]
                     for r in a.records]]
        for a in result.apps
    ], sort_keys=True)


def _crawl_json(crawl):
    return json.dumps([
        [v.app.name, v.site.host, list(v.endpoints)] for v in crawl.visits
    ])


def _measurements_json(measurements):
    return json.dumps([
        [name, m.webapi_pairs, m.injected_scripts, m.injected_bridges,
         sorted(m.netlog_hosts)]
        for name, m in sorted(measurements.items())
    ], default=repr, sort_keys=True)


def _impact_json(impact):
    return json.dumps([
        [f.app, f.sdk, f.bridge, f.attacker, f.severity, list(f.readable),
         list(f.invocable), f.flow_count, bool(f.cleartext)]
        for f in impact.findings
    ])


class Accounting:
    """Attempted and failed operations, by kind, plus what went wrong."""

    KINDS = ("apps", "ingests", "queries")

    def __init__(self):
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)
        self.problems = []

    def add(self, kind, attempted, failed, problem=None):
        self.attempted[kind] += attempted
        self.failed[kind] += failed
        if failed and problem:
            self.problems.append(problem)


def check_study_drops(result, corpus, max_apps, label, accounting):
    """Drops equal listed minus analyzed, and only planted APKs drop.

    ``listed`` comes from the input, not the output: the selection, cut
    to the workload's fixed input size by ``max_apps``. An app lost
    between the cut and the result counts as a failure, and so does
    every drop the corpus did not plant or planted drop that did not
    happen.
    """
    failed = [a.package for a in result.analyses if a.failed]
    planted = {a.package for a in result.analyses
               if corpus.spec_for(a.package).broken}
    listed = min(result.selected, max_apps)
    drops = listed - result.analyzed
    bad = len(set(failed) ^ planted) + abs(drops - len(failed))
    accounting.add("apps", listed, bad,
                   "%s: %d drops, %d failed, %d planted, listed %d "
                   "analyzed %d" % (label, drops, len(failed), len(planted),
                                    listed, result.analyzed))


def check_endpoint_drops(census, result, label, accounting):
    listed = {spec.package for spec in census.apps}
    analyzed = {entry.package for entry in result.apps}
    planted = {spec.package for spec in census.apps if spec.broken}
    bad = len((listed - analyzed) ^ planted) + len(analyzed - listed)
    accounting.add("apps", len(listed), bad,
                   "%s: %d of %d apps dropped, %d planted"
                   % (label, len(listed - analyzed), len(listed),
                      len(planted)))


def check_count(kind, label, expected, actual, accounting):
    accounting.add(kind, expected, abs(expected - actual),
                   "%s: expected %d, got %d" % (label, expected, actual))


def check_ingests(store, expected, accounting):
    """Every expected ``(kind, snapshot)`` ingest is in the store."""
    present = {(i["kind"], i["snapshot"]) for i in store.list_ingests()}
    missing = [entry for entry in expected if entry not in present]
    accounting.add("ingests", len(expected), len(missing),
                   "missing ingests: %s" % missing)


class Workload:
    """Shared shape: a store, a service, a worker count and a scale."""

    name = None

    def __init__(self, seed, workers, workdir, scale="full"):
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.scale = SCALES[scale]
        self.rng = random.Random("%s-%d" % (self.name, seed))
        self.store = ResultsStore(os.path.join(workdir, "results.db"))
        self.service = ResultsService(self.store)
        self.expected_ingests = []
        #: One registry per side, so cache counters do not mix: the
        #: static study (or longitudinal runner), the endpoint census,
        #: and the crawl plus impact census.
        self.static_obs = Obs()
        self.endpoint_obs = Obs()
        self.web_obs = Obs()

    def exec_config(self, **kwargs):
        return ExecConfig(max_workers=self.workers, **kwargs)

    def setup(self):
        raise NotImplementedError

    def landings(self):
        raise NotImplementedError

    def mix(self):
        raise NotImplementedError

    @property
    def repeats(self):
        raise NotImplementedError

    def check_outputs(self, accounting):
        raise NotImplementedError

    def digest_material(self):
        raise NotImplementedError

    def fresh_share(self):
        """Share of timed-phase apps analyzed afresh (incremental runs)."""
        return 0.0


class StaticCold(Workload):
    """A fresh corpus through the static study and endpoint census."""

    name = "static-cold"

    def setup(self):
        self.corpus = repro.corpus.generate_corpus(repro.corpus.CorpusConfig(
            universe_size=self.scale["static_universe"], seed=self.seed))
        self.snapshot = str(self.corpus.config.snapshot_date)

    def landings(self):
        yield self._land

    def _land(self):
        study = StaticStudy(corpus=self.corpus, max_workers=self.workers,
                            results_store=self.store, obs=self.static_obs)
        self.result = study.run(max_apps=self.scale["static_apps"])
        self.census = EndpointCensus(
            self.corpus, obs=self.endpoint_obs, exec_config=self.exec_config(),
            apps=self.corpus.selected_specs()[:self.scale["static_apps"]])
        self.endpoints = self.census.run()
        self.store.ingest_endpoints(self.endpoints,
                                    corpus=self.corpus.fingerprint(),
                                    snapshot=self.snapshot)
        self.expected_ingests = [("static", self.snapshot),
                                 ("endpoints", self.snapshot)]
        return Truth(studies=[(self.snapshot, self.result)],
                     endpoints=self.endpoints)

    def mix(self):
        packages = sorted(spec.package
                          for spec in self.corpus.selected_specs())
        labels = self.rng.sample(packages,
                                 min(self.scale["labels"], len(packages)))
        apps = self.rng.sample(packages, min(self.scale["app_endpoints"],
                                             len(packages)))
        return ([Query("funnel"),
                 Query("sdk_league", mechanism="webview"),
                 Query("sdk_league", mechanism="customtabs"),
                 Query("adoption_trend"), Query("static_sdk_census"),
                 Query("static_endpoints", source="static")]
                + [Query("nutrition_label", package=p) for p in labels]
                + [Query("static_endpoints", source="static", app=p)
                   for p in apps])

    @property
    def repeats(self):
        return self.scale["static_repeats"]

    def check_outputs(self, accounting):
        check_study_drops(self.result, self.corpus,
                          self.scale["static_apps"], "static study",
                          accounting)
        check_endpoint_drops(self.census, self.endpoints,
                             "endpoint census", accounting)
        check_ingests(self.store, self.expected_ingests, accounting)

    def digest_material(self):
        return "\n".join([export_study_json(self.result),
                          _endpoints_json(self.endpoints)])


class Dynamic(Workload):
    """The IAB crawl, the controlled-page measurement, the impact census."""

    name = "dynamic"

    def setup(self):
        self.study = DynamicStudy(
            seed=self.seed, site_count=self.scale["sites"],
            total_apps=self.scale["top_apps"], max_workers=self.workers,
            results_store=self.store, obs=self.web_obs)
        self.apps = self.study.manual_study.apps()
        self.label = "seed-%d" % self.seed

    def landings(self):
        yield self._land

    def _land(self):
        self.crawl = self.study.crawl_top_sites()
        self.measurements = self.study.measure_iabs()
        self.impact = ImpactCensus(
            apps=self.apps, seed=self.seed, obs=self.web_obs,
            exec_config=self.exec_config(
                chunk_size=DEFAULT_IMPACT_CHUNK_SIZE),
        ).run()
        self.store.ingest_impact(self.impact, corpus="top-apps",
                                 snapshot=self.label)
        self.expected_ingests = [("crawl", self.label),
                                 ("webapi", self.label),
                                 ("impact", self.label)]
        return Truth(crawl=self.crawl, measurements=self.measurements,
                     impact=self.impact)

    def mix(self):
        crawled = sorted(app.name for app in webview_iab_profiles())
        real = sorted(app.name for app in self.study.manual_study.real_apps)
        synthetic = sorted(app.name
                           for app in self.study.manual_study.synthetic_apps)
        queries = [Query("capability_ranking"), Query("endpoint_census"),
                   Query("endpoint_census", app_specific_only=True),
                   Query("webapi_usage"), Query("bridge_findings")]
        for app in crawled:
            queries += [Query("endpoint_summary", app=app),
                        Query("endpoint_census", app=app),
                        Query("endpoint_census", app=app,
                              app_specific_only=True)]
        queries += [Query("bridge_findings", app=app)
                    for app in real + self.rng.sample(
                        synthetic, min(6, len(synthetic)))]
        queries += [Query("bridge_findings", attacker=attacker)
                    for attacker in ATTACKERS]
        return queries

    @property
    def repeats(self):
        return self.scale["dynamic_repeats"]

    def check_outputs(self, accounting):
        expected_visits = (len(webview_iab_profiles())
                           * len(self.study.sites))
        check_count("apps", "crawl visits", expected_visits,
                    len(self.crawl.visits), accounting)
        check_count("apps", "IAB measurements", len(webview_iab_profiles()),
                    len(self.measurements), accounting)
        check_count("apps", "impact records", len(self.apps),
                    len(self.impact.records), accounting)
        check_ingests(self.store, self.expected_ingests, accounting)

    def digest_material(self):
        return "\n".join([_crawl_json(self.crawl),
                          _measurements_json(self.measurements),
                          _impact_json(self.impact)])


class RerunServe(Workload):
    """Incremental follow-up snapshots with reads between landings."""

    name = "rerun-serve"

    def setup(self):
        dates = FOLLOW_UP_DATES[:self.scale["follow_ups"]]
        self.study = LongitudinalStudy(
            universe_size=self.scale["rerun_universe"], seed=self.seed,
            dates=dates,
            run_store=RunStore(os.path.join(self.workdir, "runstore")),
            max_workers=self.workers, results_store=self.store,
            obs=self.static_obs)
        corpus = self.study.corpus
        base_date = corpus.config.snapshot_date
        base = self.study.run_snapshot(base_date,
                                       max_apps=self.scale["rerun_apps"])
        self.runs = [base]
        self.studies = [(base_date.isoformat(), base.result)]
        label = "seed-%d" % self.seed

        apps = [app for app in webview_iab_profiles()
                if app.name in FIXTURE_APPS]
        self.crawl = AdbCrawler(
            apps, sites=top_sites(self.scale["fixture_sites"]),
            seed=self.seed, obs=self.web_obs,
            exec_config=self.exec_config()).crawl()
        self.store.ingest(self.crawl, corpus="fixture", snapshot=label)
        self.measurements = IabMeasurementHarness(apps=apps,
                                                  seed=self.seed).run()
        self.store.ingest_webapi(self.measurements, corpus="fixture",
                                 snapshot=label)
        self.impact = ImpactCensus(
            apps=[app for app in real_app_profiles()
                  if app.name not in FIXTURE_SKIP],
            seed=self.seed, obs=self.web_obs,
            exec_config=self.exec_config(
                chunk_size=DEFAULT_IMPACT_CHUNK_SIZE),
        ).run()
        self.store.ingest_impact(self.impact, corpus="fixture",
                                 snapshot=label)
        self.census = EndpointCensus(
            corpus, apps=corpus.top_apps(self.scale["fixture_endpoint_apps"]),
            obs=self.endpoint_obs, exec_config=self.exec_config())
        self.endpoints = self.census.run()
        self.validation = cross_validate(self.endpoints, self.census)
        self.store.ingest_endpoints(self.endpoints, self.validation,
                                    corpus="fixture", snapshot=label)
        self.expected_ingests = [
            ("static", base_date.isoformat()), ("crawl", label),
            ("webapi", label), ("impact", label), ("endpoints", label),
        ]
        self.follow_ups = [datetime.date.fromisoformat(d) for d in dates]

    def landings(self):
        for date in self.follow_ups:
            yield lambda date=date: self._land(date)

    def _land(self, date):
        run = self.study.run_snapshot(date,
                                      max_apps=self.scale["rerun_apps"])
        self.runs.append(run)
        self.studies.append((date.isoformat(), run.result))
        self.expected_ingests.append(("static", date.isoformat()))
        return Truth(studies=list(self.studies), crawl=self.crawl,
                     measurements=self.measurements, impact=self.impact,
                     endpoints=self.endpoints, validation=self.validation)

    def mix(self):
        base = self.studies[0][1]
        packages = sorted(a.package for a in base.analyses)
        labels = self.rng.sample(packages, min(self.scale["rerun_labels"],
                                               len(packages)))
        endpoint_apps = sorted(entry.package for entry in self.endpoints.apps)
        apps = self.rng.sample(endpoint_apps,
                               min(self.scale["rerun_app_endpoints"],
                                   len(endpoint_apps)))
        crawled = sorted({visit.app.name for visit in self.crawl.visits})
        finders = sorted({f.app for f in self.impact.findings})
        return ([Query("adoption_trend"), Query("funnel"),
                 Query("sdk_league", mechanism="webview"),
                 Query("sdk_league", mechanism="customtabs"),
                 Query("static_sdk_census"), Query("validation"),
                 Query("webapi_usage"), Query("capability_ranking"),
                 Query("bridge_findings"), Query("endpoint_census"),
                 Query("static_endpoints", source="static")]
                + [Query("nutrition_label", package=p) for p in labels]
                + [Query("static_endpoints", source="static", app=p)
                   for p in apps]
                + [Query("endpoint_summary", app=a) for a in crawled]
                + [Query("bridge_findings", app=a) for a in finders])

    @property
    def repeats(self):
        return self.scale["rerun_repeats"]

    def check_outputs(self, accounting):
        corpus = self.study.corpus
        for (snapshot, result) in self.studies:
            check_study_drops(result, corpus, self.scale["rerun_apps"],
                              "snapshot %s" % snapshot, accounting)
        check_endpoint_drops(self.census, self.endpoints,
                             "endpoint fixture", accounting)
        check_ingests(self.store, self.expected_ingests, accounting)

    def fresh_share(self):
        """Share of follow-up apps analyzed afresh, not carried."""
        follow = self.runs[1:]
        planned = sum(run.planned for run in follow)
        return sum(run.fresh for run in follow) / planned if planned else 0.0

    def digest_material(self):
        parts = [export_study_json(result) for _, result in self.studies]
        parts += ["%s fresh=%d carried=%d" % (run.snapshot_date, run.fresh,
                                              run.carried)
                  for run in self.runs]
        return "\n".join(parts)


WORKLOADS = {cls.name: cls for cls in (StaticCold, Dynamic, RerunServe)}


def digest(workload, answers_material):
    """The output digest: study outputs plus every distinct answer."""
    return _sha(workload.digest_material() + "\n" + answers_material)
