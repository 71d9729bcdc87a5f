"""Tests for the Play Store and AndroZoo substrates."""

import datetime

import pytest

from repro.androzoo import AndroZooRepository, fetch
from repro.androzoo.repository import PLAY_MARKET
from repro.errors import AppNotFoundError, RepositoryError
from repro.playstore import (
    AppCategory,
    AppListing,
    PlayScraperClient,
    PlaySdkIndex,
    PlayStore,
    SdkIndexEntry,
)


def listing(package="com.x.app", installs=500_000, updated="2022-05-01"):
    return AppListing(package, "X App", AppCategory.TOOLS, installs, updated)


class TestAppListing:
    def test_updated_accepts_string(self):
        assert listing().updated == datetime.date(2022, 5, 1)

    def test_to_dict(self):
        d = listing().to_dict()
        assert d["appId"] == "com.x.app"
        assert d["minInstalls"] == 500_000
        assert d["genre"] == "Tools"

    def test_category_game_detection(self):
        assert AppCategory.PUZZLE.is_game
        assert not AppCategory.FINANCE.is_game


class TestPlayStore:
    def test_publish_and_lookup(self):
        store = PlayStore()
        store.publish(listing())
        assert store.lookup("com.x.app").installs == 500_000

    def test_lookup_missing_raises(self):
        with pytest.raises(AppNotFoundError):
            PlayStore().lookup("com.missing")

    def test_delist(self):
        store = PlayStore()
        store.publish(listing())
        store.delist("com.x.app")
        assert not store.is_listed("com.x.app")
        with pytest.raises(AppNotFoundError):
            store.lookup("com.x.app")

    def test_publish_requires_listing(self):
        with pytest.raises(TypeError):
            PlayStore().publish({"appId": "x"})

    def test_len(self):
        store = PlayStore()
        store.publish(listing())
        assert len(store) == 1


class TestScraperClient:
    def test_counts_requests_and_misses(self):
        store = PlayStore()
        store.publish(listing())
        client = PlayScraperClient(store)
        client.app("com.x.app")
        assert client.try_app_listing("com.other") is None
        assert client.requests_made == 2
        assert client.not_found == 1

    def test_app_returns_dict(self):
        store = PlayStore()
        store.publish(listing())
        assert PlayScraperClient(store).app("com.x.app")["appId"] == "com.x.app"


class TestSdkIndex:
    def test_prefix_match(self):
        entry = SdkIndexEntry("AppLovin", "Advertising", ["com.applovin"])
        index = PlaySdkIndex([entry])
        assert index.lookup_package("com.applovin.adview") is entry
        assert index.lookup_package("com.applovin") is entry

    def test_no_partial_segment_match(self):
        entry = SdkIndexEntry("X", "Ads", ["com.applovin"])
        index = PlaySdkIndex([entry])
        assert index.lookup_package("com.applovinother.ads") is None

    def test_longest_prefix_wins(self):
        broad = SdkIndexEntry("Google", "Misc", ["com.google"])
        narrow = SdkIndexEntry("Firebase", "Auth", ["com.google.firebase"])
        index = PlaySdkIndex([broad, narrow])
        assert index.lookup_package("com.google.firebase.auth").name == "Firebase"
        assert index.lookup_package("com.google.maps").name == "Google"

    def test_entries_deduplicated(self):
        entry = SdkIndexEntry("X", "Ads", ["a.b", "a.c"])
        index = PlaySdkIndex([entry])
        assert len(index) == 1


class TestAndroZoo:
    def test_archive_and_download(self):
        repo = AndroZooRepository()
        row = repo.archive("com.x", 3, "2022-01-01", b"apk-bytes")
        assert repo.download(row.sha256) == b"apk-bytes"
        assert repo.downloads_served == 1

    def test_lazy_payload_resolved_once(self):
        calls = []

        def make():
            calls.append(1)
            return b"lazy"

        repo = AndroZooRepository()
        row = repo.archive("com.x", 1, "2022-01-01", make)
        assert repo.download(row.sha256) == b"lazy"
        assert repo.download(row.sha256) == b"lazy"
        assert len(calls) == 1

    def test_unknown_sha_raises(self):
        with pytest.raises(RepositoryError):
            AndroZooRepository().download("f" * 64)
        with pytest.raises(RepositoryError):
            AndroZooRepository().source("f" * 64)

    def test_source_stays_unresolved_until_fetched(self):
        calls = []

        def make():
            calls.append(1)
            return b"lazy"

        repo = AndroZooRepository()
        row = repo.archive("com.x", 1, "2022-01-01", make)
        source = repo.source(row.sha256)
        assert source is make
        assert fetch(source) == b"lazy"
        assert fetch(b"eager") == b"eager"
        # Fetching a source leaves the repository as it was.
        assert repo.source(row.sha256) is make
        assert repo.downloads_served == 0
        assert len(calls) == 1

    def test_snapshot_packages_by_market(self):
        repo = AndroZooRepository()
        repo.archive("com.a", 1, "2022-01-01", b"x")
        repo.archive("com.b", 1, "2022-01-01", b"y", markets=("anzhi",))
        snapshot = repo.snapshot("2023-01-13")
        assert snapshot.packages(market=PLAY_MARKET) == ["com.a"]
        assert set(snapshot.packages()) == {"com.a", "com.b"}

    def test_latest_version(self):
        repo = AndroZooRepository()
        repo.archive("com.a", 1, "2021-01-01", b"v1")
        row2 = repo.archive("com.a", 5, "2022-06-01", b"v5")
        snapshot = repo.snapshot()
        assert snapshot.latest_version("com.a").sha256 == row2.sha256
        assert snapshot.latest_version("com.none") is None

    def test_snapshot_date_default(self):
        snapshot = AndroZooRepository().snapshot()
        assert snapshot.date == datetime.date(2023, 1, 13)

    def test_snapshot_excludes_rows_after_its_date(self):
        # Regression: snapshot(date) returned every archived row, so apps
        # first seen after the snapshot date leaked into the listing.
        repo = AndroZooRepository()
        old = repo.archive("com.old", 1, "2022-06-01", b"old")
        repo.archive("com.new", 1, "2023-05-01", b"new")
        repo.archive("com.old", 9, "2023-05-01", b"old-v9")
        snapshot = repo.snapshot("2023-01-13")
        assert len(snapshot) == 1
        assert snapshot.packages() == ["com.old"]
        assert snapshot.latest_version("com.new") is None
        # The later version of com.old must not win inside the snapshot.
        assert snapshot.latest_version("com.old").sha256 == old.sha256

    def test_latest_version_market_restriction(self):
        # Regression: a newer alternative-market archive of the same
        # package could win the version pick for the Play-only study.
        repo = AndroZooRepository()
        play = repo.archive("com.a", 3, "2022-01-01", b"play")
        other = repo.archive("com.a", 7, "2022-06-01", b"anzhi",
                             markets=("anzhi",))
        snapshot = repo.snapshot()
        assert snapshot.latest_version("com.a").sha256 == other.sha256
        assert snapshot.latest_version(
            "com.a", market=PLAY_MARKET
        ).sha256 == play.sha256
        assert snapshot.latest_version("com.a", market="fdroid") is None


class TestIndexRowNormalization:
    def test_datetime_normalized_to_date(self):
        # Regression: a datetime.datetime dex_date survived construction,
        # so snapshot(date) comparisons raised TypeError mid-listing.
        repo = AndroZooRepository()
        row = repo.archive("com.x", 1,
                           datetime.datetime(2022, 3, 4, 12, 30), b"x")
        assert type(row.dex_date) is datetime.date
        assert row.dex_date == datetime.date(2022, 3, 4)
        # The normalized row must compare cleanly against snapshot dates.
        assert repo.snapshot("2023-01-13").packages() == ["com.x"]

    def test_string_still_parsed(self):
        repo = AndroZooRepository()
        row = repo.archive("com.x", 1, "2022-03-04", b"x")
        assert row.dex_date == datetime.date(2022, 3, 4)


class TestSnapshotOrdering:
    def test_rows_sorted_deterministically(self):
        # Regression: Snapshot preserved archive-insertion order, so two
        # repositories with the same content listed rows differently.
        repo_a = AndroZooRepository()
        repo_a.archive("com.b", 1, "2022-01-01", b"b1")
        repo_a.archive("com.a", 2, "2022-01-01", b"a2")
        repo_a.archive("com.a", 1, "2022-01-01", b"a1")

        repo_b = AndroZooRepository()
        repo_b.archive("com.a", 1, "2022-01-01", b"a1")
        repo_b.archive("com.a", 2, "2022-01-01", b"a2")
        repo_b.archive("com.b", 1, "2022-01-01", b"b1")

        keys_a = [(r.package, r.version_code, r.sha256)
                  for r in repo_a.snapshot().rows]
        keys_b = [(r.package, r.version_code, r.sha256)
                  for r in repo_b.snapshot().rows]
        assert keys_a == keys_b == sorted(keys_a)


class TestSnapshotDelta:
    def _repo(self):
        repo = AndroZooRepository()
        repo.archive("com.keep", 1, "2022-01-01", b"keep")
        repo.archive("com.bump", 1, "2022-01-01", b"bump-v1")
        return repo

    def test_first_snapshot_is_all_added(self):
        from repro.androzoo import diff_snapshots

        snapshot = self._repo().snapshot("2023-01-13")
        delta = diff_snapshots(None, snapshot)
        assert delta.added == ["com.bump", "com.keep"]
        assert delta.changed == delta.added
        assert not delta.unchanged and not delta.removed

    def test_update_and_addition_buckets(self):
        from repro.androzoo import diff_snapshots

        repo = self._repo()
        old = repo.snapshot("2023-01-13")
        repo.archive("com.bump", 2, "2023-03-01", b"bump-v2")
        repo.archive("com.new", 1, "2023-02-01", b"new")
        new = repo.snapshot("2023-04-01")
        delta = diff_snapshots(old, new)
        assert delta.added == ["com.new"]
        assert delta.updated == ["com.bump"]
        assert delta.unchanged == ["com.keep"]
        assert delta.counts() == {
            "added": 1, "updated": 1, "removed": 0, "unchanged": 1,
        }
        # new_rows maps each changed package to the row needing analysis.
        assert sorted(delta.new_rows) == ["com.bump", "com.new"]
        assert delta.new_rows["com.bump"].version_code == 2

    def test_reverse_diff_reports_removed(self):
        from repro.androzoo import diff_snapshots

        repo = self._repo()
        old = repo.snapshot("2023-01-13")
        repo.archive("com.new", 1, "2023-02-01", b"new")
        new = repo.snapshot("2023-04-01")
        delta = diff_snapshots(new, old)
        assert delta.removed == ["com.new"]
