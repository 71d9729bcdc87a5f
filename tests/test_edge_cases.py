"""Edge cases and failure injection across the substrates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.androzoo import fetch
from repro.apk import ZipReader, ZipWriter
from repro.apk.container import (
    DEX_ENTRY,
    MANIFEST_ENTRY,
    SIGNATURE_ENTRY,
    read_apk,
    write_apk,
)
from repro.apk.zipio import STORED
from repro.android.axml import (
    AXML_MAGIC,
    XmlElement,
    decode_axml,
    encode_axml,
)
from repro.android.manifest import AndroidManifest
from repro.corpus import CorpusConfig, generate_corpus
from repro.dex import (
    ClassBuilder,
    DexFile,
    deserialize_dex,
    serialize_dex,
)
from repro.dex.constants import DEX_MAGIC
from repro.dynamic.crawler import AdbCrawler
from repro.dynamic.device import Device
from repro.dynamic.manual_study import ManualStudy
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.errors import (
    BrokenApkError,
    DexError,
    ManifestError,
    NetworkError,
    error_slug,
)
from repro.exec import AnalysisCache, ExecConfig
from repro.obs import DROPS_METRIC, Obs
from repro.netstack.network import Network, Request
from repro.static_analysis import StaticAnalysisPipeline
from repro.util import sha256_hex
from repro.web.htmlparser import parse_html
from repro.web.jsengine import run_script
from repro.web.urls import parse_url


class TestZipEdgeCases:
    def test_empty_archive_roundtrip(self):
        reader = ZipReader(ZipWriter().getvalue())
        assert reader.namelist() == []

    def test_empty_file_entry(self):
        writer = ZipWriter()
        writer.add("empty.txt", b"")
        assert ZipReader(writer.getvalue()).read("empty.txt") == b""

    def test_large_entry(self):
        blob = bytes(range(256)) * 4096  # 1 MiB
        writer = ZipWriter()
        writer.add("big.bin", blob)
        assert ZipReader(writer.getvalue()).read("big.bin") == blob

    def test_unicode_names(self):
        writer = ZipWriter()
        writer.add("res/值/いち.txt", b"x")
        reader = ZipReader(writer.getvalue())
        assert reader.read("res/值/いち.txt") == b"x"

    def test_duplicate_names_last_wins_on_read(self):
        writer = ZipWriter()
        writer.add("a.txt", b"first")
        writer.add("a.txt", b"second")
        reader = ZipReader(writer.getvalue())
        assert reader.read("a.txt") in (b"first", b"second")


class TestDexEdgeCases:
    def test_empty_dex_roundtrip(self):
        assert len(deserialize_dex(serialize_dex(DexFile()))) == 0

    def test_apk_with_empty_dex(self):
        manifest = AndroidManifest("com.empty.app")
        data = write_apk(manifest, DexFile())
        apk = read_apk(data)
        assert len(apk.dex) == 0


class TestBrokenApkVariants:
    def make_good(self):
        manifest = AndroidManifest("com.x.app")
        return write_apk(manifest, DexFile())

    def test_truncated_half(self):
        data = self.make_good()
        with pytest.raises(BrokenApkError):
            read_apk(data[: len(data) // 2])

    def test_truncated_tail(self):
        data = self.make_good()
        with pytest.raises(BrokenApkError):
            read_apk(data[:-10])

    def test_xor_scrambled(self):
        data = bytes(b ^ 0x5A for b in self.make_good())
        with pytest.raises(BrokenApkError):
            read_apk(data)

    def test_empty_bytes(self):
        with pytest.raises(BrokenApkError):
            read_apk(b"")

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_random_bytes_never_crash(self, junk):
        """Arbitrary garbage either parses or raises BrokenApkError —
        never an unhandled exception (the 242-broken-APKs path)."""
        try:
            read_apk(junk)
        except BrokenApkError:
            pass


def _bad_first_string(data, magic):
    """Make the first string-pool entry invalid UTF-8, length intact.

    DEX and AXML share the pool layout after their magic: a u32 count,
    then a u16 length and the bytes of each string.
    """
    offset = len(magic) + 4 + 2
    return data[:offset] + b"\xff" + data[offset + 1:]


def _signed_container(manifest_bytes, dex_bytes):
    """An APK container whose signature digest matches its entries."""
    writer = ZipWriter()
    writer.add(MANIFEST_ENTRY, manifest_bytes)
    writer.add(DEX_ENTRY, dex_bytes)
    writer.add(SIGNATURE_ENTRY,
               sha256_hex(manifest_bytes + dex_bytes).encode("ascii"),
               method=STORED)
    return writer.getvalue()


def _non_integer_version(manifest_bytes):
    root = decode_axml(manifest_bytes)
    root.attrs["android:versionCode"] = "v2"
    return encode_axml(root)


#: Hostile rewrites of an APK's (manifest bytes, dex bytes).
_MUTATIONS = {
    "dex_string": lambda m, d: (m, _bad_first_string(d, DEX_MAGIC)),
    "axml_string": lambda m, d: (_bad_first_string(m, AXML_MAGIC), d),
    "manifest_int": lambda m, d: (_non_integer_version(m), d),
}


def _mutated_apk(data, mutation):
    reader = ZipReader(data)
    manifest_bytes, dex_bytes = _MUTATIONS[mutation](
        reader.read(MANIFEST_ENTRY), reader.read(DEX_ENTRY))
    return _signed_container(manifest_bytes, dex_bytes)


class _HostileSource:
    """A repository payload that builds an APK, then mutates it.

    Module-level and holding only the wrapped payload and the mutation's
    name, so it pickles into a process-pool task like the lazy build it
    wraps.
    """

    def __init__(self, source, mutation):
        self.source = source
        self.mutation = mutation

    def __call__(self):
        return _mutated_apk(fetch(self.source), self.mutation)


class TestHostileBytes:
    """Undecodable strings and non-integer attributes stay in the taxonomy."""

    def _dex_bytes(self):
        builder = ClassBuilder("Lcom/x/Main;")
        return serialize_dex(DexFile([builder.build()]))

    def test_dex_string_pool_not_utf8(self):
        with pytest.raises(DexError):
            deserialize_dex(_bad_first_string(self._dex_bytes(), DEX_MAGIC))

    def test_axml_string_pool_not_utf8(self):
        data = AndroidManifest("com.x.app").to_axml_bytes()
        with pytest.raises(ManifestError):
            decode_axml(_bad_first_string(data, AXML_MAGIC))

    @pytest.mark.parametrize("element, name", [
        ("manifest", "android:versionCode"),
        ("uses-sdk", "android:minSdkVersion"),
        ("uses-sdk", "android:targetSdkVersion"),
    ])
    def test_manifest_non_integer_attribute(self, element, name):
        root = XmlElement("manifest", {"package": "com.x.app"})
        target = root
        if element != "manifest":
            target = root.add(XmlElement(element))
        target.attrs[name] = "twelve"
        with pytest.raises(ManifestError):
            AndroidManifest.from_element(root)

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_signed_hostile_container_is_broken_apk(self, mutation):
        good = write_apk(AndroidManifest("com.x.app"),
                         DexFile([ClassBuilder("Lcom/x/Main;").build()]))
        with pytest.raises(BrokenApkError):
            read_apk(_mutated_apk(good, mutation))

    def test_study_with_k_hostile_apks_has_k_more_drops(self):
        """A seeded study with K hostile APKs: exactly K more drops."""
        self._assert_k_more_drops(exec_config=None)

    def test_hostile_apks_resolved_in_workers_are_k_more_drops(self):
        """The same on the process backend: workers build the hostile
        bytes when they resolve each task's payload."""
        self._assert_k_more_drops(
            ExecConfig(max_workers=2, backend="process"))

    def _assert_k_more_drops(self, exec_config):
        corpus = generate_corpus(CorpusConfig(universe_size=1_500, seed=31))
        payloads = corpus.repository._payloads

        def run():
            pipeline = StaticAnalysisPipeline(corpus, obs=Obs(),
                                              exec_config=exec_config,
                                              cache=AnalysisCache())
            result = pipeline.run(max_apps=12)
            drops = pipeline.obs.registry.label_values(DROPS_METRIC)
            return result, drops

        clean, clean_drops = run()
        victims = [a.sha256 for a in clean.analyses if not a.failed]
        hostile = dict(zip(victims, sorted(_MUTATIONS)))
        originals = {sha256: payloads[sha256] for sha256 in hostile}
        for sha256, mutation in hostile.items():
            payloads[sha256] = _HostileSource(originals[sha256], mutation)
        try:
            mutated, drops = run()
        finally:
            payloads.update(originals)
        k = len(hostile)
        assert k == 3
        assert sum(drops.values()) == sum(clean_drops.values()) + k
        assert mutated.analyzed == clean.analyzed - k
        broken = (error_slug(BrokenApkError),)
        assert drops[broken] == clean_drops.get(broken, 0) + k


class TestNetworkEdgeCases:
    def test_http_url_without_tls_phase(self):
        network = Network(seed=3)
        network.register_host("plain.example")
        https = Network(seed=3)
        https.register_host("plain.example")
        insecure = network.fetch(Request("http://plain.example/"))
        secure = https.fetch(Request("https://plain.example/"))
        assert insecure.elapsed_ms < secure.elapsed_ms

    def test_invalid_url_rejected(self):
        with pytest.raises(NetworkError):
            Request("not-a-url")

    def test_webview_load_of_unresolvable_host_degrades(self):
        network = Network(seed=0)  # strict: nothing registered
        device = Device(network=network)
        runtime = WebViewRuntime("com.x", device)
        runtime.loadUrl("https://unresolvable.zz/")
        # The WebView shows an empty page rather than crashing the app.
        assert runtime.current_url == "https://unresolvable.zz/"
        assert runtime.document is not None


class TestHtmlRobustness:
    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_text_without_tags_never_crashes(self, text):
        if "<" in text:
            return
        document = parse_html("<html><body>%s</body></html>" % text)
        assert document.body is not None

    def test_deeply_nested(self):
        html = "<html><body>" + "<div>" * 120 + "</div>" * 120
        html += "</body></html>"
        document = parse_html(html)
        assert len(document.get_elements_by_tag_name("div")) == 120

    def test_attributes_with_angle_lookalikes(self):
        document = parse_html(
            '<html><body><a title="a > b" href="/x">t</a></body></html>'
        )
        anchor = document.body.children[0]
        assert anchor.get_attribute("title") == "a > b"


class TestJsRobustness:
    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80,
    ))
    @settings(max_examples=60, deadline=None)
    def test_string_literal_roundtrip(self, value):
        """Any string survives JSON.stringify->source->execution."""
        from repro.web.jsengine import json_stringify, JsInterpreter

        literal = json_stringify(value)
        interpreter = JsInterpreter()
        interpreter.run("__result = %s;" % literal)
        assert interpreter.global_scope.lookup("__result") == value

    def test_deep_recursion_budgeted(self):
        source = """
        function recurse(n) { if (n <= 0) { return 0; } return recurse(n - 1); }
        recurse(200);
        """
        run_script(source)  # must complete within the step budget

    def test_nan_comparisons(self):
        interpreter = run_script("__r = (0/0) === (0/0);")
        assert interpreter.global_scope.lookup("__r") is False


class TestUrlProperties:
    @given(
        st.sampled_from(["http", "https"]),
        st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z]{2,6}){1,2}",
                      fullmatch=True),
        st.from_regex(r"(/[a-z0-9._-]{0,10}){0,3}", fullmatch=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_str_parse_fixpoint(self, scheme, host, path):
        url = parse_url("%s://%s%s" % (scheme, host, path or "/"))
        assert parse_url(str(url)) == url


class TestScaleEdgeCases:
    def test_tiny_corpus_still_runs(self):
        corpus = generate_corpus(CorpusConfig(universe_size=40, seed=2))
        result = StaticAnalysisPipeline(corpus).run()
        assert result.androzoo_play_apps == 40

    def test_max_apps_cap(self):
        corpus = generate_corpus(CorpusConfig(universe_size=3000, seed=2))
        result = StaticAnalysisPipeline(corpus).run(max_apps=10)
        assert len(result.analyses) <= 10

    def test_manual_study_small_population(self):
        study = ManualStudy(total_apps=100, seed=1)
        tally = ManualStudy.tally(study.run())
        total = (tally["Users can post links."]
                 + tally["Users can not post links."]
                 + tally["Browser Apps."]
                 + tally["Could not classify app."])
        assert total == 100

    def test_crawler_zero_sites(self):
        from repro.dynamic.apps import real_app_profiles

        profiles = [p for p in real_app_profiles() if p.name == "Kik"]
        result = AdbCrawler(profiles, sites=[], seed=1).crawl()
        assert result.visits == []

    def test_progress_callback_fires(self):
        corpus = generate_corpus(CorpusConfig(universe_size=40_000, seed=6))
        ticks = []
        StaticAnalysisPipeline(corpus).run(
            max_apps=400, progress=lambda done, total: ticks.append(done)
        )
        assert ticks and ticks[0] == 200
