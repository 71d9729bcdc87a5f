"""A JavaScript engine for the subset the IAB injections use.

The injected scripts the paper captures (Facebook's autofill loader, DOM
tag counters, simHash probes, ad bootstrap code) are real JS; this module
executes equivalent scripts against the DOM bridge so that the Web API
call log of Table 9 *emerges from execution* rather than being asserted.

Supported subset: var/let/const, function declarations and expressions
(with closures), if/else, for, while, return, expression statements;
assignment (incl. compound), ternary, logical, equality/relational,
arithmetic and bitwise operators, unary ``!``/``-``/``typeof``, postfix
``++``/``--``, calls, ``new``-less object construction via literals, member
and index access, array/object literals, and string/array/number builtins.

Values map to Python: ``null`` -> None, numbers -> float, plus the
:data:`UNDEFINED` sentinel. Bitwise operators coerce through int32 like JS.

Execution is compiled: the parser's AST (nested tuples) compiles once
into Python closures, one per node, each taking ``(interp, scope)`` with
its node kind, operator and children resolved at compile time. Every
closure counts one interpreter step for its node, in the order of a
per-node tree walk, so ``JsInterpreter.steps`` and the ``MAX_STEPS``
budget are exact and evaluator-independent (``tests/test_js_golden.py``
pins them). Function values keep their AST; the interpreter finds a
function's compiled body in the table of the program that defined it.

Compilation is memoized corpus-wide: the same ~dozen injected scripts are
evaluated against every one of the 100 crawled sites, so
:class:`ScriptCache` keys tokenize+parse+compile output on the script's
SHA-256 (plus the taint mode) and hands the compiled program, which holds
no interpreter state, to each execution. Interpreter state stays strictly
per-execution. ``REPRO_SCRIPT_CACHE=0`` disables the cache (every run
compiles afresh); ``REPRO_CACHE_MAX_ENTRIES`` bounds it, following the
conventions of the static pipeline's class-facts cache.
"""

import contextlib
import contextvars
import hashlib
import math
import operator
import time

from repro.errors import JsRuntimeError, JsSyntaxError
from repro.exec.cache import LruStore, env_max_entries
from repro.exec.config import SCRIPT_CACHE_ENV_VAR, TAINT_ENV_VAR, _env_flag
from repro.obs.tracing import current_tracer


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(
    "var let const function return if else for while do break continue new"
    " typeof true false null undefined this in of instanceof delete void"
    " throw try catch finally switch case default".split()
)

_PUNCT = sorted(
    [
        "===", "!==", ">>>", "<<=", ">>=", "&&", "||", "==", "!=", "<=",
        ">=", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
        "<<", ">>", "=>", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
        "&", "|", "^", "?", ":", ";", ",", ".", "(", ")", "{", "}", "[",
        "]",
    ],
    key=len,
    reverse=True,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
            "0": "\0", "'": "'", '"': '"', "\\": "\\", "/": "/"}


class _Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind  # 'id', 'kw', 'num', 'str', 'punct', 'eof'
        self.value = value
        self.line = line

    def __repr__(self):
        return "_Token(%s, %r)" % (self.kind, self.value)


def _tokenize(source):
    tokens = []
    index = 0
    line = 1
    length = len(source)
    while index < length:
        char = source[index]
        if char in " \t\r":
            index += 1
            continue
        if char == "\n":
            line += 1
            index += 1
            continue
        if source.startswith("//", index):
            end = source.find("\n", index)
            index = length if end < 0 else end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise JsSyntaxError("unterminated comment", line=line)
            line += source.count("\n", index, end)
            index = end + 2
            continue
        if char in "'\"":
            quote = char
            index += 1
            chars = []
            while True:
                if index >= length:
                    raise JsSyntaxError("unterminated string", line=line)
                current = source[index]
                if current == quote:
                    index += 1
                    break
                if current == "\n":
                    raise JsSyntaxError("newline in string", line=line)
                if current == "\\":
                    if index + 1 >= length:
                        raise JsSyntaxError("bad escape", line=line)
                    escape = source[index + 1]
                    if escape == "u":
                        try:
                            chars.append(chr(int(source[index + 2: index + 6], 16)))
                        except ValueError:
                            raise JsSyntaxError("bad unicode escape", line=line)
                        index += 6
                        continue
                    chars.append(_ESCAPES.get(escape, escape))
                    index += 2
                    continue
                chars.append(current)
                index += 1
            tokens.append(_Token("str", "".join(chars), line))
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and source[index + 1].isdigit()
        ):
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
                tokens.append(_Token("num", float(int(source[start:index], 16)),
                                     line))
                continue
            while index < length and (source[index].isdigit() or source[index] == "."):
                index += 1
            if index < length and source[index] in "eE":
                index += 1
                if index < length and source[index] in "+-":
                    index += 1
                while index < length and source[index].isdigit():
                    index += 1
            tokens.append(_Token("num", float(source[start:index]), line))
            continue
        if char.isalpha() or char in "_$":
            start = index
            while index < length and (source[index].isalnum() or source[index] in "_$"):
                index += 1
            word = source[start:index]
            tokens.append(
                _Token("kw" if word in _KEYWORDS else "id", word, line)
            )
            continue
        matched = None
        for punct in _PUNCT:
            if source.startswith(punct, index):
                matched = punct
                break
        if matched is None:
            raise JsSyntaxError("unexpected character %r" % char, line=line)
        tokens.append(_Token("punct", matched, line))
        index += len(matched)
    tokens.append(_Token("eof", None, line))
    return tokens


# ---------------------------------------------------------------------------
# Parser (AST as tuples: (kind, ...))
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        token = self.cur
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message):
        raise JsSyntaxError("%s (near %r, line %d)" % (
            message, self.cur.value, self.cur.line), line=self.cur.line)

    def at(self, value):
        return self.cur.kind in ("punct", "kw") and self.cur.value == value

    def accept(self, value):
        if self.at(value):
            return self.advance()
        return None

    def expect(self, value):
        if not self.at(value):
            self.error("expected %r" % value)
        return self.advance()

    # -- program ------------------------------------------------------------

    def parse_program(self):
        body = []
        while self.cur.kind != "eof":
            body.append(self.parse_statement())
        return ("program", body)

    # -- statements ------------------------------------------------------------

    def parse_statement(self):
        if self.at("{"):
            return ("block", self.parse_block())
        if self.at("var") or self.at("let") or self.at("const"):
            statement = self.parse_var_decl()
            self.accept(";")
            return statement
        if self.at("function"):
            return self.parse_function_decl()
        if self.at("return"):
            self.advance()
            expr = None
            if not self.at(";") and not self.at("}") and self.cur.kind != "eof":
                expr = self.parse_expression()
            self.accept(";")
            return ("return", expr)
        if self.at("if"):
            return self.parse_if()
        if self.at("for"):
            return self.parse_for()
        if self.at("while"):
            self.advance()
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return ("while", condition, body)
        if self.at("break"):
            self.advance()
            self.accept(";")
            return ("break",)
        if self.at("continue"):
            self.advance()
            self.accept(";")
            return ("continue",)
        if self.at("throw"):
            self.advance()
            expr = self.parse_expression()
            self.accept(";")
            return ("throw", expr)
        if self.at("try"):
            return self.parse_try()
        if self.at(";"):
            self.advance()
            return ("empty",)
        expr = self.parse_expression()
        self.accept(";")
        return ("expr", expr)

    def parse_block(self):
        self.expect("{")
        body = []
        while not self.at("}"):
            if self.cur.kind == "eof":
                self.error("unterminated block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    def parse_var_decl(self):
        self.advance()  # var/let/const
        declarations = []
        while True:
            if self.cur.kind != "id":
                self.error("expected variable name")
            name = self.advance().value
            init = None
            if self.accept("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self.accept(","):
                break
        return ("var", declarations)

    def parse_function_decl(self):
        self.expect("function")
        if self.cur.kind != "id":
            self.error("expected function name")
        name = self.advance().value
        params = self.parse_params()
        body = self.parse_block()
        return ("funcdecl", name, params, body)

    def parse_params(self):
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                if self.cur.kind != "id":
                    self.error("expected parameter name")
                params.append(self.advance().value)
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    def parse_if(self):
        self.expect("if")
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.accept("else"):
            else_branch = self.parse_statement()
        return ("if", condition, then_branch, else_branch)

    def parse_for(self):
        self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            if self.at("var") or self.at("let") or self.at("const"):
                init = self.parse_var_decl()
                # for-in support: `for (var k in obj)`
                if self.at("in"):
                    self.advance()
                    target = self.parse_expression()
                    self.expect(")")
                    body = self.parse_statement()
                    return ("forin", init[1][0][0], target, body)
            else:
                init = ("expr", self.parse_expression())
        self.expect(";")
        condition = None
        if not self.at(";"):
            condition = self.parse_expression()
        self.expect(";")
        update = None
        if not self.at(")"):
            update = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ("for", init, condition, update, body)

    def parse_try(self):
        self.expect("try")
        try_body = self.parse_block()
        catch_name, catch_body = None, None
        if self.accept("catch"):
            if self.accept("("):
                if self.cur.kind != "id":
                    self.error("expected catch parameter")
                catch_name = self.advance().value
                self.expect(")")
            catch_body = self.parse_block()
        finally_body = None
        if self.accept("finally"):
            finally_body = self.parse_block()
        return ("try", try_body, catch_name, catch_body, finally_body)

    # -- expressions ------------------------------------------------------------

    def parse_expression(self):
        expr = self.parse_assignment()
        while self.accept(","):
            expr = ("comma", expr, self.parse_assignment())
        return expr

    def parse_assignment(self):
        left = self.parse_ternary()
        for operator in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):
            if self.at(operator):
                self.advance()
                right = self.parse_assignment()
                return ("assign", operator, left, right)
        return left

    def parse_ternary(self):
        condition = self.parse_binary(0)
        if self.accept("?"):
            if_true = self.parse_assignment()
            self.expect(":")
            if_false = self.parse_assignment()
            return ("ternary", condition, if_true, if_false)
        return condition

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("===", "!==", "==", "!="),
        ("<", ">", "<=", ">=", "in", "instanceof"),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level):
        if level >= len(self._LEVELS):
            return self.parse_unary()
        operators = self._LEVELS[level]
        left = self.parse_binary(level + 1)
        while self.cur.value in operators and self.cur.kind in ("punct", "kw"):
            operator = self.advance().value
            right = self.parse_binary(level + 1)
            left = ("binary", operator, left, right)
        return left

    def parse_unary(self):
        if self.cur.kind == "punct" and self.cur.value in ("!", "-", "+", "~"):
            operator = self.advance().value
            return ("unary", operator, self.parse_unary())
        if self.at("typeof"):
            self.advance()
            return ("typeof", self.parse_unary())
        if self.at("void"):
            self.advance()
            return ("void", self.parse_unary())
        if self.cur.value in ("++", "--") and self.cur.kind == "punct":
            operator = self.advance().value
            target = self.parse_unary()
            return ("preincr", operator, target)
        if self.at("new"):
            self.advance()
            callee = self.parse_postfix(no_call=True)
            args = []
            if self.at("("):
                args = self.parse_args()
            return ("new", callee, args)
        return self.parse_postfix()

    def parse_postfix(self, no_call=False):
        expr = self.parse_primary()
        while True:
            if self.at("."):
                self.advance()
                if self.cur.kind not in ("id", "kw"):
                    self.error("expected property name")
                name = self.advance().value
                expr = ("member", expr, name)
                continue
            if self.at("["):
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ("index", expr, index)
                continue
            if self.at("(") and not no_call:
                args = self.parse_args()
                expr = ("call", expr, args)
                continue
            if self.cur.kind == "punct" and self.cur.value in ("++", "--"):
                operator = self.advance().value
                expr = ("postincr", operator, expr)
                continue
            return expr

    def parse_args(self):
        self.expect("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_assignment())
                if not self.accept(","):
                    break
        self.expect(")")
        return args

    def parse_primary(self):
        token = self.cur
        if token.kind == "num":
            self.advance()
            return ("lit", token.value)
        if token.kind == "str":
            self.advance()
            return ("lit", token.value)
        if self.at("true"):
            self.advance()
            return ("lit", True)
        if self.at("false"):
            self.advance()
            return ("lit", False)
        if self.at("null"):
            self.advance()
            return ("lit", None)
        if self.at("undefined"):
            self.advance()
            return ("lit", UNDEFINED)
        if self.at("this"):
            self.advance()
            return ("this",)
        if self.at("function"):
            self.advance()
            name = None
            if self.cur.kind == "id":
                name = self.advance().value
            params = self.parse_params()
            body = self.parse_block()
            return ("funcexpr", name, params, body)
        if self.at("("):
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if self.at("["):
            self.advance()
            elements = []
            if not self.at("]"):
                while True:
                    elements.append(self.parse_assignment())
                    if not self.accept(","):
                        break
            self.expect("]")
            return ("array", elements)
        if self.at("{"):
            self.advance()
            pairs = []
            if not self.at("}"):
                while True:
                    key_token = self.cur
                    if key_token.kind in ("id", "kw"):
                        key = self.advance().value
                    elif key_token.kind == "str":
                        key = self.advance().value
                    elif key_token.kind == "num":
                        key = _number_to_string(self.advance().value)
                    else:
                        self.error("expected object key")
                    self.expect(":")
                    pairs.append((key, self.parse_assignment()))
                    if not self.accept(","):
                        break
            self.expect("}")
            return ("object", pairs)
        if token.kind == "id":
            self.advance()
            return ("name", token.value)
        self.error("unexpected token")


def parse_js(source):
    """Parse JS source into an AST (a nested tuple tree).

    Nesting deeper than the interpreter's recursion limit raises
    :class:`JsSyntaxError`; the check costs nothing on the hot path
    because it is only made here, at the entry point.
    """
    try:
        return _Parser(_tokenize(source)).parse_program()
    except RecursionError:
        raise JsSyntaxError("nesting too deep") from None


# ---------------------------------------------------------------------------
# Compiled-script cache
# ---------------------------------------------------------------------------

def script_digest(source):
    """The SHA-256 hex digest keying a script in the compiled cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _compile_source(source):
    """Parse and compile one script into a :class:`_Program`."""
    ast = parse_js(source)
    try:
        return _compile_program(ast)
    except RecursionError:
        raise JsSyntaxError("nesting too deep") from None


class _ScriptEntry:
    """One cached program: the compiled script plus its measured
    parse-and-compile cost."""

    __slots__ = ("program", "cost_s")

    def __init__(self, program, cost_s):
        self.program = program
        self.cost_s = cost_s


class ScriptCache:
    """Corpus-wide memo of compiled scripts, keyed on script SHA-256.

    A compiled program (:class:`_Program`: the AST plus its closures)
    holds no interpreter state — closures take the interpreter and scope
    as arguments — so one parse and compile can back every execution of
    the same script across apps and sites. Scopes, globals, and all other
    interpreter state stay per-execution. Bounded by
    ``REPRO_CACHE_MAX_ENTRIES`` (unbounded by default) with eviction
    accounting, like the static pipeline's class-facts cache.
    """

    def __init__(self, max_entries=None):
        if max_entries is None:
            max_entries = env_max_entries()
        self._store = LruStore(max_entries)
        self.hits = 0
        self.misses = 0
        self.time_saved_s = 0.0

    def lookup(self, digest):
        """The cached entry for a digest, or None (no accounting)."""
        return self._store.get(digest)

    def store(self, digest, program, cost_s):
        self._store.put(digest, _ScriptEntry(program, cost_s))

    def parse(self, source):
        """The AST of a script, compiled through the cache, with
        hit/miss/time-saved accounting.

        Convenience entry point for benchmarks and tests; the
        interpreter's hot path (:func:`_parse_for_run`) shares the store
        but takes its timings from the ambient tracer clock instead.
        """
        digest = script_digest(source)
        entry = self.lookup(digest)
        if entry is not None:
            self.hits += 1
            self.time_saved_s += entry.cost_s
            return entry.program.ast
        started = time.perf_counter()
        program = _compile_source(source)
        self.store(digest, program, time.perf_counter() - started)
        self.misses += 1
        return program.ast

    @property
    def evictions(self):
        return self._store.evictions

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self):
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.time_saved_s = 0.0

    def __len__(self):
        return len(self._store)

    def __repr__(self):
        return "ScriptCache(%d scripts, %d hits, %d misses)" % (
            len(self._store), self.hits, self.misses
        )


_DEFAULT_SCRIPT_CACHE = None

_SCRIPT_EVENTS = contextvars.ContextVar("repro_script_events", default=None)
_SCRIPT_CACHE_OVERRIDE = contextvars.ContextVar(
    "repro_script_cache_override", default=None
)


def default_script_cache():
    """The process-wide script cache (created lazily)."""
    global _DEFAULT_SCRIPT_CACHE
    if _DEFAULT_SCRIPT_CACHE is None:
        _DEFAULT_SCRIPT_CACHE = ScriptCache()
    return _DEFAULT_SCRIPT_CACHE


@contextlib.contextmanager
def record_script_events(events):
    """Collect ``(digest, parse_seconds)`` per interpreter run into ``events``.

    Recording is orthogonal to caching: the stream is identical whether
    the cache is on or off, which is what lets the crawler's replayed
    cache metrics stay byte-identical across configurations.
    """
    token = _SCRIPT_EVENTS.set(events)
    try:
        yield events
    finally:
        _SCRIPT_EVENTS.reset(token)


@contextlib.contextmanager
def script_cache_override(enabled):
    """Force the cache on/off for the enclosed block, overriding the env.

    The crawler uses this to propagate ``ExecConfig.script_cache`` into
    worker shards independently of ``REPRO_SCRIPT_CACHE``.
    """
    token = _SCRIPT_CACHE_OVERRIDE.set(bool(enabled))
    try:
        yield
    finally:
        _SCRIPT_CACHE_OVERRIDE.reset(token)


def _cache_enabled():
    override = _SCRIPT_CACHE_OVERRIDE.get()
    if override is not None:
        return override
    return _env_flag(SCRIPT_CACHE_ENV_VAR, True)


def script_cache_key(digest, taint):
    """The cache/event key for a compile: digest plus instrumentation mode.

    Plain compiles keep the bare digest (the historical key, so existing
    event streams and metrics are unchanged); taint-instrumented compiles
    get a ``#taint`` suffix so the two modes never collide in the store.
    """
    return digest + "#taint" if taint else digest


def _parse_for_run(source):
    """Parse and compile for execution, through the cache when enabled.

    With the cache off every run compiles afresh.

    Clock parity: exactly two ambient clock reads happen per call in
    every mode (hit, miss, cache off), so a deterministic tick clock
    advances identically — and spans and metrics stay byte-identical —
    whatever the cache configuration.
    """
    clock = current_tracer().clock
    key = script_cache_key(script_digest(source), taint_enabled())
    cache = default_script_cache() if _cache_enabled() else None
    entry = cache.lookup(key) if cache is not None else None
    started = clock()
    program = entry.program if entry is not None else _compile_source(source)
    elapsed = clock() - started
    if cache is not None:
        if entry is not None:
            cache.hits += 1
            cache.time_saved_s += entry.cost_s
        else:
            cache.store(key, program, elapsed)
            cache.misses += 1
    events = _SCRIPT_EVENTS.get()
    if events is not None:
        events.append((key, elapsed))
    return program


# ---------------------------------------------------------------------------
# Taint layer
# ---------------------------------------------------------------------------
#
# Source/sink instrumentation for the injection-impact analysis
# (:mod:`repro.impact`). Values read from a taint source (bridge method
# returns, ``document.cookie``, DOM secrets, Web API reads) are wrapped
# in ``str``/``float`` subclasses that carry a frozenset of labels;
# labels survive the coercions the evaluator already performs (equality,
# truthiness, ``to_string`` on strings) because the wrappers ARE their
# base type. Propagation happens in ``_op_add``, the ``+`` operator (and
# ``+=``) — the string concatenation every exfiltration payload is
# assembled with — plus the ``JSON.stringify``/``encodeURIComponent``
# builtins, and is gated on a per-interpreter flag resolved from
# ``REPRO_TAINT``. The compiled closures are the same in both modes; a
# plain-float ``+`` returns before the flag is read, and float
# arithmetic drops labels (``TaintedNum`` goes through ``float()``).

class TaintedStr(str):
    """A string carrying taint labels; behaves exactly like ``str``."""

    __slots__ = ("taint_labels",)

    def __new__(cls, value, labels):
        self = super(TaintedStr, cls).__new__(cls, value)
        self.taint_labels = frozenset(labels)
        return self


class TaintedNum(float):
    """A number carrying taint labels; behaves exactly like ``float``."""

    __slots__ = ("taint_labels",)

    def __new__(cls, value, labels):
        self = super(TaintedNum, cls).__new__(cls, value)
        self.taint_labels = frozenset(labels)
        return self


def taint_wrap(value, labels):
    """Wrap a runtime value with taint labels (str/number only).

    Values that cannot carry labels (undefined, booleans, objects) are
    returned unchanged: the analysis tracks data that can actually be
    exfiltrated through a string-shaped channel.
    """
    if not labels:
        return value
    labels = frozenset(labels) | taint_labels(value)
    if isinstance(value, str):
        return TaintedStr(value, labels)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return TaintedNum(value, labels)
    return value


def taint_labels(value):
    """The frozenset of taint labels on a value (empty when untainted)."""
    return getattr(value, "taint_labels", frozenset())


def is_tainted(value):
    return bool(taint_labels(value))


def _collect_taint_labels(value, _depth=0):
    """All taint labels reachable from a value, including through
    object properties and array elements (``JSON.stringify`` serialises
    the whole graph, so its output inherits every embedded label)."""
    labels = taint_labels(value)
    if _depth > 8:
        return labels
    if isinstance(value, JsObject):
        for prop in value.properties.values():
            labels |= _collect_taint_labels(prop, _depth + 1)
    elif isinstance(value, JsArray):
        for element in value.elements:
            labels |= _collect_taint_labels(element, _depth + 1)
    return labels


_TAINT_OVERRIDE = contextvars.ContextVar("repro_taint_override", default=None)
_TAINT_FLOWS = contextvars.ContextVar("repro_taint_flows", default=None)


def taint_enabled():
    """Whether taint instrumentation is active (override, else env)."""
    override = _TAINT_OVERRIDE.get()
    if override is not None:
        return override
    return _env_flag(TAINT_ENV_VAR, False)


@contextlib.contextmanager
def taint_override(enabled):
    """Force taint instrumentation on/off for the enclosed block.

    The impact probes use this to instrument a single attacker replay
    without flipping ``REPRO_TAINT`` for the whole process.
    """
    token = _TAINT_OVERRIDE.set(bool(enabled))
    try:
        yield
    finally:
        _TAINT_OVERRIDE.reset(token)


@contextlib.contextmanager
def record_taint_flows(flows):
    """Collect ``(sink, sorted_source_labels)`` tuples into ``flows``.

    Flows are appended in execution order with their source labels
    sorted, so the stream is deterministic for a deterministic script.
    """
    token = _TAINT_FLOWS.set(flows)
    try:
        yield flows
    finally:
        _TAINT_FLOWS.reset(token)


def taint_sink(sink, *values):
    """Report tainted values reaching a sink to the ambient collector.

    ``sink`` is a label tuple such as ``("bridge_arg", name, method)`` or
    ``("network", url)``. Untainted values are ignored; without an
    ambient collector this is a no-op.
    """
    flows = _TAINT_FLOWS.get()
    if flows is None:
        return
    labels = frozenset()
    for value in values:
        labels |= taint_labels(value)
    if labels:
        flows.append((sink, tuple(sorted(labels))))


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

class JsObject:
    """A plain JS object."""

    def __init__(self, properties=None):
        self.properties = dict(properties or {})

    def get(self, name):
        return self.properties.get(name, UNDEFINED)

    def set(self, name, value):
        self.properties[name] = value

    def keys(self):
        return list(self.properties)

    def __repr__(self):
        return "JsObject(%r)" % self.properties


class JsArray:
    """A JS array."""

    def __init__(self, elements=None):
        self.elements = list(elements or [])

    def __repr__(self):
        return "JsArray(%r)" % self.elements


class JsFunction:
    """A user-defined function (closure)."""

    def __init__(self, name, params, body, scope):
        self.name = name or "(anonymous)"
        self.params = params
        self.body = body
        self.scope = scope

    def __repr__(self):
        return "JsFunction(%s)" % self.name


class NativeFunction:
    """A host function exposed to JS."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __call__(self, args, this=UNDEFINED):
        return self.fn(args, this)

    def __repr__(self):
        return "NativeFunction(%s)" % self.name


class HostObject:
    """Base class for host objects bridged into JS (e.g. DOM nodes).

    Subclasses implement :meth:`js_get` / :meth:`js_set`.
    """

    def js_get(self, name):
        return UNDEFINED

    def js_set(self, name, value):
        raise JsRuntimeError(
            "cannot set %r on %s" % (name, type(self).__name__)
        )


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

class _Scope:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars = {}
        self.parent = parent

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        raise JsRuntimeError("%s is not defined" % name)

    def declare(self, name, value):
        self.vars[name] = value


def _number_to_string(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_string(value):
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _number_to_string(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, JsArray):
        return ",".join(to_string(e) for e in value.elements)
    if isinstance(value, JsObject):
        return "[object Object]"
    if isinstance(value, (JsFunction, NativeFunction)):
        return "function %s() { [code] }" % value.name
    return str(value)


def truthy(value):
    if type(value) is float:
        return value != 0 and value == value  # NaN is falsy
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return bool(value)
    return True


def to_number(value):
    if type(value) is float:
        return value
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value) if value.strip() else 0.0
        except ValueError:
            return float("nan")
    if value is None:
        return 0.0
    return float("nan")


_INF = float("inf")
_NEG_INF = float("-inf")
_NAN = float("nan")


def _to_int32(value):
    number = value if type(value) is float else to_number(value)
    if number != number or number == _INF or number == _NEG_INF:
        return 0
    result = int(number) & 0xFFFFFFFF
    if result >= 0x80000000:
        result -= 0x100000000
    return result


def json_stringify(value):
    """JSON.stringify for interpreter values."""
    if value is UNDEFINED:
        return "null"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _number_to_string(value)
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        )
        return '"%s"' % escaped
    if isinstance(value, JsArray):
        return "[%s]" % ",".join(json_stringify(e) for e in value.elements)
    if isinstance(value, JsObject):
        parts = [
            "%s:%s" % (json_stringify(k), json_stringify(v))
            for k, v in value.properties.items()
        ]
        return "{%s}" % ",".join(parts)
    return "null"


def json_parse(text):
    """JSON.parse: JSON text -> interpreter values (JsObject/JsArray)."""
    import json as _json

    try:
        loaded = _json.loads(text)
    except ValueError as exc:
        raise JsRuntimeError("JSON.parse: %s" % exc)

    def convert(value):
        if isinstance(value, dict):
            return JsObject({k: convert(v) for k, v in value.items()})
        if isinstance(value, list):
            return JsArray([convert(v) for v in value])
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, float)):
            return float(value)
        return value

    return convert(loaded)


class JsInterpreter:
    """Executes compiled JS against a set of host globals."""

    MAX_STEPS = 2_000_000
    #: JS call depth at which a call raises :class:`JsRuntimeError`, so a
    #: script recursing without bound fails at a deterministic call. A
    #: JS call takes three or more Python frames, so this stays under
    #: Python's default limit of 1,000 frames for plain recursion.
    MAX_CALL_DEPTH = 220

    def __init__(self, globals_map=None):
        self.global_scope = _Scope()
        self.steps = 0
        self.console_log = []
        self._max_steps = self.MAX_STEPS
        self._depth = 0
        #: ``id(body)`` -> :class:`_FunctionCode` for every function body
        #: of the programs this interpreter ran; each code object holds
        #: its body, so the ids stay unique while the entry lives.
        self._functions = {}
        # Resolved once per interpreter: taint-off runs pay one attribute
        # read per propagation site.
        self._taint = taint_enabled()
        self._install_builtins()
        for name, value in (globals_map or {}).items():
            self.global_scope.declare(name, value)

    # -- public API -------------------------------------------------------------

    def run(self, source):
        """Compile (through the script cache) and execute; returns the
        value of the last top-level expression statement (or UNDEFINED)."""
        program = _parse_for_run(source)
        self._functions.update(program.functions)
        scope = self.global_scope
        result = UNDEFINED
        try:
            for statement, is_expression in program.statements:
                value = statement(self, scope)
                if is_expression:
                    result = value
        except _Thrown as thrown:
            raise JsRuntimeError("uncaught: %s" % to_string(thrown.value))
        except RecursionError:
            # Last resort, as in parse_js: MAX_CALL_DEPTH bounds JS
            # recursion, but natives that call back into JS (the array
            # iteration methods) can still nest Python frames.
            raise JsRuntimeError("maximum call stack size exceeded") from None
        return result

    def call_function(self, function, args, this=UNDEFINED):
        if isinstance(function, NativeFunction):
            return function(list(args), this)
        if not isinstance(function, JsFunction):
            raise JsRuntimeError("%s is not a function" % to_string(function))
        body = function.body
        code = self._functions.get(id(body))
        if code is None:
            # A function made by another interpreter or program.
            code = _compile_function(body)
            self._functions[id(body)] = code
        if self._depth >= self.MAX_CALL_DEPTH:
            raise JsRuntimeError("maximum call stack size exceeded")
        scope = _Scope(function.scope)
        variables = scope.vars
        variables["this"] = this
        variables["arguments"] = JsArray(list(args))
        for position, param in enumerate(function.params):
            variables[param] = (args[position] if position < len(args)
                                else UNDEFINED)
        for name, params, fn_body in code.hoisted:
            variables[name] = JsFunction(name, params, fn_body, scope)
        self._depth += 1
        try:
            for statement in code.statements:
                statement(self, scope)
        except _Return as ret:
            return ret.value
        finally:
            self._depth -= 1
        return UNDEFINED

    # -- builtins ------------------------------------------------------------------

    def _install_builtins(self):
        scope = self.global_scope

        def native(name, fn):
            scope.declare(name, NativeFunction(name, fn))

        console = JsObject()
        for level in ("log", "info", "warn", "error", "debug"):
            console.set(level, NativeFunction(
                "console." + level,
                (lambda lvl: lambda args, this: self._console(lvl, args))(level),
            ))
        scope.declare("console", console)

        def js_json_stringify(args, this):
            value = args[0] if args else UNDEFINED
            result = json_stringify(value)
            if self._taint:
                result = taint_wrap(result, _collect_taint_labels(value))
            return result

        json_object = JsObject()
        json_object.set("stringify", NativeFunction(
            "JSON.stringify", js_json_stringify))
        json_object.set("parse", NativeFunction(
            "JSON.parse", lambda args, this: json_parse(
                to_string(args[0]) if args else "null")
        ))
        scope.declare("JSON", json_object)

        math_object = JsObject({
            "floor": NativeFunction("floor", lambda a, t: float(
                math.floor(to_number(a[0])))),
            "ceil": NativeFunction("ceil", lambda a, t: float(
                math.ceil(to_number(a[0])))),
            "round": NativeFunction("round", lambda a, t: float(
                int(to_number(a[0]) + 0.5))),
            "abs": NativeFunction("abs", lambda a, t: abs(to_number(a[0]))),
            "max": NativeFunction("max", lambda a, t: max(
                to_number(x) for x in a)),
            "min": NativeFunction("min", lambda a, t: min(
                to_number(x) for x in a)),
            "pow": NativeFunction("pow", lambda a, t: to_number(a[0])
                                  ** to_number(a[1])),
        })
        scope.declare("Math", math_object)

        native("parseInt", lambda a, t: _js_parse_int(a))
        native("parseFloat", lambda a, t: to_number(a[0]) if a else UNDEFINED)
        native("String", lambda a, t: to_string(a[0]) if a else "")
        native("Number", lambda a, t: to_number(a[0]) if a else 0.0)
        native("Boolean", lambda a, t: truthy(a[0]) if a else False)
        native("isNaN", lambda a, t: to_number(a[0]) != to_number(a[0]))
        def js_encode_uri_component(a, t):
            value = to_string(a[0]) if a else ""
            result = _encode_uri_component(value)
            if self._taint:
                result = taint_wrap(result, taint_labels(value))
            return result

        native("encodeURIComponent", js_encode_uri_component)
        native("Array", lambda a, t: JsArray(list(a)))

    def _console(self, level, args):
        message = " ".join(to_string(a) for a in args)
        self.console_log.append((level, message))
        return UNDEFINED

    # -- member access ------------------------------------------------------------

    def get_member(self, target, name):
        if isinstance(target, HostObject):
            return target.js_get(name)
        if isinstance(target, JsObject):
            return target.get(name)
        if isinstance(target, JsArray):
            return _array_member(target, name)
        if isinstance(target, str):
            return _string_member(target, name)
        if isinstance(target, (int, float)) and not isinstance(target, bool):
            return _number_member(float(target), name)
        if target is UNDEFINED or target is None:
            raise JsRuntimeError(
                "cannot read property %r of %s" % (name, to_string(target))
            )
        return UNDEFINED

    def set_member(self, target, name, value):
        if isinstance(target, HostObject):
            target.js_set(name, value)
            return
        if isinstance(target, JsObject):
            target.set(name, value)
            return
        if isinstance(target, JsArray) and name == "length":
            length = int(to_number(value))
            del target.elements[length:]
            return
        raise JsRuntimeError("cannot set property %r" % name)

    def get_index(self, target, index):
        if isinstance(target, JsArray):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                position = int(index)
                if 0 <= position < len(target.elements):
                    return target.elements[position]
                return UNDEFINED
            return _array_member(target, to_string(index))
        if isinstance(target, str):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                position = int(index)
                if 0 <= position < len(target):
                    return target[position]
                return UNDEFINED
            return _string_member(target, to_string(index))
        if isinstance(target, (JsObject, HostObject)):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                member = self.get_member(target, _number_to_string(float(index)))
            else:
                member = self.get_member(target, to_string(index))
            return member
        raise JsRuntimeError("cannot index %s" % to_string(target))

    def set_index(self, target, index, value):
        if isinstance(target, JsArray):
            position = int(to_number(index))
            while len(target.elements) <= position:
                target.elements.append(UNDEFINED)
            target.elements[position] = value
            return
        if isinstance(target, JsObject):
            target.set(to_string(index), value)
            return
        if isinstance(target, HostObject):
            target.js_set(to_string(index), value)
            return
        raise JsRuntimeError("cannot index-assign %s" % to_string(target))


def _equals(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right
    if left is UNDEFINED and right is None:
        return False
    if left is None and right is UNDEFINED:
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left is right or left == right


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------
#
# One function per binary operator, ``op(interp, left, right)``, resolved
# when the operator's node is compiled. Only ``+`` reads the interpreter
# (its taint flag). The arithmetic, equality and relational operators
# start with a plain-float fast path that returns what the general path
# would.

def _op_add(interp, left, right):
    if type(left) is float and type(right) is float:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        result = to_string(left) + to_string(right)
    else:
        result = to_number(left) + to_number(right)
    if interp._taint:
        # Hot path: plain getattr keeps the untainted-operands case (the
        # overwhelming majority) free of calls.
        labels = (getattr(left, "taint_labels", None),
                  getattr(right, "taint_labels", None))
        if labels[0] or labels[1]:
            result = taint_wrap(
                result, (labels[0] or frozenset())
                | (labels[1] or frozenset()))
    return result


def _op_sub(interp, left, right):
    if type(left) is float and type(right) is float:
        return left - right
    return to_number(left) - to_number(right)


def _op_mul(interp, left, right):
    if type(left) is float and type(right) is float:
        return left * right
    return to_number(left) * to_number(right)


def _op_div(interp, left, right):
    right_number = to_number(right)
    if right_number == 0:
        return _INF if to_number(left) > 0 else (
            _NEG_INF if to_number(left) < 0 else _NAN
        )
    return to_number(left) / right_number


def _op_mod(interp, left, right):
    right_number = to_number(right)
    if right_number == 0:
        return _NAN
    return math.fmod(to_number(left), right_number)


def _op_eq(interp, left, right):
    if type(left) is float and type(right) is float:
        return left == right
    return _equals(left, right)


def _op_ne(interp, left, right):
    if type(left) is float and type(right) is float:
        return left != right
    return not _equals(left, right)


def _relational(compare):
    def op(interp, left, right):
        if type(left) is float and type(right) is float:
            return compare(left, right)
        if isinstance(left, str) and isinstance(right, str):
            return compare(left, right)
        return compare(to_number(left), to_number(right))
    return op


def _op_and(interp, left, right):
    return float(_to_int32(left) & _to_int32(right))


def _op_or(interp, left, right):
    return float(_to_int32(left) | _to_int32(right))


def _op_xor(interp, left, right):
    return float(_to_int32(left) ^ _to_int32(right))


def _op_shl(interp, left, right):
    return float(_to_int32(_to_int32(left) << (_to_int32(right) & 31)))


def _op_sar(interp, left, right):
    return float(_to_int32(left) >> (_to_int32(right) & 31))


def _op_shr(interp, left, right):
    return float((_to_int32(left) & 0xFFFFFFFF) >> (_to_int32(right) & 31))


def _op_in(interp, left, right):
    if isinstance(right, JsObject):
        return to_string(left) in right.properties
    return False


def _op_instanceof(interp, left, right):
    return False


_BINARY_OPS = {
    "+": _op_add, "-": _op_sub, "*": _op_mul, "/": _op_div, "%": _op_mod,
    "==": _op_eq, "===": _op_eq, "!=": _op_ne, "!==": _op_ne,
    "<": _relational(operator.lt), ">": _relational(operator.gt),
    "<=": _relational(operator.le), ">=": _relational(operator.ge),
    "&": _op_and, "|": _op_or, "^": _op_xor,
    "<<": _op_shl, ">>": _op_sar, ">>>": _op_shr,
    "in": _op_in, "instanceof": _op_instanceof,
}


# ---------------------------------------------------------------------------
# Closure compiler
# ---------------------------------------------------------------------------
#
# Each AST node compiles once into a closure ``fn(interp, scope)`` whose
# node kind, operator and child closures are resolved at compile time.
# Every closure first takes the node's one step (inlined: a call per
# step would cost as much as the node), then evaluates its children in
# source order. Step parity with a tree walk that steps once per node
# visit is what the golden tests pin: ``interp.steps`` is the same after
# every run, so MAX_STEPS trips at the same step whatever the closures
# do inside.
#
# A statement closure returns its expression's value for an expression
# statement; run() keeps the last top-level one. break, continue, return
# and throw are Python exceptions.

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Thrown(Exception):
    def __init__(self, value):
        self.value = value


_BUDGET_MESSAGE = "script exceeded execution budget"


class _FunctionCode:
    """A compiled function body: its hoisted declarations and statements.

    Holds the body AST too, which keeps ``id(body)`` unique for as long
    as an interpreter's ``_functions`` table holds the code.
    """

    __slots__ = ("body", "hoisted", "statements")

    def __init__(self, body, hoisted, statements):
        self.body = body
        self.hoisted = hoisted
        self.statements = statements


class _Program:
    """A compiled script, as the script cache stores it.

    ``statements`` pairs each top-level statement's closure with whether
    it is an expression statement (whose value run() returns);
    ``functions`` maps ``id(body)`` of every function in the script to
    its :class:`_FunctionCode`.
    """

    __slots__ = ("ast", "statements", "functions")

    def __init__(self, ast, statements, functions):
        self.ast = ast
        self.statements = statements
        self.functions = functions


def _compile_program(ast):
    """Compile a parsed program (the output of :func:`parse_js`)."""
    compiler = _Compiler()
    statements = tuple(
        (compiler.statement(node), node[0] == "expr") for node in ast[1]
    )
    return _Program(ast, statements, compiler.functions)


def _compile_function(body):
    return _Compiler().function(body)


class _Compiler:
    def __init__(self):
        self.functions = {}

    def function(self, body):
        hoisted = tuple(
            (node[1], node[2], node[3]) for node in body
            if node[0] == "funcdecl"
        )
        code = _FunctionCode(
            body, hoisted, tuple(self.statement(node) for node in body))
        self.functions[id(body)] = code
        return code

    def statement(self, node):
        return _STATEMENTS[node[0]](self, node)

    def expression(self, node):
        return _EXPRESSIONS[node[0]](self, node)

    def store(self, target):
        """``store(interp, scope, value)`` for an assignment target."""
        kind = target[0]
        if kind == "name":
            name = target[1]

            def store(interp, scope, value):
                root = scope
                while scope is not None:
                    variables = scope.vars
                    if name in variables:
                        variables[name] = value
                        return
                    root = scope
                    scope = scope.parent
                # Implicit global, like sloppy-mode JS.
                root.vars[name] = value
            return store
        if kind == "member":
            obj = self.expression(target[1])
            name = target[2]

            def store(interp, scope, value):
                interp.set_member(obj(interp, scope), name, value)
            return store
        if kind == "index":
            obj = self.expression(target[1])
            index = self.expression(target[2])

            def store(interp, scope, value):
                container = obj(interp, scope)
                key = index(interp, scope)
                if type(container) is JsArray and type(key) is float:
                    position = int(key)
                    elements = container.elements
                    if 0 <= position < len(elements):
                        elements[position] = value
                        return
                interp.set_index(container, key, value)
            return store

        def store(interp, scope, value):
            raise JsRuntimeError("invalid assignment target")
        return store


# -- statements ---------------------------------------------------------------

def _c_expr_statement(c, node):
    expression = c.expression(node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return expression(interp, scope)
    return run


def _c_var(c, node):
    declarations = tuple(
        (name, None if init is None else c.expression(init))
        for name, init in node[1]
    )

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        for name, init in declarations:
            scope.vars[name] = (UNDEFINED if init is None
                                else init(interp, scope))
    return run


def _c_funcdecl(c, node):
    _, name, params, body = node
    c.function(body)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        scope.vars[name] = JsFunction(name, params, body, scope)
    return run


def _c_return(c, node):
    expression = None if node[1] is None else c.expression(node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        raise _Return(UNDEFINED if expression is None
                      else expression(interp, scope))
    return run


def _c_if(c, node):
    _, condition_node, then_node, else_node = node
    condition = c.expression(condition_node)
    then_branch = c.statement(then_node)
    else_branch = None if else_node is None else c.statement(else_node)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        value = condition(interp, scope)
        if value if type(value) is bool else truthy(value):
            then_branch(interp, scope)
        elif else_branch is not None:
            else_branch(interp, scope)
    return run


def _c_block(c, node):
    statements = tuple(c.statement(inner) for inner in node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        for statement in statements:
            statement(interp, scope)
    return run


def _c_while(c, node):
    condition = c.expression(node[1])
    body = c.statement(node[2])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        while True:
            value = condition(interp, scope)
            if not (value if type(value) is bool else truthy(value)):
                break
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            try:
                body(interp, scope)
            except _Break:
                break
            except _Continue:
                continue
    return run


def _c_for(c, node):
    _, init_node, condition_node, update_node, body_node = node
    init = None if init_node is None else c.statement(init_node)
    condition = (None if condition_node is None
                 else c.expression(condition_node))
    update = None if update_node is None else c.expression(update_node)
    body = c.statement(body_node)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        if init is not None:
            init(interp, scope)
        while True:
            if condition is not None:
                value = condition(interp, scope)
                if not (value if type(value) is bool else truthy(value)):
                    break
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            try:
                body(interp, scope)
            except _Break:
                break
            except _Continue:
                pass
            if update is not None:
                update(interp, scope)
    return run


def _c_forin(c, node):
    _, name, target_node, body_node = node
    target = c.expression(target_node)
    body = c.statement(body_node)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        obj = target(interp, scope)
        keys = []
        if isinstance(obj, JsObject):
            keys = obj.keys()
        elif isinstance(obj, JsArray):
            keys = [_number_to_string(float(i))
                    for i in range(len(obj.elements))]
        for key in keys:
            scope.vars[name] = key
            try:
                body(interp, scope)
            except _Break:
                break
            except _Continue:
                continue
    return run


def _c_jump(exception_type):
    def compile_jump(c, node):
        def run(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            raise exception_type()
        return run
    return compile_jump


def _c_throw(c, node):
    expression = c.expression(node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        raise _Thrown(expression(interp, scope))
    return run


def _c_try(c, node):
    _, try_nodes, catch_name, catch_nodes, finally_nodes = node
    try_body = tuple(c.statement(inner) for inner in try_nodes)
    catch_body = (None if catch_nodes is None
                  else tuple(c.statement(inner) for inner in catch_nodes))
    finally_body = tuple(c.statement(inner)
                         for inner in finally_nodes or ())

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        try:
            for statement in try_body:
                statement(interp, scope)
        except _Thrown as thrown:
            if catch_body is None:
                raise
            catch_scope = _Scope(scope)
            if catch_name:
                catch_scope.declare(catch_name, thrown.value)
            for statement in catch_body:
                statement(interp, catch_scope)
        finally:
            for statement in finally_body:
                statement(interp, scope)
    return run


def _c_empty(c, node):
    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
    return run


_STATEMENTS = {
    "expr": _c_expr_statement,
    "var": _c_var,
    "funcdecl": _c_funcdecl,
    "return": _c_return,
    "if": _c_if,
    "block": _c_block,
    "while": _c_while,
    "for": _c_for,
    "forin": _c_forin,
    "break": _c_jump(_Break),
    "continue": _c_jump(_Continue),
    "throw": _c_throw,
    "try": _c_try,
    "empty": _c_empty,
}


# -- expressions --------------------------------------------------------------

def _c_lit(c, node):
    value = node[1]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = float(value)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return value
    return run


def _c_name(c, node):
    name = node[1]

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        while scope is not None:
            variables = scope.vars
            if name in variables:
                return variables[name]
            scope = scope.parent
        raise JsRuntimeError("%s is not defined" % name)
    return run


def _c_this(c, node):
    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        while scope is not None:
            variables = scope.vars
            if "this" in variables:
                return variables["this"]
            scope = scope.parent
        return UNDEFINED
    return run


def _c_array(c, node):
    elements = tuple(c.expression(element) for element in node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return JsArray([element(interp, scope) for element in elements])
    return run


def _c_object(c, node):
    pairs = tuple((key, c.expression(value)) for key, value in node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        obj = JsObject()
        properties = obj.properties
        for key, value in pairs:
            properties[key] = value(interp, scope)
        return obj
    return run


def _c_funcexpr(c, node):
    _, name, params, body = node
    c.function(body)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return JsFunction(name, params, body, scope)
    return run


def _c_member(c, node):
    obj = c.expression(node[1])
    name = node[2]

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        target = obj(interp, scope)
        if type(target) is JsObject:
            return target.properties.get(name, UNDEFINED)
        return interp.get_member(target, name)
    return run


def _c_index(c, node):
    obj = c.expression(node[1])
    index = c.expression(node[2])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        target = obj(interp, scope)
        key = index(interp, scope)
        if type(target) is JsArray and type(key) is float:
            position = int(key)
            elements = target.elements
            if 0 <= position < len(elements):
                return elements[position]
            return UNDEFINED
        return interp.get_index(target, key)
    return run


def _c_call(c, node):
    _, callee_node, arg_nodes = node
    args = tuple(c.expression(arg) for arg in arg_nodes)
    callee_kind = callee_node[0]
    if callee_kind in ("member", "index"):
        # The callee node itself takes no step: its object is evaluated
        # here so the call gets it as ``this``.
        obj = c.expression(callee_node[1])
        if callee_kind == "member":
            name = callee_node[2]

            def method(interp, scope, this):
                return interp.get_member(this, name)
        else:
            index = c.expression(callee_node[2])

            def method(interp, scope, this):
                return interp.get_index(this, index(interp, scope))

        def run(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            this = obj(interp, scope)
            function = method(interp, scope, this)
            values = [arg(interp, scope) for arg in args]
            if type(function) is NativeFunction:
                return function.fn(values, this)
            return interp.call_function(function, values, this)
        return run

    callee = c.expression(callee_node)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        function = callee(interp, scope)
        values = [arg(interp, scope) for arg in args]
        if type(function) is NativeFunction:
            return function.fn(values, UNDEFINED)
        return interp.call_function(function, values)
    return run


def _c_new(c, node):
    callee = c.expression(node[1])
    args = tuple(c.expression(arg) for arg in node[2])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        function = callee(interp, scope)
        values = [arg(interp, scope) for arg in args]
        if isinstance(function, (JsFunction, NativeFunction)):
            this = JsObject()
            result = interp.call_function(function, values, this)
            return result if result is not UNDEFINED else this
        raise JsRuntimeError("not a constructor")
    return run


def _c_assign(c, node):
    _, operator_name, target, value_node = node
    value_of = c.expression(value_node)
    store = c.store(target)
    if operator_name != "=":
        op = _BINARY_OPS[operator_name[:-1]]
        current_of = c.expression(target)

        def run(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            value = value_of(interp, scope)
            value = op(interp, current_of(interp, scope), value)
            store(interp, scope, value)
            return value
        return run

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        value = value_of(interp, scope)
        store(interp, scope, value)
        return value
    return run


def _c_ternary(c, node):
    _, condition_node, true_node, false_node = node
    condition = c.expression(condition_node)
    if_true = c.expression(true_node)
    if_false = c.expression(false_node)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        value = condition(interp, scope)
        if value if type(value) is bool else truthy(value):
            return if_true(interp, scope)
        return if_false(interp, scope)
    return run


def _c_binary(c, node):
    _, operator_name, left_node, right_node = node
    left = c.expression(left_node)
    right = c.expression(right_node)
    if operator_name == "&&":
        def run(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            value = left(interp, scope)
            if value if type(value) is bool else truthy(value):
                return right(interp, scope)
            return value
        return run
    if operator_name == "||":
        def run(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp._max_steps:
                raise JsRuntimeError(_BUDGET_MESSAGE)
            value = left(interp, scope)
            if value if type(value) is bool else truthy(value):
                return value
            return right(interp, scope)
        return run
    op = _BINARY_OPS[operator_name]

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return op(interp, left(interp, scope), right(interp, scope))
    return run


def _c_unary(c, node):
    _, operator_name, operand_node = node
    operand = c.expression(operand_node)
    convert = _UNARY_OPS[operator_name]

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        return convert(operand(interp, scope))
    return run


_UNARY_OPS = {
    "!": lambda value: not (value if type(value) is bool
                            else truthy(value)),
    "-": lambda value: -value if type(value) is float else -to_number(value),
    "+": to_number,
    "~": lambda value: float(~_to_int32(value)),
}


def _c_typeof(c, node):
    operand = c.expression(node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        try:
            value = operand(interp, scope)
        except JsRuntimeError:
            return "undefined"
        return _typeof(value)
    return run


def _c_void(c, node):
    operand = c.expression(node[1])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        operand(interp, scope)
        return UNDEFINED
    return run


def _c_incr(c, node):
    kind, operator_name, target = node
    delta = 1.0 if operator_name == "++" else -1.0
    prefix = kind == "preincr"
    current_of = c.expression(target)
    store = c.store(target)

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        current = to_number(current_of(interp, scope))
        updated = current + delta
        store(interp, scope, updated)
        return updated if prefix else current
    return run


def _c_comma(c, node):
    first = c.expression(node[1])
    second = c.expression(node[2])

    def run(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp._max_steps:
            raise JsRuntimeError(_BUDGET_MESSAGE)
        first(interp, scope)
        return second(interp, scope)
    return run


_EXPRESSIONS = {
    "lit": _c_lit,
    "name": _c_name,
    "this": _c_this,
    "array": _c_array,
    "object": _c_object,
    "funcexpr": _c_funcexpr,
    "member": _c_member,
    "index": _c_index,
    "call": _c_call,
    "new": _c_new,
    "assign": _c_assign,
    "ternary": _c_ternary,
    "binary": _c_binary,
    "unary": _c_unary,
    "typeof": _c_typeof,
    "void": _c_void,
    "preincr": _c_incr,
    "postincr": _c_incr,
    "comma": _c_comma,
}


def _typeof(value):
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JsFunction, NativeFunction)):
        return "function"
    return "object"


def _js_parse_int(args):
    if not args:
        return float("nan")
    text = to_string(args[0]).strip()
    base = int(to_number(args[1])) if len(args) > 1 and truthy(args[1]) else 10
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    for char in text.lower():
        if char in alphabet:
            digits += char
        else:
            break
    if not digits:
        return float("nan")
    return float(sign * int(digits, base))


def _encode_uri_component(text):
    safe = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            "-_.!~*'()")
    out = []
    for char in text:
        if char in safe:
            out.append(char)
        else:
            out.extend("%%%02X" % b for b in char.encode("utf-8"))
    return "".join(out)


def _array_member(array, name):
    if name == "length":
        return float(len(array.elements))
    if name == "push":
        return NativeFunction("push", lambda args, this: (
            array.elements.extend(args), float(len(array.elements))
        )[1])
    if name == "pop":
        return NativeFunction("pop", lambda args, this: (
            array.elements.pop() if array.elements else UNDEFINED))
    if name == "join":
        return NativeFunction("join", lambda args, this: (
            (to_string(args[0]) if args else ",").join(
                to_string(e) for e in array.elements)))
    if name == "indexOf":
        def index_of(args, this):
            needle = args[0] if args else UNDEFINED
            for position, element in enumerate(array.elements):
                if _equals(element, needle):
                    return float(position)
            return -1.0
        return NativeFunction("indexOf", index_of)
    if name == "slice":
        def slice_fn(args, this):
            start = int(to_number(args[0])) if args else 0
            end = int(to_number(args[1])) if len(args) > 1 else None
            return JsArray(array.elements[start:end])
        return NativeFunction("slice", slice_fn)
    if name == "concat":
        def concat(args, this):
            merged = list(array.elements)
            for arg in args:
                if isinstance(arg, JsArray):
                    merged.extend(arg.elements)
                else:
                    merged.append(arg)
            return JsArray(merged)
        return NativeFunction("concat", concat)
    if name == "item":
        def item(args, this):
            position = int(to_number(args[0])) if args else 0
            if 0 <= position < len(array.elements):
                return array.elements[position]
            return None
        return NativeFunction("item", item)
    if name in ("map", "filter", "forEach", "some", "every"):
        return _array_iteration(array, name)
    if name == "reverse":
        def reverse(args, this):
            array.elements.reverse()
            return array
        return NativeFunction("reverse", reverse)
    if name == "sort":
        def sort(args, this):
            array.elements.sort(key=to_string)
            return array
        return NativeFunction("sort", sort)
    return UNDEFINED


def _array_iteration(array, name):
    """Higher-order array methods; the callback is a JsFunction or
    NativeFunction invoked through a private interpreter instance."""

    def runner(args, this):
        if not args:
            raise JsRuntimeError("%s requires a callback" % name)
        callback = args[0]
        engine = JsInterpreter()
        out = []
        for position, element in enumerate(list(array.elements)):
            result = engine.call_function(
                callback, [element, float(position), array]
            )
            if name == "map":
                out.append(result)
            elif name == "filter":
                if truthy(result):
                    out.append(element)
            elif name == "some":
                if truthy(result):
                    return True
            elif name == "every":
                if not truthy(result):
                    return False
        if name == "map" or name == "filter":
            return JsArray(out)
        if name == "some":
            return False
        if name == "every":
            return True
        return UNDEFINED

    return NativeFunction(name, runner)


def _string_member(text, name):
    if name == "length":
        return float(len(text))
    simple = {
        "toLowerCase": lambda args, this: text.lower(),
        "toUpperCase": lambda args, this: text.upper(),
        "trim": lambda args, this: text.strip(),
    }
    if name in simple:
        return NativeFunction(name, simple[name])
    if name == "charCodeAt":
        def char_code_at(args, this):
            position = int(to_number(args[0])) if args else 0
            if 0 <= position < len(text):
                return float(ord(text[position]))
            return float("nan")
        return NativeFunction("charCodeAt", char_code_at)
    if name == "charAt":
        def char_at(args, this):
            position = int(to_number(args[0])) if args else 0
            return text[position] if 0 <= position < len(text) else ""
        return NativeFunction("charAt", char_at)
    if name == "indexOf":
        return NativeFunction("indexOf", lambda args, this: float(
            text.find(to_string(args[0]) if args else "undefined")))
    if name == "substring":
        def substring(args, this):
            start = max(0, int(to_number(args[0]))) if args else 0
            end = (max(0, int(to_number(args[1])))
                   if len(args) > 1 else len(text))
            if start > end:
                start, end = end, start
            return text[start:end]
        return NativeFunction("substring", substring)
    if name == "slice":
        def slice_fn(args, this):
            start = int(to_number(args[0])) if args else 0
            end = int(to_number(args[1])) if len(args) > 1 else None
            return text[start:end]
        return NativeFunction("slice", slice_fn)
    if name == "split":
        def split(args, this):
            if not args:
                return JsArray([text])
            separator = to_string(args[0])
            if separator == "":
                return JsArray(list(text))
            return JsArray(text.split(separator))
        return NativeFunction("split", split)
    if name == "replace":
        return NativeFunction("replace", lambda args, this: text.replace(
            to_string(args[0]), to_string(args[1]), 1))
    if name == "startsWith":
        return NativeFunction("startsWith", lambda args, this: (
            text.startswith(to_string(args[0]) if args else "undefined")))
    if name == "includes":
        return NativeFunction("includes", lambda args, this: (
            to_string(args[0]) in text if args else False))
    return UNDEFINED


def _number_member(number, name):
    if name == "toFixed":
        def to_fixed(args, this):
            digits = int(to_number(args[0])) if args else 0
            return "%.*f" % (digits, number)
        return NativeFunction("toFixed", to_fixed)
    if name == "toString":
        return NativeFunction(
            "toString", lambda args, this: _number_to_string(number)
        )
    return UNDEFINED


def run_script(source, globals_map=None):
    """Convenience: run a script with the given host globals.

    Returns the interpreter (for console output and globals inspection).
    """
    interpreter = JsInterpreter(globals_map)
    interpreter.run(source)
    return interpreter
