"""Golden bytes for the DEX record encoder.

The digests below were computed before the class-record and string-pool
writers were shared between :func:`serialize_dex` and
:func:`serialize_class`. They pin the wire format end to end: a change
that reorders the DEX string pool, or a record field, changes every
APK's sha256 and every class digest the caches are keyed by.
"""

import pytest

from repro.apk.container import DEX_ENTRY, read_apk
from repro.apk.zipio import ZipReader
from repro.corpus import CorpusConfig, build_app_apk
from repro.corpus.profiles import build_spec
from repro.dex import (
    AccessFlag,
    DexClass,
    DexField,
    DexFile,
    DexMethod,
    Instruction,
    Opcode,
    class_digest,
    deserialize_dex,
    serialize_dex,
)
from repro.sdk import build_catalog
from repro.util import sha256_hex

#: Spec index in ``CorpusConfig(universe_size=400, seed=11)`` -> sha256
#: of ``build_app_apk(spec, seed=0)``. 317 bundles AppLovin and Facebook,
#: whose endpoint classes carry static-field operands.
APK_DIGESTS = {
    4: "1db12532a015f84be307b449aa27f28089eb2cf1c1e9e230a1454090ae1a612c",
    36: "e88585ae4a5ecce0c207a7782906de73e1e3175dfec0315311ce0585a59aec82",
    298: "4a858691f73a2f8a55e073d82fd2f02db41e1b1888918a987bd355f794d2051b",
    317: "13b9ed00d3bf4f11b4a5348b5775ae7f82a45838eb02ad2cc632ca315f34471c",
}

#: Class digests from spec 317's APK.
CLASS_DIGESTS = {
    "com.applovin.internal.WebPresenter":
        "bedf9bdad3ac25690358072aba5286d10d71dba121b49eefeddc0f0bb56c372d",
    "com.applovin.net.Endpoints":
        "6c5eb1f34588bb6599d30b09f1686071fdc1365de2b4f3c861dae3837fe3aa89",
}


#: ``serialize_dex`` / ``class_digest`` of :func:`_forward_field_dex`.
FORWARD_FIELD_DEX = (
    "918e63be1f01c873f6a3c88864313d08bdb696938e464a51913bc83f673cfe14")
FORWARD_FIELD_READER = (
    "bcb4c103b18a699b9067aa17cea6b224a5cdcdb043a9a7955f3ac768317f8a96")


def _forward_field_dex():
    """Field operands naming a class and fields not interned before them.

    The DEX pool interns every other string first and field operands
    after, so this file's pool order differs from the record order the
    class-local pool of ``serialize_class`` uses.
    """
    read = DexMethod("read", "()void", AccessFlag.PUBLIC, [
        Instruction(Opcode.SGET, ("com.x.Config", "URL")),
        Instruction(Opcode.CONST_STRING, "https://a.example/"),
        Instruction(Opcode.IPUT, ("com.x.Reader", "cached")),
        Instruction(Opcode.RETURN_VOID),
    ])
    return DexFile([
        DexClass("com.x.Reader", methods=[read]),
        DexClass("com.x.Config",
                 fields=[DexField("URL", "java.lang.String")]),
    ])


@pytest.fixture(scope="module")
def specs():
    catalog = build_catalog()
    config = CorpusConfig(universe_size=400, seed=11)
    return {index: build_spec(config, catalog, index)
            for index in APK_DIGESTS}


@pytest.fixture(scope="module")
def sdk_apk(specs):
    return build_app_apk(specs[317], seed=0)


@pytest.mark.parametrize("index", sorted(APK_DIGESTS))
def test_apk_bytes_pinned(specs, index):
    assert sha256_hex(build_app_apk(specs[index], seed=0)) == (
        APK_DIGESTS[index])


def test_dex_roundtrip_is_byte_identical(sdk_apk):
    dex_bytes = ZipReader(sdk_apk).read(DEX_ENTRY)
    dex_file = deserialize_dex(dex_bytes)
    assert serialize_dex(dex_file) == dex_bytes
    again = deserialize_dex(serialize_dex(dex_file))
    assert [dex_class.name for dex_class in again.classes] == [
        dex_class.name for dex_class in dex_file.classes]
    assert [class_digest(dex_class) for dex_class in again.classes] == [
        class_digest(dex_class) for dex_class in dex_file.classes]


@pytest.mark.parametrize("name", sorted(CLASS_DIGESTS))
def test_class_digest_pinned(sdk_apk, name):
    dex_class = read_apk(sdk_apk).dex.class_by_name(name)
    assert class_digest(dex_class) == CLASS_DIGESTS[name]


def test_field_operands_keep_the_dex_pool_order():
    dex_file = _forward_field_dex()
    data = serialize_dex(dex_file)
    assert sha256_hex(data) == FORWARD_FIELD_DEX
    assert class_digest(dex_file.classes[0]) == FORWARD_FIELD_READER
    assert serialize_dex(deserialize_dex(data)) == data
