"""Binary Android XML (AXML) — simplified.

Real APKs store ``AndroidManifest.xml`` in a binary XML encoding with a
string pool; decompilers such as JADX convert it back to text. This module
implements an equivalent: an element tree (:class:`XmlElement`) with a
binary encoding (:func:`encode_axml` / :func:`decode_axml`) and a text
serializer (:meth:`XmlElement.to_xml`).

Binary layout (little-endian):

    magic        4 bytes  (b"AXx\\x01")
    string_count u32
    strings      repeated (u16 length, utf-8)
    element tree recursive:
        tag_index   u32
        attr_count  u16
        attrs       repeated (u32 name_index, u32 value_index)
        child_count u16
        children    recursive
"""

import struct

from repro.errors import ManifestError

AXML_MAGIC = b"AXx\x01"

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


class XmlElement:
    """An XML element: tag, ordered attributes, children, optional text."""

    def __init__(self, tag, attrs=None, children=None, text=None):
        self.tag = tag
        self.attrs = dict(attrs or {})
        self.children = list(children or [])
        self.text = text

    def add(self, child):
        self.children.append(child)
        return child

    def get(self, name, default=None):
        return self.attrs.get(name, default)

    def find_all(self, tag):
        """Return direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def find(self, tag):
        matches = self.find_all(tag)
        return matches[0] if matches else None

    def iter(self):
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            for element in child.iter():
                yield element

    def to_xml(self, indent=0):
        """Serialize to human-readable XML text (as JADX would output)."""
        pad = "    " * indent
        attr_text = "".join(
            ' %s="%s"' % (k, _escape(v)) for k, v in self.attrs.items()
        )
        if not self.children and not self.text:
            return "%s<%s%s/>" % (pad, self.tag, attr_text)
        parts = ["%s<%s%s>" % (pad, self.tag, attr_text)]
        if self.text:
            parts.append("    " * (indent + 1) + _escape(self.text))
        for child in self.children:
            parts.append(child.to_xml(indent + 1))
        parts.append("%s</%s>" % (pad, self.tag))
        return "\n".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, XmlElement)
            and self.tag == other.tag
            and self.attrs == other.attrs
            and self.children == other.children
        )

    def __repr__(self):
        return "XmlElement(%r, %d attrs, %d children)" % (
            self.tag, len(self.attrs), len(self.children)
        )


def _escape(value):
    return (
        str(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Pool:
    def __init__(self):
        self.strings = []
        self.index = {}

    def intern(self, value):
        value = str(value)
        if value not in self.index:
            self.index[value] = len(self.strings)
            self.strings.append(value)
        return self.index[value]


def _collect(element, pool):
    pool.intern(element.tag)
    for name, value in element.attrs.items():
        pool.intern(name)
        pool.intern(value)
    for child in element.children:
        _collect(child, pool)


def _encode_element(element, pool, out):
    out.append(_U32.pack(pool.intern(element.tag)))
    out.append(_U16.pack(len(element.attrs)))
    for name, value in element.attrs.items():
        out.append(_U32.pack(pool.intern(name)))
        out.append(_U32.pack(pool.intern(value)))
    out.append(_U16.pack(len(element.children)))
    for child in element.children:
        _encode_element(child, pool, out)


def encode_axml(root):
    """Encode an :class:`XmlElement` tree to binary AXML bytes."""
    pool = _Pool()
    _collect(root, pool)
    body = []
    _encode_element(root, pool, body)
    header = [AXML_MAGIC, _U32.pack(len(pool.strings))]
    for value in pool.strings:
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ManifestError("attribute string too long")
        header.append(_U16.pack(len(encoded)))
        header.append(encoded)
    return b"".join(header + body)


class _Cursor:
    def __init__(self, data, offset):
        self.data = data
        self.offset = offset

    def u16(self):
        try:
            (value,) = _U16.unpack_from(self.data, self.offset)
        except struct.error as exc:
            raise ManifestError("truncated axml: %s" % exc)
        self.offset += 2
        return value

    def u32(self):
        try:
            (value,) = _U32.unpack_from(self.data, self.offset)
        except struct.error as exc:
            raise ManifestError("truncated axml: %s" % exc)
        self.offset += 4
        return value

    def raw(self, length):
        chunk = self.data[self.offset: self.offset + length]
        if len(chunk) != length:
            raise ManifestError("truncated axml string data")
        self.offset += length
        return chunk


def _decode_element(cursor, strings):
    try:
        tag = strings[cursor.u32()]
        attr_count = cursor.u16()
        attrs = {}
        for _ in range(attr_count):
            name = strings[cursor.u32()]
            value = strings[cursor.u32()]
            attrs[name] = value
        child_count = cursor.u16()
    except IndexError:
        raise ManifestError("axml string index out of range")
    element = XmlElement(tag, attrs)
    for _ in range(child_count):
        element.children.append(_decode_element(cursor, strings))
    return element


def decode_axml(data):
    """Decode binary AXML bytes back into an :class:`XmlElement` tree."""
    if not data.startswith(AXML_MAGIC):
        raise ManifestError("bad axml magic")
    cursor = _Cursor(data, len(AXML_MAGIC))
    string_count = cursor.u32()
    strings = []
    for _ in range(string_count):
        length = cursor.u16()
        try:
            strings.append(cursor.raw(length).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ManifestError("undecodable axml string: %s" % exc)
    return _decode_element(cursor, strings)
