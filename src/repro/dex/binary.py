"""Binary (de)serialization for the simplified DEX format.

Layout (all integers little-endian):

    magic            6 bytes  (b"sdex\\x01\\x00")
    string_pool_len  u32
    string_pool      repeated (u16 length, utf-8 bytes)
    class_count      u32
    classes          repeated class records

String-bearing fields (class names, method names, descriptors, string
constants) are stored as u32 indexes into the shared string pool, like a
real DEX file's string_ids section.
"""

import struct

from repro.dex.constants import (
    CLASS_MAGIC,
    DEX_MAGIC,
    INVOKE_OPCODES,
    Opcode,
    AccessFlag,
)
from repro.dex.model import (
    DexClass,
    DexField,
    DexFile,
    DexMethod,
    Instruction,
    MethodRef,
)
from repro.errors import DexError
from repro.util import sha256_hex

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
_U32X2 = struct.Struct("<II")
_U32X3 = struct.Struct("<III")

#: Opcode dispatch for the deserializer hot loop: a dict lookup is far
#: cheaper than the enum constructor's ``Opcode(value)`` protocol.
_OPCODE_BY_VALUE = {int(opcode): opcode for opcode in Opcode}


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, value):
        self.parts.append(bytes([value & 0xFF]))

    def u16(self, value):
        self.parts.append(_U16.pack(value))

    def u32(self, value):
        self.parts.append(_U32.pack(value))

    def i32(self, value):
        self.parts.append(_I32.pack(value))

    def raw(self, data):
        self.parts.append(data)

    def getvalue(self):
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.offset = 0

    def u8(self):
        value = self.data[self.offset]
        self.offset += 1
        return value

    def u16(self):
        (value,) = _U16.unpack_from(self.data, self.offset)
        self.offset += 2
        return value

    def u32(self):
        (value,) = _U32.unpack_from(self.data, self.offset)
        self.offset += 4
        return value

    def i32(self):
        (value,) = _I32.unpack_from(self.data, self.offset)
        self.offset += 4
        return value

    def raw(self, length):
        chunk = self.data[self.offset: self.offset + length]
        if len(chunk) != length:
            raise DexError("truncated dex data")
        self.offset += length
        return chunk


class _StringPool:
    def __init__(self):
        self.strings = []
        self.index = {}

    def intern(self, value):
        if value in self.index:
            return self.index[value]
        position = len(self.strings)
        self.strings.append(value)
        self.index[value] = position
        return position


def _collect_strings(dex_file, pool):
    for dex_class in dex_file.classes:
        pool.intern(dex_class.name)
        pool.intern(dex_class.superclass or "java.lang.Object")
        pool.intern(dex_class.source_file)
        for interface in dex_class.interfaces:
            pool.intern(interface)
        for field in dex_class.fields:
            pool.intern(field.name)
            pool.intern(field.type_name)
        for method in dex_class.methods:
            pool.intern(method.name)
            pool.intern(method.descriptor)
            for instruction in method.instructions:
                operand = instruction.operand
                if isinstance(operand, MethodRef):
                    pool.intern(operand.class_name)
                    pool.intern(operand.method_name)
                    pool.intern(operand.descriptor)
                elif isinstance(operand, str):
                    pool.intern(operand)


def _write_instruction(writer, pool, instruction):
    writer.u8(int(instruction.opcode))
    operand = instruction.operand
    if instruction.opcode.is_invoke:
        writer.u32(pool.intern(operand.class_name))
        writer.u32(pool.intern(operand.method_name))
        writer.u32(pool.intern(operand.descriptor))
    elif instruction.opcode in (Opcode.CONST_STRING, Opcode.NEW_INSTANCE):
        writer.u32(pool.intern(operand))
    elif instruction.opcode in (Opcode.CONST_INT, Opcode.IF_EQZ,
                                Opcode.IF_NEZ, Opcode.GOTO):
        writer.i32(int(operand or 0))
    elif instruction.opcode in (Opcode.IGET, Opcode.IPUT,
                                Opcode.SGET, Opcode.SPUT):
        class_name, field_name = operand
        writer.u32(pool.intern(class_name))
        writer.u32(pool.intern(field_name))
    else:
        # No operand: NOP, RETURN*, THROW, MOVE, MOVE_RESULT.
        pass


def _read_instruction(reader, strings):
    try:
        opcode = Opcode(reader.u8())
    except ValueError as exc:
        raise DexError("unknown opcode: %s" % exc)
    if opcode.is_invoke:
        ref = MethodRef(
            strings[reader.u32()], strings[reader.u32()], strings[reader.u32()]
        )
        return Instruction(opcode, ref)
    if opcode in (Opcode.CONST_STRING, Opcode.NEW_INSTANCE):
        return Instruction(opcode, strings[reader.u32()])
    if opcode in (Opcode.CONST_INT, Opcode.IF_EQZ, Opcode.IF_NEZ, Opcode.GOTO):
        return Instruction(opcode, reader.i32())
    if opcode in (Opcode.IGET, Opcode.IPUT, Opcode.SGET, Opcode.SPUT):
        return Instruction(opcode, (strings[reader.u32()], strings[reader.u32()]))
    return Instruction(opcode)


def _write_class_record(body, pool, dex_class):
    """One class record, interning its strings into ``pool``."""
    body.u32(pool.intern(dex_class.name))
    body.u32(pool.intern(dex_class.superclass or "java.lang.Object"))
    body.u32(pool.intern(dex_class.source_file))
    body.u32(int(dex_class.flags))
    body.u16(len(dex_class.interfaces))
    for interface in dex_class.interfaces:
        body.u32(pool.intern(interface))
    body.u16(len(dex_class.fields))
    for field in dex_class.fields:
        body.u32(pool.intern(field.name))
        body.u32(pool.intern(field.type_name))
        body.u32(int(field.flags))
    body.u16(len(dex_class.methods))
    for method in dex_class.methods:
        body.u32(pool.intern(method.name))
        body.u32(pool.intern(method.descriptor))
        body.u32(int(method.flags))
        body.u32(len(method.instructions))
        for instruction in method.instructions:
            _write_instruction(body, pool, instruction)


def _write_string_pool(writer, pool):
    writer.u32(len(pool.strings))
    for value in pool.strings:
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DexError("string too long for pool: %d bytes" % len(encoded))
        writer.u16(len(encoded))
        writer.raw(encoded)


def serialize_dex(dex_file):
    """Serialize a :class:`DexFile` to bytes."""
    pool = _StringPool()
    _collect_strings(dex_file, pool)

    body = _Writer()
    body.u32(len(dex_file.classes))
    for dex_class in dex_file.classes:
        _write_class_record(body, pool, dex_class)

    header = _Writer()
    header.raw(DEX_MAGIC)
    _write_string_pool(header, pool)
    return header.getvalue() + body.getvalue()


#: Operand-shape opcode groups, hoisted for the serialize_class hot loop.
_INT_OPERAND_OPCODES = frozenset(
    (Opcode.CONST_INT, Opcode.IF_EQZ, Opcode.IF_NEZ, Opcode.GOTO)
)
_STRING_OPERAND_OPCODES = frozenset(
    (Opcode.CONST_STRING, Opcode.NEW_INSTANCE)
)
_FIELD_OPERAND_OPCODES = frozenset(
    (Opcode.IGET, Opcode.IPUT, Opcode.SGET, Opcode.SPUT)
)


def serialize_class(dex_class):
    """Canonical encoding of a single class, for content addressing.

    Same record layout as :func:`serialize_dex` but with a class-local
    string pool (interned in record-write order), so the bytes depend
    only on the class itself — never on sibling classes sharing a DEX
    file's pool. Two classes with equal canonical bytes are equal in
    every field the analysis pipeline reads.

    This runs once per class per APK on the pipeline's hot path (the
    cache key must be recomputed even on a hit), so it is hand-inlined
    rather than layered on :class:`_Writer`/:class:`_StringPool`.
    """
    strings = []
    index = {}
    pack_u16 = _U16.pack
    pack_u32 = _U32.pack
    pack_i32 = _I32.pack
    invoke_ops = INVOKE_OPCODES
    int_ops = _INT_OPERAND_OPCODES
    string_ops = _STRING_OPERAND_OPCODES
    field_ops = _FIELD_OPERAND_OPCODES

    def intern(value):
        position = index.get(value)
        if position is None:
            position = len(strings)
            index[value] = position
            strings.append(value)
        return position

    body = bytearray()
    body += pack_u32(intern(dex_class.name))
    body += pack_u32(intern(dex_class.superclass or "java.lang.Object"))
    body += pack_u32(intern(dex_class.source_file))
    body += pack_u32(int(dex_class.flags))
    body += pack_u16(len(dex_class.interfaces))
    for interface in dex_class.interfaces:
        body += pack_u32(intern(interface))
    body += pack_u16(len(dex_class.fields))
    for field in dex_class.fields:
        body += pack_u32(intern(field.name))
        body += pack_u32(intern(field.type_name))
        body += pack_u32(int(field.flags))
    body += pack_u16(len(dex_class.methods))
    for method in dex_class.methods:
        body += pack_u32(intern(method.name))
        body += pack_u32(intern(method.descriptor))
        body += pack_u32(int(method.flags))
        instructions = method.instructions
        body += pack_u32(len(instructions))
        for instruction in instructions:
            opcode = instruction.opcode
            body.append(opcode & 0xFF)
            if opcode in invoke_ops:
                operand = instruction.operand
                body += pack_u32(intern(operand.class_name))
                body += pack_u32(intern(operand.method_name))
                body += pack_u32(intern(operand.descriptor))
            elif opcode in string_ops:
                body += pack_u32(intern(instruction.operand))
            elif opcode in int_ops:
                body += pack_i32(int(instruction.operand or 0))
            elif opcode in field_ops:
                class_name, field_name = instruction.operand
                body += pack_u32(intern(class_name))
                body += pack_u32(intern(field_name))

    header = bytearray(CLASS_MAGIC)
    header += pack_u32(len(strings))
    for value in strings:
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DexError("string too long for pool: %d bytes"
                           % len(encoded))
        header += pack_u16(len(encoded))
        header += encoded
    return bytes(header + body)


def class_digest(dex_class):
    """SHA-256 hex digest of a class's canonical encoding."""
    return sha256_hex(serialize_class(dex_class))


def deserialize_dex(data):
    """Parse bytes produced by :func:`serialize_dex` back into a DexFile.

    This is the first thing the analysis pipeline does to every APK, so
    the inner loops are hand-inlined: direct ``unpack_from`` on a local
    offset instead of :class:`_Reader` method calls, dict-based opcode
    dispatch instead of the enum constructor, and a trusted-path
    :class:`Instruction` build that skips re-validating operand shapes
    the wire format already guarantees.
    """
    if not data.startswith(DEX_MAGIC):
        raise DexError("bad dex magic")
    u16 = _U16.unpack_from
    u32 = _U32.unpack_from
    i32 = _I32.unpack_from
    u32x2 = _U32X2.unpack_from
    u32x3 = _U32X3.unpack_from
    opcode_by_value = _OPCODE_BY_VALUE
    invoke_ops = INVOKE_OPCODES
    string_ops = _STRING_OPERAND_OPCODES
    int_ops = _INT_OPERAND_OPCODES
    field_ops = _FIELD_OPERAND_OPCODES
    new_instruction = Instruction.__new__
    flag_cache = {}
    offset = len(DEX_MAGIC)
    try:
        (string_count,) = u32(data, offset)
        offset += 4
        strings = []
        for _ in range(string_count):
            (length,) = u16(data, offset)
            offset += 2
            chunk = data[offset: offset + length]
            if len(chunk) != length:
                raise DexError("truncated dex data")
            offset += length
            strings.append(chunk.decode("utf-8"))
        (class_count,) = u32(data, offset)
        offset += 4
        classes = []
        for _ in range(class_count):
            name_i, super_i, source_i = u32x3(data, offset)
            (flags_value,) = u32(data, offset + 12)
            offset += 16
            flags = flag_cache.get(flags_value)
            if flags is None:
                flags = flag_cache[flags_value] = AccessFlag(flags_value)
            (interface_count,) = u16(data, offset)
            offset += 2
            interfaces = []
            for _ in range(interface_count):
                (interface_i,) = u32(data, offset)
                offset += 4
                interfaces.append(strings[interface_i])
            (field_count,) = u16(data, offset)
            offset += 2
            fields = []
            for _ in range(field_count):
                field_name_i, type_i = u32x2(data, offset)
                (field_flags,) = u32(data, offset + 8)
                offset += 12
                fields.append(
                    DexField(strings[field_name_i], strings[type_i],
                             AccessFlag(field_flags))
                )
            (method_count,) = u16(data, offset)
            offset += 2
            methods = []
            for _ in range(method_count):
                method_name_i, descriptor_i = u32x2(data, offset)
                method_flags, instruction_count = u32x2(data, offset + 8)
                offset += 16
                instructions = []
                for _ in range(instruction_count):
                    opcode_value = data[offset]
                    offset += 1
                    opcode = opcode_by_value.get(opcode_value)
                    if opcode is None:
                        raise DexError("unknown opcode: %d" % opcode_value)
                    if opcode in invoke_ops:
                        class_i, ref_name_i, descr_i = u32x3(data, offset)
                        offset += 12
                        operand = MethodRef(strings[class_i],
                                            strings[ref_name_i],
                                            strings[descr_i])
                    elif opcode in string_ops:
                        (operand_i,) = u32(data, offset)
                        offset += 4
                        operand = strings[operand_i]
                    elif opcode in int_ops:
                        (operand,) = i32(data, offset)
                        offset += 4
                    elif opcode in field_ops:
                        class_i, field_i = u32x2(data, offset)
                        offset += 8
                        operand = (strings[class_i], strings[field_i])
                    else:
                        operand = None
                    instruction = new_instruction(Instruction)
                    instruction.opcode = opcode
                    instruction.operand = operand
                    instructions.append(instruction)
                method_flag = flag_cache.get(method_flags)
                if method_flag is None:
                    method_flag = flag_cache[method_flags] = (
                        AccessFlag(method_flags)
                    )
                methods.append(
                    DexMethod(strings[method_name_i], strings[descriptor_i],
                              method_flag, instructions)
                )
            classes.append(
                DexClass(
                    strings[name_i],
                    superclass=strings[super_i],
                    interfaces=interfaces,
                    flags=flags,
                    fields=fields,
                    methods=methods,
                    source_file=strings[source_i],
                )
            )
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise DexError("corrupt dex data: %s" % exc)
    return DexFile(classes)
