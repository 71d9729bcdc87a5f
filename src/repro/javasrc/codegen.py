"""Java source generation from simplified DEX classes.

This is the decompiler's back end: it turns a :class:`~repro.dex.DexClass`
into Java source text that the :mod:`repro.javasrc.parser` can parse back.
The output mimics JADX conventions — a header comment, an import block with
simple names used in code, ``arg0``-style parameter names and linear method
bodies.

Round-trip property relied on by the pipeline: for every class ``c``,
``parse_java(generate_source(c))`` yields a compilation unit whose (single)
class resolves its ``extends`` to ``c.superclass`` and whose method bodies
contain a call for every invoke instruction in ``c``.
"""

from repro.dex.constants import AccessFlag, Opcode

_PRIMITIVES = frozenset(
    "int long short byte char boolean float double void".split()
)

_STRING_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r",
    "\b": "\\b", "\f": "\\f", "\0": "\\0",
}


def _escape_string(value):
    if (value.isascii() and value.isprintable() and '"' not in value
            and "\\" not in value):
        # Printable ASCII without quote or backslash: nothing to escape.
        return '"%s"' % value
    out = []
    for char in value:
        if char in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[char])
        elif ord(char) > 0xFFFF:
            # Java strings are UTF-16: encode astral chars as surrogate pairs.
            value16 = ord(char) - 0x10000
            high = 0xD800 + (value16 >> 10)
            low = 0xDC00 + (value16 & 0x3FF)
            out.append("\\u%04x\\u%04x" % (high, low))
        elif ord(char) < 0x20 or ord(char) >= 0x7F:
            out.append("\\u%04x" % ord(char))
        else:
            out.append(char)
    return '"%s"' % "".join(out)


class _Imports:
    """Tracks imported types and maps qualified names to usable names."""

    def __init__(self, own_class_name):
        self.own_package = (
            own_class_name.rsplit(".", 1)[0] if "." in own_class_name else ""
        )
        self.own_simple = own_class_name.rsplit(".", 1)[-1]
        self.by_simple = {}

    def use(self, qualified):
        """Register a type use; return the name to write in source."""
        if qualified is None:
            return None
        base = qualified
        suffix = ""
        while base.endswith("[]"):
            base = base[:-2]
            suffix += "[]"
        if base in _PRIMITIVES or "." not in base:
            return base + suffix
        package, simple = base.rsplit(".", 1)
        if package == "java.lang":
            return simple + suffix
        if package == self.own_package:
            return simple + suffix
        if simple == self.own_simple:
            return base + suffix  # avoid shadowing the declared class
        existing = self.by_simple.get(simple)
        if existing is None:
            self.by_simple[simple] = base
            return simple + suffix
        if existing == base:
            return simple + suffix
        return base + suffix  # conflicting simple name: stay qualified

    def import_lines(self):
        return sorted(
            "import %s;" % qualified for qualified in self.by_simple.values()
        )


def _modifier_text(flags):
    parts = []
    if flags & AccessFlag.PUBLIC:
        parts.append("public")
    if flags & AccessFlag.PRIVATE:
        parts.append("private")
    if flags & AccessFlag.PROTECTED:
        parts.append("protected")
    if flags & AccessFlag.STATIC:
        parts.append("static")
    if flags & AccessFlag.FINAL:
        parts.append("final")
    if flags & AccessFlag.ABSTRACT:
        parts.append("abstract")
    return parts


class _BodyWriter:
    """Emits statements for one method from its instruction list."""

    def __init__(self, imports, own_class_name):
        self.imports = imports
        self.own_class_name = own_class_name
        self.lines = []
        self.literal_stack = []
        self.receivers = {}        # class name -> local var name
        self.counter = 0

    def fresh_var(self, type_name):
        self.counter += 1
        simple = type_name.rsplit(".", 1)[-1].replace("[]", "")
        return "%s%d" % (simple[:1].lower() + simple[1:], self.counter)

    def pop_args(self, count):
        args = []
        for _ in range(count):
            if self.literal_stack:
                args.append(self.literal_stack.pop())
            else:
                args.append("null")
        args.reverse()
        return args

    def receiver_for(self, class_name):
        if class_name == self.own_class_name:
            return "this"
        var = self.receivers.get(class_name)
        if var is None:
            type_text = self.imports.use(class_name)
            var = self.fresh_var(class_name)
            self.lines.append("%s %s = null;" % (type_text, var))
            self.receivers[class_name] = var
        return var

    def emit(self, instruction):
        opcode = instruction.opcode
        if opcode == Opcode.CONST_STRING:
            self.literal_stack.append(_escape_string(instruction.operand))
        elif opcode == Opcode.CONST_INT:
            self.literal_stack.append(str(instruction.operand))
        elif opcode == Opcode.NEW_INSTANCE:
            class_name = instruction.operand
            type_text = self.imports.use(class_name)
            var = self.fresh_var(class_name)
            self.lines.append("%s %s = new %s();" % (type_text, var, type_text))
            self.receivers[class_name] = var
        elif opcode in (Opcode.INVOKE_VIRTUAL, Opcode.INVOKE_INTERFACE):
            ref = instruction.operand
            args = self.pop_args(len(ref.parameter_types))
            receiver = self.receiver_for(ref.class_name)
            self.lines.append(
                "%s.%s(%s);" % (receiver, ref.method_name, ", ".join(args))
            )
        elif opcode == Opcode.INVOKE_DIRECT:
            ref = instruction.operand
            if ref.method_name == "<init>":
                # Constructor chaining is folded into the `new` expression
                # emitted for the matching NEW_INSTANCE.
                self.pop_args(len(ref.parameter_types))
            else:
                args = self.pop_args(len(ref.parameter_types))
                self.lines.append(
                    "this.%s(%s);" % (ref.method_name, ", ".join(args))
                )
        elif opcode == Opcode.INVOKE_SUPER:
            ref = instruction.operand
            args = self.pop_args(len(ref.parameter_types))
            if ref.method_name == "<init>":
                self.lines.append("super(%s);" % ", ".join(args))
            else:
                self.lines.append(
                    "super.%s(%s);" % (ref.method_name, ", ".join(args))
                )
        elif opcode == Opcode.INVOKE_STATIC:
            ref = instruction.operand
            args = self.pop_args(len(ref.parameter_types))
            type_text = self.imports.use(ref.class_name)
            self.lines.append(
                "%s.%s(%s);" % (type_text, ref.method_name, ", ".join(args))
            )
        elif opcode == Opcode.IGET:
            _, field_name = instruction.operand
            self.literal_stack.append("this.%s" % field_name)
        elif opcode == Opcode.IPUT:
            _, field_name = instruction.operand
            value = self.pop_args(1)[0]
            self.lines.append("this.%s = %s;" % (field_name, value))
        elif opcode == Opcode.SGET:
            class_name, field_name = instruction.operand
            type_text = self.imports.use(class_name)
            self.literal_stack.append("%s.%s" % (type_text, field_name))
        elif opcode == Opcode.SPUT:
            class_name, field_name = instruction.operand
            type_text = self.imports.use(class_name)
            value = self.pop_args(1)[0]
            self.lines.append("%s.%s = %s;" % (type_text, field_name, value))
        elif opcode == Opcode.RETURN_VOID:
            self.lines.append("return;")
        elif opcode == Opcode.RETURN:
            value = self.pop_args(1)[0]
            self.lines.append("return %s;" % value)
        elif opcode == Opcode.THROW:
            self.lines.append("throw new RuntimeException();")
        elif opcode in (Opcode.IF_EQZ, Opcode.IF_NEZ, Opcode.GOTO,
                        Opcode.MOVE, Opcode.MOVE_RESULT, Opcode.NOP):
            # Control flow is not reconstructed; JADX marks such regions
            # with comments, and so do we.
            self.lines.append("// jadx: branch/move elided (+%s)"
                              % opcode.name.lower())


def generate_source(dex_class):
    """Generate Java source text for one DEX class."""
    imports = _Imports(dex_class.name)
    superclass_text = None
    if dex_class.superclass and dex_class.superclass != "java.lang.Object":
        superclass_text = imports.use(dex_class.superclass)
    interface_texts = [imports.use(i) for i in dex_class.interfaces]

    field_lines = []
    for field in dex_class.fields:
        modifiers = _modifier_text(field.flags) or ["private"]
        field_lines.append(
            "    %s %s %s;" % (
                " ".join(modifiers), imports.use(field.type_name), field.name
            )
        )

    method_blocks = []
    for method in dex_class.methods:
        writer = _BodyWriter(imports, dex_class.name)
        for instruction in method.instructions:
            writer.emit(instruction)
        modifiers = _modifier_text(method.flags) or ["public"]
        parameters = ", ".join(
            "%s arg%d" % (imports.use(param), i)
            for i, param in enumerate(method.parameter_types)
        )
        if method.name == "<init>":
            signature = "    %s %s(%s) {" % (
                " ".join(m for m in modifiers if m != "static"),
                dex_class.simple_name,
                parameters,
            )
        elif method.name == "<clinit>":
            signature = "    static {"
            parameters = ""
        else:
            signature = "    %s %s %s(%s) {" % (
                " ".join(modifiers),
                imports.use(method.return_type),
                method.name,
                parameters,
            )
        block = [signature]
        block.extend("        " + line for line in writer.lines)
        block.append("    }")
        method_blocks.append("\n".join(block))

    declaration = "public class %s" % dex_class.simple_name
    if dex_class.flags & AccessFlag.INTERFACE:
        declaration = "public interface %s" % dex_class.simple_name
    elif dex_class.flags & AccessFlag.ABSTRACT:
        declaration = "public abstract class %s" % dex_class.simple_name
    if superclass_text:
        declaration += " extends %s" % superclass_text
    if interface_texts:
        declaration += " implements %s" % ", ".join(interface_texts)

    lines = ["/* Decompiled source. Original: %s */" % dex_class.source_file]
    if dex_class.package:
        lines.append("package %s;" % dex_class.package)
    lines.append("")
    import_lines = imports.import_lines()
    if import_lines:
        lines.extend(import_lines)
        lines.append("")
    lines.append(declaration + " {")
    if field_lines:
        lines.extend(field_lines)
        lines.append("")
    lines.append("\n\n".join(method_blocks))
    lines.append("}")
    return "\n".join(lines) + "\n"
