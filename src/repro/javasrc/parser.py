"""Recursive-descent parser for the Java subset emitted by the decompiler.

Parses compilation units with packages, imports, (inner) classes and
interfaces, fields, and methods. Method bodies are parsed into statements
with a full expression grammar (assignment, ternary, binary precedence,
unary, casts, ``new``, calls, field access, array access), which is what the
pipeline needs to extract every method invocation.

Unknown constructs fail loudly with :class:`~repro.errors.JavaSyntaxError`
rather than being skipped, matching how a real parser forces decompiler
output to stay well-formed.
"""

from repro.errors import JavaSyntaxError
from repro.javasrc.lexer import Token, TokenKind, tokenize
from repro.javasrc import ast

_MODIFIERS = frozenset(
    "public private protected static final abstract native synchronized"
    " transient volatile strictfp default".split()
)

_BINARY_PRECEDENCE = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]

_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)


def parse_java(source):
    """Parse Java source text into a :class:`~repro.javasrc.ast.CompilationUnit`.

    Nesting deeper than the interpreter's recursion limit raises
    :class:`JavaSyntaxError`, caught only here so the hot path pays
    nothing for it.
    """
    try:
        return _Parser(tokenize(source)).parse_compilation_unit()
    except RecursionError:
        raise JavaSyntaxError("nesting too deep") from None


def try_parse_java(source):
    """Parse, returning None on syntax errors instead of raising.

    The paper skips javalang failures per file rather than failing the
    app; this is the entry seam the pipeline (and the per-class facts
    computation) uses for that policy.
    """
    try:
        return parse_java(source)
    except JavaSyntaxError:
        return None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    # -- token helpers ---------------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.position]

    def peek(self, offset=0):
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self):
        token = self.current
        if token.kind != TokenKind.EOF:
            self.position += 1
        return token

    def error(self, message):
        token = self.current
        raise JavaSyntaxError(
            "%s (got %r at %d:%d)" % (message, token.value, token.line,
                                      token.column),
            line=token.line,
            column=token.column,
        )

    def at(self, value):
        return self.current.value == value and self.current.kind in (
            TokenKind.OPERATOR, TokenKind.KEYWORD
        )

    def accept(self, value):
        if self.at(value):
            return self.advance()
        return None

    def expect(self, value):
        if not self.at(value):
            self.error("expected %r" % value)
        return self.advance()

    def at_identifier(self):
        return self.current.kind == TokenKind.IDENTIFIER

    def expect_identifier(self):
        if not self.at_identifier():
            self.error("expected identifier")
        return self.advance().value

    # -- compilation unit -------------------------------------------------------

    def parse_compilation_unit(self):
        package = None
        if self.at("package"):
            self.advance()
            package = self.parse_qualified_name()
            self.expect(";")
        imports = []
        while self.at("import"):
            self.advance()
            self.accept("static")
            name = self.parse_qualified_name()
            if self.accept("."):
                self.expect("*")
                name += ".*"
            self.expect(";")
            imports.append(name)
        types = []
        while self.current.kind != TokenKind.EOF:
            types.append(self.parse_type_decl())
        return ast.CompilationUnit(package, imports, types)

    def parse_qualified_name(self):
        parts = [self.expect_identifier()]
        while self.at(".") and self.peek(1).kind == TokenKind.IDENTIFIER:
            self.advance()
            parts.append(self.expect_identifier())
        return ".".join(parts)

    # -- declarations ------------------------------------------------------------

    def parse_annotations(self):
        while self.at("@"):
            self.advance()
            self.parse_qualified_name()
            if self.at("("):
                self.skip_balanced("(", ")")

    def skip_balanced(self, open_token, close_token):
        self.expect(open_token)
        depth = 1
        while depth > 0:
            if self.current.kind == TokenKind.EOF:
                self.error("unbalanced %r" % open_token)
            if self.at(open_token):
                depth += 1
            elif self.at(close_token):
                depth -= 1
            self.advance()

    def parse_modifiers(self):
        modifiers = []
        while True:
            self.parse_annotations()
            if self.current.kind == TokenKind.KEYWORD and (
                self.current.value in _MODIFIERS
            ):
                modifiers.append(self.advance().value)
            else:
                return modifiers

    def parse_type_decl(self):
        modifiers = self.parse_modifiers()
        if self.at("class"):
            return self.parse_class_body(modifiers, is_interface=False)
        if self.at("interface"):
            return self.parse_class_body(modifiers, is_interface=True)
        if self.at("enum"):
            return self.parse_enum(modifiers)
        self.error("expected type declaration")

    def parse_type_name(self):
        """A type: qualified name with optional generics and array dims."""
        if self.current.kind == TokenKind.KEYWORD and self.current.value in (
            "int", "long", "short", "byte", "char", "boolean", "float",
            "double", "void",
        ):
            name = self.advance().value
        else:
            name = self.parse_qualified_name()
        if self.at("<"):
            self.skip_generics()
        while self.at("[") :
            self.advance()
            self.expect("]")
            name += "[]"
        return name

    def skip_generics(self):
        self.expect("<")
        depth = 1
        while depth > 0:
            if self.current.kind == TokenKind.EOF:
                self.error("unbalanced generics")
            if self.at("<"):
                depth += 1
            elif self.at(">"):
                depth -= 1
            elif self.at(">>"):
                depth -= 2
            elif self.at(">>>"):
                depth -= 3
            self.advance()

    def parse_class_body(self, modifiers, is_interface):
        self.advance()  # 'class' or 'interface'
        name = self.expect_identifier()
        if self.at("<"):
            self.skip_generics()
        extends = None
        implements = []
        if self.accept("extends"):
            extends = self.parse_type_name()
            while is_interface and self.accept(","):
                implements.append(self.parse_type_name())
        if self.accept("implements"):
            implements.append(self.parse_type_name())
            while self.accept(","):
                implements.append(self.parse_type_name())
        self.expect("{")
        fields, methods, inner = [], [], []
        while not self.at("}"):
            if self.current.kind == TokenKind.EOF:
                self.error("unterminated class body")
            for member in self.parse_member(name):
                if isinstance(member, ast.FieldDecl):
                    fields.append(member)
                elif isinstance(member, ast.MethodDecl):
                    methods.append(member)
                elif isinstance(member, ast.ClassDecl):
                    inner.append(member)
        self.expect("}")
        return ast.ClassDecl(
            modifiers, name, extends=extends, implements=implements,
            fields=fields, methods=methods, is_interface=is_interface,
            inner_classes=inner,
        )

    def parse_enum(self, modifiers):
        self.advance()
        name = self.expect_identifier()
        if self.accept("implements"):
            self.parse_type_name()
            while self.accept(","):
                self.parse_type_name()
        self.expect("{")
        # Enum constants (identifiers, optionally with args), until ';' or '}'.
        while self.at_identifier():
            self.advance()
            if self.at("("):
                self.skip_balanced("(", ")")
            if not self.accept(","):
                break
        methods, fields, inner = [], [], []
        if self.accept(";"):
            while not self.at("}"):
                for member in self.parse_member(name):
                    if isinstance(member, ast.FieldDecl):
                        fields.append(member)
                    elif isinstance(member, ast.MethodDecl):
                        methods.append(member)
                    elif isinstance(member, ast.ClassDecl):
                        inner.append(member)
        self.expect("}")
        return ast.ClassDecl(modifiers, name, fields=fields, methods=methods,
                             inner_classes=inner)

    def parse_member(self, class_name):
        """Parse one class member; returns a list (multi-field decls)."""
        modifiers = self.parse_modifiers()
        if self.at("class") or self.at("interface"):
            return [self.parse_class_body(
                modifiers, is_interface=self.at("interface"))]
        if self.at("enum"):
            return [self.parse_enum(modifiers)]
        if self.at("{"):  # static/instance initializer block
            body = self.parse_block()
            return [ast.MethodDecl(modifiers, "void", "<clinit>", [], body)]
        # Constructor: identifier matching class name followed by '('.
        if (
            self.at_identifier()
            and self.current.value == class_name
            and self.peek(1).value == "("
        ):
            self.advance()
            parameters = self.parse_parameters()
            self.skip_throws()
            body = self.parse_block()
            return [ast.MethodDecl(modifiers, None, "<init>", parameters, body)]
        return_type = self.parse_type_name()
        name = self.expect_identifier()
        if self.at("("):
            parameters = self.parse_parameters()
            self.skip_throws()
            if self.accept(";"):
                body = None  # abstract / interface method
            else:
                body = self.parse_block()
            return [ast.MethodDecl(modifiers, return_type, name, parameters,
                                   body)]
        # Field declaration (single or comma-separated); initializer
        # expressions are parsed but not retained.
        if self.accept("="):
            self.parse_expression()
        fields = [ast.FieldDecl(modifiers, return_type, name)]
        while self.accept(","):
            extra = self.expect_identifier()
            if self.accept("="):
                self.parse_expression()
            fields.append(ast.FieldDecl(modifiers, return_type, extra))
        self.expect(";")
        return fields

    def skip_throws(self):
        if self.accept("throws"):
            self.parse_type_name()
            while self.accept(","):
                self.parse_type_name()

    def parse_parameters(self):
        self.expect("(")
        parameters = []
        if not self.at(")"):
            while True:
                self.parse_annotations()
                self.accept("final")
                type_name = self.parse_type_name()
                if self.accept("..."):
                    type_name += "[]"
                name = self.expect_identifier()
                while self.at("["):
                    self.advance()
                    self.expect("]")
                    type_name += "[]"
                parameters.append((type_name, name))
                if not self.accept(","):
                    break
        self.expect(")")
        return parameters

    # -- statements ----------------------------------------------------------------

    def parse_block(self):
        self.expect("{")
        statements = []
        while not self.at("}"):
            if self.current.kind == TokenKind.EOF:
                self.error("unterminated block")
            statements.append(self.parse_statement())
        self.expect("}")
        return statements

    def parse_statement(self):
        if self.at("{"):
            # Flatten nested blocks into an if(true)-style wrapper-free list:
            # represent as statements of an IfStatement with constant true?
            # Simpler: return them inline via a synthetic if.
            body = self.parse_block()
            return ast.IfStatement(ast.Literal(True, "boolean"), body)
        if self.at("return"):
            self.advance()
            expr = None
            if not self.at(";"):
                expr = self.parse_expression()
            self.expect(";")
            return ast.ReturnStatement(expr)
        if self.at("throw"):
            self.advance()
            expr = self.parse_expression()
            self.expect(";")
            return ast.ThrowStatement(expr)
        if self.at("if"):
            return self.parse_if()
        if self.at(";"):
            self.advance()
            return ast.ExpressionStatement(ast.Literal(None, "null"))
        # Local variable declaration vs expression statement: try to detect
        # "Type name" / "Type name =".
        if self.looks_like_local_declaration():
            type_name = self.parse_type_name()
            name = self.expect_identifier()
            while self.at("["):
                self.advance()
                self.expect("]")
                type_name += "[]"
            init = None
            if self.accept("="):
                init = self.parse_expression()
            self.expect(";")
            return ast.LocalVariable(type_name, name, init)
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExpressionStatement(expr)

    def looks_like_local_declaration(self):
        """Heuristic lookahead: <type> <identifier> ( '=' | ';' | '[' )."""
        if self.current.kind == TokenKind.KEYWORD and self.current.value in (
            "int", "long", "short", "byte", "char", "boolean", "float",
            "double",
        ):
            return True
        if self.current.kind != TokenKind.IDENTIFIER:
            return False
        offset = 0
        # Qualified name.
        while True:
            if self.peek(offset).kind != TokenKind.IDENTIFIER:
                return False
            offset += 1
            if self.peek(offset).value == "." and (
                self.peek(offset + 1).kind == TokenKind.IDENTIFIER
            ):
                offset += 1
                continue
            break
        # Optional generics.
        if self.peek(offset).value == "<":
            depth = 1
            offset += 1
            while depth > 0:
                token = self.peek(offset)
                if token.kind == TokenKind.EOF:
                    return False
                if token.value == "<":
                    depth += 1
                elif token.value == ">":
                    depth -= 1
                elif token.value == ">>":
                    depth -= 2
                offset += 1
        # Optional array dims.
        while self.peek(offset).value == "[" and self.peek(offset + 1).value == "]":
            offset += 2
        token = self.peek(offset)
        if token.kind != TokenKind.IDENTIFIER:
            return False
        following = self.peek(offset + 1).value
        return following in ("=", ";", "[")

    def parse_if(self):
        self.expect("if")
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        then_body = (
            self.parse_block() if self.at("{") else [self.parse_statement()]
        )
        else_body = None
        if self.accept("else"):
            if self.at("if"):
                else_body = [self.parse_if()]
            elif self.at("{"):
                else_body = self.parse_block()
            else:
                else_body = [self.parse_statement()]
        return ast.IfStatement(condition, then_body, else_body)

    # -- expressions ----------------------------------------------------------------

    def parse_expression(self):
        return self.parse_assignment()

    def parse_assignment(self):
        left = self.parse_ternary()
        if self.current.kind == TokenKind.OPERATOR and (
            self.current.value in _ASSIGN_OPS
        ):
            operator = self.advance().value
            right = self.parse_assignment()
            return ast.Assignment(left, operator, right)
        return left

    def parse_ternary(self):
        condition = self.parse_binary(0)
        if self.accept("?"):
            if_true = self.parse_expression()
            self.expect(":")
            if_false = self.parse_expression()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    def parse_binary(self, level):
        if level >= len(_BINARY_PRECEDENCE):
            return self.parse_unary()
        operators = _BINARY_PRECEDENCE[level]
        left = self.parse_binary(level + 1)
        while self.current.value in operators and self.current.kind in (
            TokenKind.OPERATOR, TokenKind.KEYWORD
        ):
            operator = self.advance().value
            if operator == "instanceof":
                right = ast.Name(self.parse_type_name())
            else:
                right = self.parse_binary(level + 1)
            left = ast.Binary(operator, left, right)
        return left

    def parse_unary(self):
        if self.current.value in ("!", "-", "+", "~", "++", "--") and (
            self.current.kind == TokenKind.OPERATOR
        ):
            operator = self.advance().value
            return ast.Unary(operator, self.parse_unary())
        # Cast: '(' Type ')' followed by a primary-start token.
        if self.at("(") and self.is_cast_ahead():
            self.expect("(")
            type_name = self.parse_type_name()
            self.expect(")")
            return ast.Cast(type_name, self.parse_unary())
        return self.parse_postfix()

    def is_cast_ahead(self):
        """Lookahead for '(' Type ')' <operand>."""
        offset = 1
        token = self.peek(offset)
        if token.kind == TokenKind.KEYWORD and token.value in (
            "int", "long", "short", "byte", "char", "boolean", "float",
            "double",
        ):
            offset += 1
        elif token.kind == TokenKind.IDENTIFIER:
            offset += 1
            while self.peek(offset).value == "." and (
                self.peek(offset + 1).kind == TokenKind.IDENTIFIER
            ):
                offset += 2
        else:
            return False
        while self.peek(offset).value == "[" and self.peek(offset + 1).value == "]":
            offset += 2
        if self.peek(offset).value != ")":
            return False
        after = self.peek(offset + 1)
        return (
            after.kind in (TokenKind.IDENTIFIER, TokenKind.STRING,
                           TokenKind.INT, TokenKind.FLOAT, TokenKind.CHAR)
            or after.value in ("(", "new", "this", "super", "!", "~")
        )

    def parse_postfix(self):
        expr = self.parse_primary()
        while True:
            if self.at(".") :
                self.advance()
                name = self.expect_identifier_or_keyword()
                if self.at("("):
                    args = self.parse_arguments()
                    expr = ast.MethodCall(expr, name, args)
                else:
                    expr = ast.FieldAccess(expr, name)
                continue
            if self.at("["):
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ast.ArrayAccess(expr, index)
                continue
            if self.current.value in ("++", "--") and (
                self.current.kind == TokenKind.OPERATOR
            ):
                operator = self.advance().value
                expr = ast.Unary("post" + operator, expr)
                continue
            return expr

    def expect_identifier_or_keyword(self):
        if self.current.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
            return self.advance().value
        self.error("expected member name")

    def parse_arguments(self):
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.parse_expression())
            while self.accept(","):
                args.append(self.parse_expression())
        self.expect(")")
        return args

    def parse_primary(self):
        token = self.current
        if token.kind == TokenKind.STRING:
            self.advance()
            return ast.Literal(token.value, "String")
        if token.kind == TokenKind.CHAR:
            self.advance()
            return ast.Literal(token.value, "char")
        if token.kind == TokenKind.INT:
            self.advance()
            return ast.Literal(_parse_int(token.value), "int")
        if token.kind == TokenKind.FLOAT:
            self.advance()
            return ast.Literal(float(token.value.rstrip("fFdD")), "double")
        if self.at("true") or self.at("false"):
            value = self.advance().value == "true"
            return ast.Literal(value, "boolean")
        if self.at("null"):
            self.advance()
            return ast.Literal(None, "null")
        if self.at("this"):
            self.advance()
            if self.at("("):
                args = self.parse_arguments()
                return ast.MethodCall(None, "this", args)
            return ast.Name(["this"])
        if self.at("super"):
            self.advance()
            if self.at("("):
                args = self.parse_arguments()
                return ast.MethodCall(None, "super", args)
            self.expect(".")
            name = self.expect_identifier()
            if self.at("("):
                args = self.parse_arguments()
                return ast.MethodCall(ast.Name(["super"]), name, args)
            return ast.FieldAccess(ast.Name(["super"]), name)
        if self.at("new"):
            self.advance()
            type_name = self.parse_type_name()
            if self.at("("):
                args = self.parse_arguments()
                if self.at("{"):  # anonymous class body
                    self.skip_balanced("{", "}")
                return ast.New(type_name, args)
            if self.at("["):
                self.advance()
                if not self.at("]"):
                    self.parse_expression()
                self.expect("]")
                while self.at("["):
                    self.advance()
                    self.expect("]")
                if self.at("{"):
                    self.skip_balanced("{", "}")
                return ast.New(type_name + "[]", [])
            self.error("expected '(' or '[' after new")
        if self.at("("):
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if token.kind == TokenKind.IDENTIFIER:
            name = self.advance().value
            if self.at("("):
                args = self.parse_arguments()
                return ast.MethodCall(None, name, args)
            return ast.Name([name])
        self.error("unexpected token in expression")


def _parse_int(text):
    text = text.rstrip("lL").replace("_", "")
    if text.lower().startswith("0x"):
        return int(text, 16)
    return int(text)
