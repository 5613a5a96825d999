"""Reader and writer for a functional-style ontology syntax subset.

One `Ontology(<name> ...)` block per file; axioms use the OWL 2
functional-syntax keywords for the class and object-property constructs
this model supports. Annotations are skipped (with a logged count), data
properties and role chains are rejected as unsupported. `#` starts a
comment outside IRIs and strings.

Entity kinds come from declarations; in lenient mode (the default) an
undeclared name takes its kind from first use, in strict mode it is an
error. IRIs are reduced to their local fragment: the part after `#`, or
after the last `/`, or after the last `:` for prefixed names.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .model import (
    And,
    AtLeast,
    AtMost,
    Axiom,
    BOTTOM,
    BottomType,
    Concept,
    ConceptName,
    DisjointClasses,
    Domain,
    EquivalentClasses,
    EquivalentRoles,
    Exists,
    ForAll,
    Inverse,
    InverseRoles,
    Not,
    OneOf,
    Ontology,
    Or,
    Range,
    Role,
    RoleName,
    Signature,
    SubClassOf,
    SubRoleOf,
    TOP,
    TopType,
    Transitive,
    UniversalRoleType,
    EmptyRoleType,
    normalize_axiom,
    normalize_role,
    signature_of,
)

__all__ = [
    "ParseErrorKind",
    "ParseError",
    "ParseFailure",
    "parse_ontology",
    "serialize_ontology",
    "parse_signature",
]

log = logging.getLogger(__name__)

# Forms nest at most this deep (the Ontology block is depth 1; atoms count),
# so the recursive walks over a concept stay inside Python's default limit:
# the deepest, printing, runs out near depth 225 at the top of the stack.
MAX_NESTING = 160

_OWL_THING_IRIS = {"owl:Thing", "<http://www.w3.org/2002/07/owl#Thing>"}
_OWL_NOTHING_IRIS = {"owl:Nothing", "<http://www.w3.org/2002/07/owl#Nothing>"}

_ANNOTATION_KEYWORDS = {
    "AnnotationAssertion",
    "SubAnnotationPropertyOf",
    "AnnotationPropertyDomain",
    "AnnotationPropertyRange",
    "Annotation",
}


class ParseErrorKind(Enum):
    SYNTAX = "Syntax"
    UNSUPPORTED_CONSTRUCT = "UnsupportedConstruct"
    UNKNOWN_ENTITY = "UnknownEntity"


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    kind: ParseErrorKind
    construct: str | None = None

    def __str__(self):
        return f"{self.line}:{self.column}: {self.kind.value}: {self.message}"


class ParseFailure(Exception):
    """Raised when parsing produced one or more errors."""

    def __init__(self, errors: list[ParseError]):
        self.errors = sorted(errors, key=lambda e: (e.line, e.column))
        super().__init__("; ".join(str(e) for e in self.errors))


class _Halt(Exception):
    """Internal: abandon the current top-level form after recording an error."""


# ---------------------------------------------------------------------------
# Tokenizer and generic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


_PUNCT = "()"


def _tokenize(text: str, errors: list[ParseError]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(_Token(ch, start_line, start_col))
            advance(1)
            continue
        if ch == "<":
            j = text.find(">", i)
            if j < 0:
                errors.append(
                    ParseError(start_line, start_col, "unterminated IRI", ParseErrorKind.SYNTAX)
                )
                return tokens
            tokens.append(_Token(text[i : j + 1], start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                errors.append(
                    ParseError(start_line, start_col, "unterminated string", ParseErrorKind.SYNTAX)
                )
                return tokens
            tokens.append(_Token(text[i : j + 1], start_line, start_col))
            advance(j + 1 - i)
            continue
        j = i
        while j < n and text[j] not in ' \t\r\n()"<':
            j += 1
        tokens.append(_Token(text[i:j], start_line, start_col))
        advance(j - i)
    return tokens


@dataclass(frozen=True)
class _Form:
    """Either an atom (children is None) or `head(child ...)`."""

    head: _Token
    children: tuple["_Form", ...] | None

    @property
    def is_atom(self) -> bool:
        return self.children is None


class _Reader:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def read_form(self, depth: int = 1) -> _Form:
        t = self.next()
        if t is None:
            raise _ReaderError("unexpected end of input", self._last_pos())
        if depth > MAX_NESTING:
            raise _ReaderError(f"forms nested deeper than {MAX_NESTING}", (t.line, t.column))
        if t.text == ")":
            raise _ReaderError("unexpected ')'", (t.line, t.column))
        if t.text == "(":
            raise _ReaderError("'(' must follow a keyword", (t.line, t.column))
        nxt = self.peek()
        if nxt is not None and nxt.text == "(":
            self.next()
            children = []
            while True:
                cur = self.peek()
                if cur is None:
                    raise _ReaderError(
                        f"unbalanced parenthesis in {t.text}(...)", self._last_pos()
                    )
                if cur.text == ")":
                    self.next()
                    break
                children.append(self.read_form(depth + 1))
            return _Form(t, tuple(children))
        return _Form(t, None)

    def _last_pos(self) -> tuple[int, int]:
        if self.tokens:
            t = self.tokens[-1]
            return (t.line, t.column)
        return (1, 1)


class _ReaderError(Exception):
    def __init__(self, message: str, pos: tuple[int, int]):
        self.message = message
        self.pos = pos
        super().__init__(message)


# ---------------------------------------------------------------------------
# Entity names
# ---------------------------------------------------------------------------

def _local_name(token: str) -> str:
    """Reduce an IRI or prefixed name to its local fragment."""
    if token.startswith("<") and token.endswith(">"):
        inner = token[1:-1]
        if "#" in inner:
            return inner.rsplit("#", 1)[1]
        return inner.rsplit("/", 1)[-1]
    if ":" in token:
        return token.rsplit(":", 1)[1]
    return token


_KIND_LABEL = {"C": "class", "R": "object property", "I": "individual"}


class _NameTable:
    def __init__(self, strict: bool, errors: list[ParseError]):
        self.strict = strict
        self.errors = errors
        self.kinds: dict[str, str] = {}

    def declare(self, name: str, kind: str, tok: _Token):
        self._bind(name, kind, tok, declared=True)

    def use(self, name: str, kind: str, tok: _Token) -> None:
        self._bind(name, kind, tok, declared=False)

    def _bind(self, name, kind, tok, declared):
        known = self.kinds.get(name)
        if known is None:
            if self.strict and not declared:
                self.errors.append(
                    ParseError(
                        tok.line,
                        tok.column,
                        f"'{name}' used without declaration",
                        ParseErrorKind.UNKNOWN_ENTITY,
                    )
                )
                raise _Halt()
            self.kinds[name] = kind
        elif known != kind:
            self.errors.append(
                ParseError(
                    tok.line,
                    tok.column,
                    f"'{name}' used both as {_KIND_LABEL[known]} and {_KIND_LABEL[kind]}",
                    ParseErrorKind.UNKNOWN_ENTITY,
                )
            )
            raise _Halt()

    def signature(self) -> Signature:
        return Signature(
            frozenset(n for n, k in self.kinds.items() if k == "C"),
            frozenset(n for n, k in self.kinds.items() if k == "R"),
            frozenset(n for n, k in self.kinds.items() if k == "I"),
        )


# ---------------------------------------------------------------------------
# Ontology parsing
# ---------------------------------------------------------------------------

def parse_ontology(text: str, strict: bool = False) -> Ontology:
    """Parse one ontology block. Raises `ParseFailure` carrying every
    collected error when the input is not clean."""
    errors: list[ParseError] = []
    tokens = _tokenize(text, errors)
    if errors:
        raise ParseFailure(errors)
    reader = _Reader(tokens)
    names = _NameTable(strict, errors)
    axioms: list[Axiom] = []
    name = ""
    skipped_annotations = 0

    try:
        form = reader.read_form()
        while form.head.text == "Prefix" and not form.is_atom:
            form = reader.read_form()
    except _ReaderError as exc:
        errors.append(
            ParseError(exc.pos[0], exc.pos[1], exc.message, ParseErrorKind.SYNTAX)
        )
        raise ParseFailure(errors)

    if form.is_atom or form.head.text != "Ontology":
        errors.append(
            ParseError(
                form.head.line,
                form.head.column,
                "expected an Ontology(...) block",
                ParseErrorKind.SYNTAX,
            )
        )
        raise ParseFailure(errors)

    children = list(form.children)
    if children and children[0].is_atom:
        name = _local_name(children[0].head.text)
        children = children[1:]

    if reader.peek() is not None:
        trailing = reader.peek()
        errors.append(
            ParseError(
                trailing.line,
                trailing.column,
                "content after the Ontology block",
                ParseErrorKind.SYNTAX,
            )
        )

    for child in children:
        try:
            parsed = _parse_axiom_form(child, names)
        except _Halt:
            continue
        if parsed is _SKIPPED:
            skipped_annotations += 1
            continue
        axioms.extend(map(normalize_axiom, parsed))

    if errors:
        raise ParseFailure(errors)
    if skipped_annotations:
        log.warning("skipped %d annotation construct(s)", skipped_annotations)
    return Ontology(tuple(axioms), name=name, declared=names.signature())


_SKIPPED = object()


def _syntax_error(tok: _Token, message: str, names: _NameTable):
    names.errors.append(
        ParseError(tok.line, tok.column, message, ParseErrorKind.SYNTAX)
    )
    raise _Halt()


def _unsupported(tok: _Token, names: _NameTable, construct: str | None = None):
    construct = construct or tok.text
    names.errors.append(
        ParseError(
            tok.line,
            tok.column,
            f"unsupported construct '{construct}'",
            ParseErrorKind.UNSUPPORTED_CONSTRUCT,
            construct=construct,
        )
    )
    raise _Halt()


def _strip_annotations(children: tuple[_Form, ...]) -> tuple[_Form, ...]:
    return tuple(
        c for c in children if c.is_atom or c.head.text != "Annotation"
    )


def _parse_axiom_form(form: _Form, names: _NameTable):
    head = form.head
    if form.is_atom:
        _syntax_error(head, f"expected an axiom, found '{head.text}'", names)
    if head.text in _ANNOTATION_KEYWORDS:
        return _SKIPPED
    args = _strip_annotations(form.children)

    if head.text == "Declaration":
        if len(args) != 1 or args[0].is_atom or len(args[0].children) != 1:
            _syntax_error(head, "malformed Declaration", names)
        decl = args[0]
        entity = decl.children[0]
        if not entity.is_atom:
            _syntax_error(entity.head, "expected an entity name", names)
        ent_name = _local_name(entity.head.text)
        kind_kw = decl.head.text
        if kind_kw == "Class":
            names.declare(ent_name, "C", entity.head)
        elif kind_kw == "ObjectProperty":
            names.declare(ent_name, "R", entity.head)
        elif kind_kw == "NamedIndividual":
            names.declare(ent_name, "I", entity.head)
        elif kind_kw == "AnnotationProperty":
            return _SKIPPED
        else:
            _unsupported(decl.head, names)
        return []

    if head.text == "SubClassOf":
        if len(args) != 2:
            _syntax_error(head, "SubClassOf takes two class expressions", names)
        return [SubClassOf(_parse_concept(args[0], names), _parse_concept(args[1], names))]

    if head.text == "EquivalentClasses":
        if len(args) < 2:
            _syntax_error(head, "EquivalentClasses takes at least two class expressions", names)
        concepts = [_parse_concept(a, names) for a in args]
        return [
            EquivalentClasses(concepts[i], concepts[i + 1])
            for i in range(len(concepts) - 1)
        ]

    if head.text == "DisjointClasses":
        if len(args) < 2:
            _syntax_error(head, "DisjointClasses takes at least two class expressions", names)
        concepts = [_parse_concept(a, names) for a in args]
        return [
            DisjointClasses(concepts[i], concepts[j])
            for i in range(len(concepts))
            for j in range(i + 1, len(concepts))
        ]

    if head.text == "SubObjectPropertyOf":
        if len(args) != 2:
            _syntax_error(head, "SubObjectPropertyOf takes two property expressions", names)
        if not args[0].is_atom and args[0].head.text == "ObjectPropertyChain":
            _unsupported(args[0].head, names)
        return [SubRoleOf(_parse_role(args[0], names), _parse_role(args[1], names))]

    if head.text == "EquivalentObjectProperties":
        if len(args) < 2:
            _syntax_error(head, "EquivalentObjectProperties takes at least two properties", names)
        roles = [_parse_role(a, names) for a in args]
        return [
            EquivalentRoles(roles[i], roles[i + 1]) for i in range(len(roles) - 1)
        ]

    if head.text == "InverseObjectProperties":
        if len(args) != 2:
            _syntax_error(head, "InverseObjectProperties takes two property expressions", names)
        return [InverseRoles(_parse_role(args[0], names), _parse_role(args[1], names))]

    if head.text == "TransitiveObjectProperty":
        if len(args) != 1:
            _syntax_error(head, "TransitiveObjectProperty takes one property expression", names)
        return [Transitive(_parse_role(args[0], names))]

    if head.text == "ObjectPropertyDomain":
        if len(args) != 2:
            _syntax_error(head, "ObjectPropertyDomain takes a property and a class", names)
        return [Domain(_parse_role(args[0], names), _parse_concept(args[1], names))]

    if head.text == "ObjectPropertyRange":
        if len(args) != 2:
            _syntax_error(head, "ObjectPropertyRange takes a property and a class", names)
        return [Range(_parse_role(args[0], names), _parse_concept(args[1], names))]

    _unsupported(head, names)


def _parse_role(form: _Form, names: _NameTable) -> Role:
    if form.is_atom:
        name = _local_name(form.head.text)
        names.use(name, "R", form.head)
        return RoleName(name)
    if form.head.text == "ObjectInverseOf":
        if len(form.children) != 1:
            _syntax_error(form.head, "ObjectInverseOf takes one property expression", names)
        return normalize_role(Inverse(_parse_role(form.children[0], names)))
    _unsupported(form.head, names)


def _parse_cardinality(form: _Form, names: _NameTable) -> tuple[int, Role, Concept]:
    args = form.children
    if len(args) not in (2, 3) or not args[0].is_atom:
        _syntax_error(form.head, f"malformed {form.head.text}", names)
    try:
        n = int(args[0].head.text)
    except ValueError:
        n = -1
    if n < 0:
        _syntax_error(args[0].head, "cardinality must be a non-negative integer", names)
    role = _parse_role(args[1], names)
    filler = _parse_concept(args[2], names) if len(args) == 3 else TOP
    return n, role, filler


def _parse_concept(form: _Form, names: _NameTable) -> Concept:
    head = form.head
    if form.is_atom:
        if head.text in _OWL_THING_IRIS:
            return TOP
        if head.text in _OWL_NOTHING_IRIS:
            return BOTTOM
        name = _local_name(head.text)
        names.use(name, "C", head)
        return ConceptName(name)

    kw = head.text
    args = form.children
    if kw == "ObjectIntersectionOf":
        if len(args) < 2:
            _syntax_error(head, "ObjectIntersectionOf takes at least two classes", names)
        return And(tuple(_parse_concept(a, names) for a in args))
    if kw == "ObjectUnionOf":
        if len(args) < 2:
            _syntax_error(head, "ObjectUnionOf takes at least two classes", names)
        return Or(tuple(_parse_concept(a, names) for a in args))
    if kw == "ObjectComplementOf":
        if len(args) != 1:
            _syntax_error(head, "ObjectComplementOf takes one class", names)
        return Not(_parse_concept(args[0], names))
    if kw == "ObjectSomeValuesFrom":
        if len(args) != 2:
            _syntax_error(head, "ObjectSomeValuesFrom takes a property and a class", names)
        return Exists(_parse_role(args[0], names), _parse_concept(args[1], names))
    if kw == "ObjectAllValuesFrom":
        if len(args) != 2:
            _syntax_error(head, "ObjectAllValuesFrom takes a property and a class", names)
        return ForAll(_parse_role(args[0], names), _parse_concept(args[1], names))
    if kw == "ObjectMinCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return AtLeast(n, role, filler)
    if kw == "ObjectMaxCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return AtMost(n, role, filler)
    if kw == "ObjectExactCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return And((AtLeast(n, role, filler), AtMost(n, role, filler)))
    if kw == "ObjectOneOf":
        if len(args) != 1 or not args[0].is_atom:
            _unsupported(head, names, construct="ObjectOneOf with more than one individual")
        ind = _local_name(args[0].head.text)
        names.use(ind, "I", args[0].head)
        return OneOf(ind)
    if kw == "ObjectHasValue":
        if len(args) != 2 or not args[1].is_atom:
            _syntax_error(head, "ObjectHasValue takes a property and an individual", names)
        ind = _local_name(args[1].head.text)
        names.use(ind, "I", args[1].head)
        return Exists(_parse_role(args[0], names), OneOf(ind))
    _unsupported(head, names)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_ontology(o: Ontology) -> str:
    """Emit the functional-style text form; `parse_ontology` of the result
    reproduces the ontology structurally."""
    lines = [f"Ontology({o.name}" if o.name else "Ontology("]
    declared = o.declared | signature_of(o)
    for n in sorted(declared.concept_names):
        lines.append(f"  Declaration(Class({n}))")
    for n in sorted(declared.role_names):
        lines.append(f"  Declaration(ObjectProperty({n}))")
    for n in sorted(declared.individual_names):
        lines.append(f"  Declaration(NamedIndividual({n}))")
    for a in o.axioms:
        lines.append(f"  {_ser_axiom(a)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _ser_axiom(a: Axiom) -> str:
    if isinstance(a, SubClassOf):
        return f"SubClassOf({_ser_concept(a.sub)} {_ser_concept(a.sup)})"
    if isinstance(a, EquivalentClasses):
        return f"EquivalentClasses({_ser_concept(a.left)} {_ser_concept(a.right)})"
    if isinstance(a, DisjointClasses):
        return f"DisjointClasses({_ser_concept(a.left)} {_ser_concept(a.right)})"
    if isinstance(a, SubRoleOf):
        return f"SubObjectPropertyOf({_ser_role(a.sub)} {_ser_role(a.sup)})"
    if isinstance(a, EquivalentRoles):
        return f"EquivalentObjectProperties({_ser_role(a.left)} {_ser_role(a.right)})"
    if isinstance(a, InverseRoles):
        return f"InverseObjectProperties({_ser_role(a.left)} {_ser_role(a.right)})"
    if isinstance(a, Transitive):
        return f"TransitiveObjectProperty({_ser_role(a.role)})"
    if isinstance(a, Domain):
        return f"ObjectPropertyDomain({_ser_role(a.role)} {_ser_concept(a.filler)})"
    if isinstance(a, Range):
        return f"ObjectPropertyRange({_ser_role(a.role)} {_ser_concept(a.filler)})"
    raise TypeError(f"not an axiom: {a!r}")


def _ser_concept(c: Concept) -> str:
    if isinstance(c, TopType):
        return "owl:Thing"
    if isinstance(c, BottomType):
        return "owl:Nothing"
    if isinstance(c, ConceptName):
        return c.name
    if isinstance(c, OneOf):
        return f"ObjectOneOf({c.individual})"
    if isinstance(c, Not):
        return f"ObjectComplementOf({_ser_concept(c.arg)})"
    if isinstance(c, And):
        return "ObjectIntersectionOf(" + " ".join(_ser_concept(a) for a in c.args) + ")"
    if isinstance(c, Or):
        return "ObjectUnionOf(" + " ".join(_ser_concept(a) for a in c.args) + ")"
    if isinstance(c, Exists):
        return f"ObjectSomeValuesFrom({_ser_role(c.role)} {_ser_concept(c.filler)})"
    if isinstance(c, ForAll):
        return f"ObjectAllValuesFrom({_ser_role(c.role)} {_ser_concept(c.filler)})"
    if isinstance(c, AtLeast):
        return f"ObjectMinCardinality({c.n} {_ser_role(c.role)} {_ser_concept(c.filler)})"
    if isinstance(c, AtMost):
        return f"ObjectMaxCardinality({c.n} {_ser_role(c.role)} {_ser_concept(c.filler)})"
    raise TypeError(f"not a concept: {c!r}")


def _ser_role(r: Role) -> str:
    if isinstance(r, RoleName):
        return r.name
    if isinstance(r, Inverse):
        return f"ObjectInverseOf({_ser_role(r.role)})"
    if isinstance(r, (EmptyRoleType, UniversalRoleType)):
        raise ValueError("substitution constants have no surface syntax")
    raise TypeError(f"not a role: {r!r}")


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

def parse_signature(text: str, against: Ontology) -> Signature:
    """Parse a newline-separated signature file. Entries may carry a
    `C:`/`R:`/`I:` kind prefix; unprefixed names are resolved against the
    ontology's declarations and used names."""
    table = against.names
    kinds: dict[str, str] = {}
    for n in table.concept_names:
        kinds[n] = "C"
    for n in table.role_names:
        kinds[n] = "R"
    for n in table.individual_names:
        kinds[n] = "I"

    errors: list[ParseError] = []
    concepts: set[str] = set()
    roles: set[str] = set()
    individuals: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        if entry[:2] in ("C:", "R:", "I:"):
            kind, name = entry[0], _local_name(entry[2:].strip())
        else:
            name = _local_name(entry)
            kind = kinds.get(name)
            if kind is None:
                errors.append(
                    ParseError(
                        lineno,
                        1,
                        f"'{name}' does not occur in ontology '{against.name}'",
                        ParseErrorKind.UNKNOWN_ENTITY,
                    )
                )
                continue
        {"C": concepts, "R": roles, "I": individuals}[kind].add(name)
    if errors:
        raise ParseFailure(errors)
    return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))
