"""Reader and writer for a functional-style ontology syntax subset.

One `Ontology(<name> ...)` block per file; axioms use the OWL 2
functional-syntax keywords for the class and object-property constructs
this model supports. Annotations are skipped (with a logged count), data
properties and role chains are rejected as unsupported. `#` starts a
comment outside IRIs and strings.

Reading takes two passes, neither recursive: one regular expression
splits the text into (token, offset) pairs, and one loop with a stack of
open forms groups them into `keyword(child ...)` forms. An error's line
and column are worked out from its offset only when it is recorded.
A form then becomes a term through the reader its keyword has in the
table of its position (axiom, class or property). Most readers are built
from an entry giving the constructor, the argument kinds and the text of
the count error; writing looks each term's type up in one formatter table
and keeps each axiom's line in the table its source shares (`Ontology.texts`).

Entity kinds come from declarations; in lenient mode (the default) an
undeclared name takes its kind from first use, in strict mode it is an
error. IRIs are reduced to their local fragment: the part after `#`, or
after the last `/`, or after the last `:` for prefixed names.
"""

from __future__ import annotations

import logging
import re
from bisect import bisect_left
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
    exactly,
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

# Forms nest at most this deep (the Ontology block is depth 1; atoms count).
# Reading needs no such limit, but the recursive walks over a parsed
# concept must stay inside Python's default limit: the deepest, printing,
# runs out near depth 225 at the top of the stack.
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
# Tokens and generic forms
# ---------------------------------------------------------------------------

# Whitespace and `#` comments, then one token: a parenthesis, an IRI, a
# string, or a word; a `<` or `"` that starts no IRI or string is
# unterminated. A word ends at whitespace, a parenthesis, `"` or `<`.
_TOKEN = re.compile(
    r'(?:[ \t\r\n]|#[^\n]*)*'
    r'(?:([()]|<[^>]*>|"(?:[^"\\]|\\[\s\S])*"|[^ \t\r\n()"<#][^ \t\r\n()"<]*)|([<"])|\Z)'
)
_UNTERMINATED = {"<": "unterminated IRI", '"': "unterminated string"}


def _tokenize(text: str, names: _NameTable) -> list[tuple[str, int]]:
    """(text, offset) of each token; records and stops at an unterminated
    IRI or string."""
    tokens = []
    for m in _TOKEN.finditer(text):
        token = m.group(1)
        if token is not None:
            tokens.append((token, m.start(1)))
        elif m.group(2) is not None:
            names.error(m.start(2), _UNTERMINATED[m.group(2)])
            break
    return tokens


class _Form:
    """An atom (children is None) or `text(child ...)`, at the offset of
    its first token."""

    __slots__ = ("text", "offset", "children")

    def __init__(self, text: str, offset: int, children: list | None = None):
        self.text = text
        self.offset = offset
        self.children = children

    @property
    def is_atom(self) -> bool:
        return self.children is None


def _read_form(tokens: list[tuple[str, int]], i: int, names: _NameTable) -> tuple[_Form, int]:
    """Read the form that starts at tokens[i]; return it and the index of
    the token after it. Open forms wait on a stack, so nesting costs no
    recursion."""
    stack: list[_Form] = []
    while True:
        if i == len(tokens):
            last = tokens[-1][1] if tokens else 0
            if stack:
                names.error(last, f"unbalanced parenthesis in {stack[-1].text}(...)")
            else:
                names.error(last, "unexpected end of input")
            raise _Halt()
        text, offset = tokens[i]
        i += 1
        if stack and text == ")":
            form = stack.pop()
        else:
            if len(stack) >= MAX_NESTING:
                names.error(offset, f"forms nested deeper than {MAX_NESTING}")
                raise _Halt()
            if text == ")":
                names.error(offset, "unexpected ')'")
                raise _Halt()
            if text == "(":
                names.error(offset, "'(' must follow a keyword")
                raise _Halt()
            if i < len(tokens) and tokens[i][0] == "(":
                stack.append(_Form(text, offset, []))
                i += 1
                continue
            form = _Form(text, offset)
        if not stack:
            return form, i
        stack[-1].children.append(form)


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


def _conflict(name: str, known: str, kind: str) -> str:
    return f"'{name}' used both as {_KIND_LABEL[known]} and {_KIND_LABEL[kind]}"


class _NameTable:
    """Entity kinds, and the errors recorded at offsets into `text`."""

    def __init__(self, text: str, strict: bool):
        self.text = text
        self.strict = strict
        self.errors: list[ParseError] = []
        self.kinds: dict[str, str] = {}
        self.breaks: list[int] | None = None  # offsets of the line breaks

    def error(
        self,
        offset: int,
        message: str,
        kind: ParseErrorKind = ParseErrorKind.SYNTAX,
        construct: str | None = None,
    ) -> None:
        if self.breaks is None:
            self.breaks = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.breaks, offset)
        column = offset - self.breaks[line - 1] if line else offset + 1
        self.errors.append(ParseError(line + 1, column, message, kind, construct))

    def use(self, name: str, kind: str, form: _Form, declared: bool = False) -> None:
        known = self.kinds.get(name)
        if known is None:
            if self.strict and not declared:
                self.error(
                    form.offset,
                    f"'{name}' used without declaration",
                    ParseErrorKind.UNKNOWN_ENTITY,
                )
                raise _Halt()
            self.kinds[name] = kind
        elif known != kind:
            self.error(form.offset, _conflict(name, known, kind), ParseErrorKind.UNKNOWN_ENTITY)
            raise _Halt()


# ---------------------------------------------------------------------------
# Ontology parsing
# ---------------------------------------------------------------------------

def parse_ontology(text: str, strict: bool = False) -> Ontology:
    """Parse one ontology block. Raises `ParseFailure` carrying every
    collected error when the input is not clean."""
    names = _NameTable(text, strict)
    errors = names.errors
    tokens = _tokenize(text, names)
    if errors:
        raise ParseFailure(errors)
    axioms: list[Axiom] = []
    name = ""
    skipped_annotations = 0

    try:
        form, i = _read_form(tokens, 0, names)
        while form.text == "Prefix" and not form.is_atom:
            form, i = _read_form(tokens, i, names)
    except _Halt:
        raise ParseFailure(errors)

    if form.is_atom or form.text != "Ontology":
        names.error(form.offset, "expected an Ontology(...) block")
        raise ParseFailure(errors)

    children = form.children
    if children and children[0].is_atom:
        name = _local_name(children[0].text)
        children = children[1:]

    if i < len(tokens):
        names.error(tokens[i][1], "content after the Ontology block")

    for child in children:
        try:
            parsed = _parse_axiom_form(child, names)
        except _Halt:
            continue
        if parsed is _SKIPPED:
            skipped_annotations += 1
            continue
        axioms.extend(parsed)

    if errors:
        raise ParseFailure(errors)
    if skipped_annotations:
        log.warning("skipped %d annotation construct(s)", skipped_annotations)
    return Ontology(tuple(axioms), name=name, declared=Signature.of_kinds(names.kinds))


_SKIPPED = object()


def _syntax_error(form: _Form, message: str, names: _NameTable):
    names.error(form.offset, message)
    raise _Halt()


def _unsupported(form: _Form, names: _NameTable, construct: str | None = None):
    construct = construct or form.text
    kind = ParseErrorKind.UNSUPPORTED_CONSTRUCT
    names.error(form.offset, f"unsupported construct '{construct}'", kind, construct)
    raise _Halt()


def _unknown_form(form: _Form, args: list[_Form], names: _NameTable):
    _unsupported(form, names)


def _parse_axiom_form(form: _Form, names: _NameTable):
    kw = form.text
    if form.is_atom:
        _syntax_error(form, f"expected an axiom, found '{kw}'", names)
    if kw in _ANNOTATION_KEYWORDS:
        return _SKIPPED
    args = [c for c in form.children if c.is_atom or c.text != "Annotation"]
    return _AXIOMS.get(kw, _unknown_form)(form, args, names)


def _parse_role(form: _Form, names: _NameTable) -> Role:
    if form.is_atom:
        name = _local_name(form.text)
        names.use(name, "R", form)
        return RoleName(name)
    return _ROLES.get(form.text, _unknown_form)(form, form.children, names)


def _parse_concept(form: _Form, names: _NameTable) -> Concept:
    kw = form.text
    if form.is_atom:
        if kw in _OWL_THING_IRIS:
            return TOP
        if kw in _OWL_NOTHING_IRIS:
            return BOTTOM
        name = _local_name(kw)
        names.use(name, "C", form)
        return ConceptName(name)
    return _CONCEPTS.get(kw, _unknown_form)(form, form.children, names)


_READ = {"C": _parse_concept, "R": _parse_role}


def _reader(keyword: str, build, kinds: str, takes: str):
    """The reader of `keyword(...)` forms: it checks the argument count,
    reads each argument by its kind and passes them, in order, to `build`.
    `kinds` has one letter per argument, `C` for a class expression and
    `R` for a property expression; `C+` and `R+` take two or more."""
    message = f"{keyword} takes {takes}"
    read, second = _READ[kinds[0]], _READ.get(kinds[1:])
    if kinds[1:] == "+":
        def reader(form, args, names):
            if len(args) < 2:
                _syntax_error(form, message, names)
            return build(*[read(a, names) for a in args])
    elif second is None:
        def reader(form, args, names):
            if len(args) != 1:
                _syntax_error(form, message, names)
            return build(read(args[0], names))
    else:
        def reader(form, args, names):
            if len(args) != 2:
                _syntax_error(form, message, names)
            return build(read(args[0], names), second(args[1], names))
    return reader


def _read_declaration(form: _Form, args: list[_Form], names: _NameTable):
    if len(args) != 1 or args[0].is_atom or len(args[0].children) != 1:
        _syntax_error(form, "malformed Declaration", names)
    decl = args[0]
    entity = decl.children[0]
    if not entity.is_atom:
        _syntax_error(entity, "expected an entity name", names)
    if decl.text == "AnnotationProperty":
        return _SKIPPED
    kind = _DECLARED_KINDS.get(decl.text)
    if kind is None:
        _unsupported(decl, names)
    names.use(_local_name(entity.text), kind, entity, declared=True)
    return []


_DECLARED_KINDS = {"Class": "C", "ObjectProperty": "R", "NamedIndividual": "I"}
_DIGITS = re.compile(r"[0-9]+")


def _cardinality(build):
    """The reader of a cardinality form, `keyword(n role [class])`."""

    def reader(form, args, names):
        if len(args) not in (2, 3) or not args[0].is_atom:
            _syntax_error(form, f"malformed {form.text}", names)
        try:  # OWL's nonNegativeInteger: ASCII digits only, no sign or `_`
            n = int(args[0].text) if _DIGITS.fullmatch(args[0].text) else -1
        except ValueError:  # more digits than `int` converts
            n = -1
        if n < 0:
            _syntax_error(args[0], "cardinality must be a non-negative integer", names)
        role = _parse_role(args[1], names)
        return build(n, role, _parse_concept(args[2], names) if len(args) == 3 else TOP)

    return reader


def _read_one_of(form: _Form, args: list[_Form], names: _NameTable) -> Concept:
    if len(args) != 1 or not args[0].is_atom:
        _unsupported(form, names, construct="ObjectOneOf with more than one individual")
    ind = _local_name(args[0].text)
    names.use(ind, "I", args[0])
    return OneOf(ind)


def _read_has_value(form: _Form, args: list[_Form], names: _NameTable) -> Concept:
    if len(args) != 2 or not args[1].is_atom:
        _syntax_error(form, "ObjectHasValue takes a property and an individual", names)
    ind = _local_name(args[1].text)
    names.use(ind, "I", args[1])
    return Exists(_parse_role(args[0], names), OneOf(ind))


def _one(build):
    return lambda *xs: [build(*xs)]


def _chain(build):
    return lambda *xs: [build(x, y) for x, y in zip(xs, xs[1:])]


def _pairs(build):
    return lambda *xs: [build(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]


def _readers(table: dict, **own) -> dict:
    """Each keyword's reader: one built from the keyword's (constructor,
    argument kinds, what it takes) entry, or its own."""
    return {**{kw: _reader(kw, *entry) for kw, entry in table.items()}, **own}


# An axiom reader returns a list: n-ary forms and Declaration read to any
# number of axioms.
_AXIOMS = _readers(
    {
        "SubClassOf": (_one(SubClassOf), "CC", "two class expressions"),
        "EquivalentClasses": (_chain(EquivalentClasses), "C+", "at least two class expressions"),
        "DisjointClasses": (_pairs(DisjointClasses), "C+", "at least two class expressions"),
        "SubObjectPropertyOf": (_one(SubRoleOf), "RR", "two property expressions"),
        "EquivalentObjectProperties": (_chain(EquivalentRoles), "R+", "at least two properties"),
        "InverseObjectProperties": (_one(InverseRoles), "RR", "two property expressions"),
        "TransitiveObjectProperty": (_one(Transitive), "R", "one property expression"),
        "ObjectPropertyDomain": (_one(Domain), "RC", "a property and a class"),
        "ObjectPropertyRange": (_one(Range), "RC", "a property and a class"),
    },
    Declaration=_read_declaration,
)
_CONCEPTS = _readers(
    {
        "ObjectIntersectionOf": (lambda *cs: And(cs), "C+", "at least two classes"),
        "ObjectUnionOf": (lambda *cs: Or(cs), "C+", "at least two classes"),
        "ObjectComplementOf": (Not, "C", "one class"),
        "ObjectSomeValuesFrom": (Exists, "RC", "a property and a class"),
        "ObjectAllValuesFrom": (ForAll, "RC", "a property and a class"),
    },
    ObjectMinCardinality=_cardinality(AtLeast),
    ObjectMaxCardinality=_cardinality(AtMost),
    ObjectExactCardinality=_cardinality(exactly),
    ObjectOneOf=_read_one_of,
    ObjectHasValue=_read_has_value,
)
_ROLES = _readers({"ObjectInverseOf": (Inverse, "R", "one property expression")})


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_ontology(o: Ontology) -> str:
    """Emit the functional-style text form; `parse_ontology` of the result
    reproduces the ontology structurally."""
    lines = [f"Ontology({o.name}" if o.name else "Ontology("]
    declared = o.declared | signature_of(o)
    for keyword, ns in zip(
        ("Class", "ObjectProperty", "NamedIndividual"),
        (declared.concept_names, declared.role_names, declared.individual_names),
    ):
        lines.extend(f"  Declaration({keyword}({n}))" for n in sorted(ns))
    texts = o.texts
    for a, i in zip(o.axioms, range(len(o)) if o.origin is None else o.origin):
        line = texts[i]
        if line is None:
            line = texts[i] = f"  {_write(a)}"
        lines.append(line)
    lines.append(")")
    return "\n".join(lines) + "\n"


def _write(x) -> str:
    """The text of an axiom, class or property expression."""
    return _WRITERS.get(type(x), _no_syntax)(x)


def _no_syntax(x):
    if isinstance(x, Role):  # R∅ and R∆, the roles that only substitution makes
        raise ValueError("substitution constants have no surface syntax")
    raise TypeError(f"not an axiom, class or property expression: {x!r}")


_WRITERS = {
    SubClassOf: lambda a: f"SubClassOf({_write(a.sub)} {_write(a.sup)})",
    EquivalentClasses: lambda a: f"EquivalentClasses({_write(a.left)} {_write(a.right)})",
    SubRoleOf: lambda a: f"SubObjectPropertyOf({_write(a.sub)} {_write(a.sup)})",
    EquivalentRoles: lambda a: f"EquivalentObjectProperties({_write(a.left)} {_write(a.right)})",
    InverseRoles: lambda a: f"InverseObjectProperties({_write(a.left)} {_write(a.right)})",
    Transitive: lambda a: f"TransitiveObjectProperty({_write(a.role)})",
    TopType: lambda c: "owl:Thing",
    BottomType: lambda c: "owl:Nothing",
    ConceptName: lambda c: c.name,
    OneOf: lambda c: f"ObjectOneOf({c.individual})",
    Not: lambda c: f"ObjectComplementOf({_write(c.arg)})",
    And: lambda c: "ObjectIntersectionOf(" + " ".join(map(_write, c.args)) + ")",
    Or: lambda c: "ObjectUnionOf(" + " ".join(map(_write, c.args)) + ")",
    Exists: lambda c: f"ObjectSomeValuesFrom({_write(c.role)} {_write(c.filler)})",
    ForAll: lambda c: f"ObjectAllValuesFrom({_write(c.role)} {_write(c.filler)})",
    AtLeast: lambda c: f"ObjectMinCardinality({c.n} {_write(c.role)} {_write(c.filler)})",
    AtMost: lambda c: f"ObjectMaxCardinality({c.n} {_write(c.role)} {_write(c.filler)})",
    RoleName: lambda r: r.name,
    Inverse: lambda r: f"ObjectInverseOf({_write(r.role)})",
}


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

# A signature-file line up to its `#` comment; a `#` inside `<…>` belongs
# to the IRI.
_ENTRY = re.compile(r"(?:<[^>]*>|[^#])*")


def parse_signature(text: str, against: Ontology) -> Signature:
    """Parse a newline-separated signature file. Entries may carry a
    `C:`/`R:`/`I:` kind prefix; unprefixed names are resolved against the
    ontology's declarations and used names; a prefixed name the ontology
    does not know is taken as given. A `#` outside an IRI begins a comment.
    A name given a kind other than the ontology's, or than an earlier
    entry's, is an error at that entry."""
    known = against.names.kinds
    errors: list[ParseError] = []
    kinds: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        entry = _ENTRY.match(raw).group().strip()
        if not entry:
            continue
        if entry[:2] in ("C:", "R:", "I:"):
            kind, name = entry[0], _local_name(entry[2:].strip())
            if not name:
                message = f"'{entry}' has no name"
                errors.append(ParseError(lineno, 1, message, ParseErrorKind.SYNTAX))
                continue
        else:
            name = _local_name(entry)
            kind = known.get(name)
            if kind is None:
                message = f"'{name}' does not occur in ontology '{against.name}'"
                errors.append(ParseError(lineno, 1, message, ParseErrorKind.UNKNOWN_ENTITY))
                continue
        first = kinds.setdefault(name, known.get(name, kind))
        if first != kind:
            message = _conflict(name, first, kind)
            errors.append(ParseError(lineno, 1, message, ParseErrorKind.UNKNOWN_ENTITY))
    if errors:
        raise ParseFailure(errors)
    return Signature.of_kinds(kinds)
