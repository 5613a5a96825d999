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
    UniversalRoleType,
    EmptyRoleType,
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

    def declare(self, name: str, kind: str, form: _Form):
        self._bind(name, kind, form, declared=True)

    def use(self, name: str, kind: str, form: _Form) -> None:
        self._bind(name, kind, form, declared=False)

    def _bind(self, name, kind, form, declared):
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

    def signature(self) -> Signature:
        return Signature.of_kinds(self.kinds)


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
    return Ontology(tuple(axioms), name=name, declared=names.signature())


_SKIPPED = object()


def _syntax_error(form: _Form, message: str, names: _NameTable):
    names.error(form.offset, message)
    raise _Halt()


def _unsupported(form: _Form, names: _NameTable, construct: str | None = None):
    construct = construct or form.text
    names.error(
        form.offset,
        f"unsupported construct '{construct}'",
        ParseErrorKind.UNSUPPORTED_CONSTRUCT,
        construct,
    )
    raise _Halt()


def _strip_annotations(children: list[_Form]) -> tuple[_Form, ...]:
    return tuple(
        c for c in children if c.is_atom or c.text != "Annotation"
    )


def _parse_axiom_form(form: _Form, names: _NameTable):
    kw = form.text
    if form.is_atom:
        _syntax_error(form, f"expected an axiom, found '{kw}'", names)
    if kw in _ANNOTATION_KEYWORDS:
        return _SKIPPED
    args = _strip_annotations(form.children)

    if kw == "Declaration":
        if len(args) != 1 or args[0].is_atom or len(args[0].children) != 1:
            _syntax_error(form, "malformed Declaration", names)
        decl = args[0]
        entity = decl.children[0]
        if not entity.is_atom:
            _syntax_error(entity, "expected an entity name", names)
        ent_name = _local_name(entity.text)
        kind_kw = decl.text
        if kind_kw == "Class":
            names.declare(ent_name, "C", entity)
        elif kind_kw == "ObjectProperty":
            names.declare(ent_name, "R", entity)
        elif kind_kw == "NamedIndividual":
            names.declare(ent_name, "I", entity)
        elif kind_kw == "AnnotationProperty":
            return _SKIPPED
        else:
            _unsupported(decl, names)
        return []

    if kw == "SubClassOf":
        if len(args) != 2:
            _syntax_error(form, "SubClassOf takes two class expressions", names)
        return [SubClassOf(_parse_concept(args[0], names), _parse_concept(args[1], names))]

    if kw == "EquivalentClasses":
        if len(args) < 2:
            _syntax_error(form, "EquivalentClasses takes at least two class expressions", names)
        concepts = [_parse_concept(a, names) for a in args]
        return [
            EquivalentClasses(concepts[i], concepts[i + 1])
            for i in range(len(concepts) - 1)
        ]

    if kw == "DisjointClasses":
        if len(args) < 2:
            _syntax_error(form, "DisjointClasses takes at least two class expressions", names)
        concepts = [_parse_concept(a, names) for a in args]
        return [
            DisjointClasses(concepts[i], concepts[j])
            for i in range(len(concepts))
            for j in range(i + 1, len(concepts))
        ]

    if kw == "SubObjectPropertyOf":
        if len(args) != 2:
            _syntax_error(form, "SubObjectPropertyOf takes two property expressions", names)
        return [SubRoleOf(_parse_role(args[0], names), _parse_role(args[1], names))]

    if kw == "EquivalentObjectProperties":
        if len(args) < 2:
            _syntax_error(form, "EquivalentObjectProperties takes at least two properties", names)
        roles = [_parse_role(a, names) for a in args]
        return [
            EquivalentRoles(roles[i], roles[i + 1]) for i in range(len(roles) - 1)
        ]

    if kw == "InverseObjectProperties":
        if len(args) != 2:
            _syntax_error(form, "InverseObjectProperties takes two property expressions", names)
        return [InverseRoles(_parse_role(args[0], names), _parse_role(args[1], names))]

    if kw == "TransitiveObjectProperty":
        if len(args) != 1:
            _syntax_error(form, "TransitiveObjectProperty takes one property expression", names)
        return [Transitive(_parse_role(args[0], names))]

    if kw == "ObjectPropertyDomain":
        if len(args) != 2:
            _syntax_error(form, "ObjectPropertyDomain takes a property and a class", names)
        return [Domain(_parse_role(args[0], names), _parse_concept(args[1], names))]

    if kw == "ObjectPropertyRange":
        if len(args) != 2:
            _syntax_error(form, "ObjectPropertyRange takes a property and a class", names)
        return [Range(_parse_role(args[0], names), _parse_concept(args[1], names))]

    _unsupported(form, names)


def _parse_role(form: _Form, names: _NameTable) -> Role:
    if form.is_atom:
        name = _local_name(form.text)
        names.use(name, "R", form)
        return RoleName(name)
    if form.text == "ObjectInverseOf":
        if len(form.children) != 1:
            _syntax_error(form, "ObjectInverseOf takes one property expression", names)
        return Inverse(_parse_role(form.children[0], names))
    _unsupported(form, names)


_DIGITS = re.compile(r"[0-9]+")


def _parse_cardinality(form: _Form, names: _NameTable) -> tuple[int, Role, Concept]:
    args = form.children
    if len(args) not in (2, 3) or not args[0].is_atom:
        _syntax_error(form, f"malformed {form.text}", names)
    try:  # OWL's nonNegativeInteger: ASCII digits only, no sign or `_`
        n = int(args[0].text) if _DIGITS.fullmatch(args[0].text) else -1
    except ValueError:  # more digits than `int` converts
        n = -1
    if n < 0:
        _syntax_error(args[0], "cardinality must be a non-negative integer", names)
    role = _parse_role(args[1], names)
    filler = _parse_concept(args[2], names) if len(args) == 3 else TOP
    return n, role, filler


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

    args = form.children
    if kw == "ObjectIntersectionOf":
        if len(args) < 2:
            _syntax_error(form, "ObjectIntersectionOf takes at least two classes", names)
        return And(tuple(_parse_concept(a, names) for a in args))
    if kw == "ObjectUnionOf":
        if len(args) < 2:
            _syntax_error(form, "ObjectUnionOf takes at least two classes", names)
        return Or(tuple(_parse_concept(a, names) for a in args))
    if kw == "ObjectComplementOf":
        if len(args) != 1:
            _syntax_error(form, "ObjectComplementOf takes one class", names)
        return Not(_parse_concept(args[0], names))
    if kw == "ObjectSomeValuesFrom":
        if len(args) != 2:
            _syntax_error(form, "ObjectSomeValuesFrom takes a property and a class", names)
        return Exists(_parse_role(args[0], names), _parse_concept(args[1], names))
    if kw == "ObjectAllValuesFrom":
        if len(args) != 2:
            _syntax_error(form, "ObjectAllValuesFrom takes a property and a class", names)
        return ForAll(_parse_role(args[0], names), _parse_concept(args[1], names))
    if kw == "ObjectMinCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return AtLeast(n, role, filler)
    if kw == "ObjectMaxCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return AtMost(n, role, filler)
    if kw == "ObjectExactCardinality":
        n, role, filler = _parse_cardinality(form, names)
        return exactly(n, role, filler)
    if kw == "ObjectOneOf":
        if len(args) != 1 or not args[0].is_atom:
            _unsupported(form, names, construct="ObjectOneOf with more than one individual")
        ind = _local_name(args[0].text)
        names.use(ind, "I", args[0])
        return OneOf(ind)
    if kw == "ObjectHasValue":
        if len(args) != 2 or not args[1].is_atom:
            _syntax_error(form, "ObjectHasValue takes a property and an individual", names)
        ind = _local_name(args[1].text)
        names.use(ind, "I", args[1])
        return Exists(_parse_role(args[0], names), OneOf(ind))
    _unsupported(form, names)


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
    if isinstance(a, SubRoleOf):
        return f"SubObjectPropertyOf({_ser_role(a.sub)} {_ser_role(a.sup)})"
    if isinstance(a, EquivalentRoles):
        return f"EquivalentObjectProperties({_ser_role(a.left)} {_ser_role(a.right)})"
    if isinstance(a, InverseRoles):
        return f"InverseObjectProperties({_ser_role(a.left)} {_ser_role(a.right)})"
    if isinstance(a, Transitive):
        return f"TransitiveObjectProperty({_ser_role(a.role)})"
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

# A signature-file line up to its `#` comment; a `#` inside `<…>` belongs
# to the IRI.
_ENTRY = re.compile(r"(?:<[^>]*>|[^#])*")


def parse_signature(text: str, against: Ontology) -> Signature:
    """Parse a newline-separated signature file. Entries may carry a
    `C:`/`R:`/`I:` kind prefix; unprefixed names are resolved against the
    ontology's declarations and used names. A `#` outside an IRI begins a
    comment. A name given two kinds is an error at the entry that gives
    the second."""
    table = against.names
    known = {
        n: kind
        for kind, ns in zip("CRI", (table.concept_names, table.role_names, table.individual_names))
        for n in ns
    }
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
        first = kinds.setdefault(name, kind)
        if first != kind:
            message = _conflict(name, first, kind)
            errors.append(ParseError(lineno, 1, message, ParseErrorKind.UNKNOWN_ENTITY))
    if errors:
        raise ParseFailure(errors)
    return Signature.of_kinds(kinds)
