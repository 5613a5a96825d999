"""Reader and writer for a functional-style ontology syntax subset.

One `Ontology(<name> ...)` block per file; axioms use the OWL 2
functional-syntax keywords for the class and object-property constructs
this model supports. Annotations are skipped (with a logged count), data
properties and role chains are rejected as unsupported. `#` starts a
comment outside IRIs and strings.

Reading is one loop over the matches of one regular expression, with a
stack of open forms and no recursion. The entry of an open form's keyword
says how each argument reads, as a class or a property expression among
others, so an atom becomes its term when it is read, a form when its `)`
arrives, and an axiom goes straight into the list. An error's line and
column are worked out only when it is recorded. Writing looks each term's
type up in one formatter table and keeps each axiom's line in the table
its source shares (`Ontology.texts`).

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
    BOTTOM,
    BottomType,
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
    "parse_terms",
]

log = logging.getLogger(__name__)

# Forms nest at most this deep (the Ontology block is depth 1; atoms count).
# Reading needs no such limit, but the recursive walks over a parsed
# concept must stay inside Python's default limit: the deepest, printing,
# runs out near depth 225 at the top of the stack.
MAX_NESTING = 160

# ObjectExactCardinality forms nest at most this deep on one path of an
# axiom: each one shares its class between two restrictions, so a tree walk
# over n of them visits that class 2**n times.
MAX_EXACT_NESTING = 10

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


# Whitespace and `#` comments, then one token: a parenthesis, an IRI, a
# string, or a word; a `<` or `"` that starts no IRI or string is
# unterminated. A word ends at whitespace, a parenthesis, `"` or `<`.
_TOKEN = re.compile(
    r'(?:[ \t\r\n]|#[^\n]*)*'
    r'(?:([()]|<[^>]*>|"(?:[^"\\]|\\[\s\S])*"|[^ \t\r\n()"<#][^ \t\r\n()"<]*)|([<"])|\Z)'
)
_UNTERMINATED = {"<": "unterminated IRI", '"': "unterminated string"}


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


# ---------------------------------------------------------------------------
# Ontology parsing
# ---------------------------------------------------------------------------

def parse_ontology(text: str, strict: bool = False) -> Ontology:
    """Parse one ontology block. Raises `ParseFailure` carrying every
    collected error when the input is not clean."""
    return _Reader(text, strict).read()


class _Reader:
    """One pass over the tokens of a text. Each open form waits on `stack`
    as `[entry, args, keyword]`: its keyword's entry (see `_entry`), the
    terms of its arguments so far and the match of its keyword; the bottom
    of the stack is the text around the Ontology block. An entry gives each
    argument a slot letter: C a class and R a property expression, N a
    cardinality, I an individual, D the form of a Declaration and E the
    entity it names, O the Ontology's name or an axiom, A an axiom, T a
    top-level form, U anything.

    An axiom's first fault waits in `held` until the next axiom: a form
    open when it arose checks its argument count before any argument, so
    its count error, found later, replaces the fault and unbinds the names
    bound since the form opened. Meanwhile the open forms read their slots
    in lower case: they only count, and check that N and I get atoms and D
    a form."""

    def __init__(self, text: str, strict: bool):
        self.text, self.strict = text, strict
        self.tokens = _TOKEN.finditer(text)
        self.stack = [[_TOP, [], None]]
        self.errors: list[ParseError] = []
        self.breaks: list[int] | None = None  # offsets of the line breaks
        self.kinds: dict[str, str] = {}
        self.bound: list[tuple[str, str, int]] = []  # (name, kind, offset), in text order
        self.concepts = dict(_CONSTANTS)  # the term of each atom read as a class
        self.roles: dict[str, RoleName] = {}  # and as a property
        self.held: tuple | None = None
        self.name, self.axioms, self.skipped = "", [], 0  # skipped annotation constructs

    def read(self) -> Ontology:
        stack, concepts, roles = self.stack, self.concepts, self.roles
        slot_forms = _SLOT_FORMS
        word = None  # the last word, until the next token shows whether it opens a form
        paren = None  # the last parenthesis
        for m in self.tokens:
            token = m[1]
            if token == "(":
                paren = m
                if word is None:
                    self.stray(m)
                e, args, _ = f = stack[-1]
                k = e[0][len(args):len(args) + 1] or e[1]
                forms = slot_forms.get(k)  # the table of a C or R slot
                entry = forms.get(word[1]) if forms else None
                stack.append([entry or self.form(k, f, word), [], word])
                if entry is _EXACT:
                    self.exact(word)
                word = None
                continue
            if token is None and m[2] is not None:
                self.unterminated(m)
            if word is not None:  # an atom
                e, args, _ = f = stack[-1]
                k = e[0][len(args):len(args) + 1] or e[1]
                if k == "C":
                    args.append(concepts.get(word[1]) or self.term(word, "C", ConceptName))
                elif k == "R":
                    args.append(roles.get(word[1]) or self.term(word, "R", RoleName))
                else:
                    args.append(self.atom(k, f, word))
            if token == ")":
                paren, word = m, None
                if len(stack) == 1:
                    self.stray(m)
                e, args, _ = f = stack.pop()
                if len(args) < e[2]:
                    self.count_error(f, len(stack))
                    stack[-1][1].append(None)
                elif e[3] is not None:
                    stack[-1][1].append(e[3](*args))
                elif len(stack) == 1:
                    self.close_block(f)
            elif token is not None:
                if len(stack) > MAX_NESTING:
                    self.fail(m, f"forms nested deeper than {MAX_NESTING}")
                word = m
            elif len(stack) > 1:
                self.fail(word or paren, f"unbalanced parenthesis in {stack[-1][2][1]}(...)")
            else:
                self.fail(paren, "unexpected end of input")
        if self.errors:
            raise ParseFailure(self.errors)
        if self.skipped:
            log.warning("skipped %d annotation construct(s)", self.skipped)
        axioms = []
        for part in self.axioms:  # an axiom, the list of an n-ary form, or None
            if type(part) is list:
                axioms += part
            elif part is not None:
                axioms.append(part)
        return Ontology(tuple(axioms), name=self.name, declared=Signature.of_kinds(self.kinds))

    def term(self, m, kind: str, build):
        """The class or property the atom `m` names, read as one for the
        first time since its name was bound."""
        name = _local_name(m[1])
        if self.use(name, kind, m.start(1)):
            terms = self.concepts if kind == "C" else self.roles
            terms[m[1]] = term = build(name)
            return term

    def atom(self, k: str, f: list, m):
        """The term of the atom `m` in slot `k`, not C or R, of the open
        form `f`; None where it has none."""
        if k in ("I", "i"):  # ObjectHasValue binds it before its property
            undone = self.unbind(f[2].start(1))
            name = _local_name(m[1])
            if self.use(name, "I", m.start(1)) and all(self.use(*b) for b in undone):
                return name
        elif k == "N":
            try:  # OWL's nonNegativeInteger: ASCII digits only, no sign or `_`
                n = int(m[1]) if _DIGITS.fullmatch(m[1]) else -1
            except ValueError:  # more digits than `int` converts
                n = -1
            if n >= 0:
                return n
            self.fault(m.start(1), "cardinality must be a non-negative integer")
        elif k == "E":
            kind = _DECLARED_KINDS.get(f[2][1])
            if kind is None:
                self.unsupported(f[2])
            elif kind:
                self.use(_local_name(m[1]), kind, m.start(1), declared=True)
            else:
                self.skipped += 1
        elif k == "O":
            self.name = _local_name(m[1])
        elif k == "A":
            self.flush()
            self.error(m.start(1), f"expected an axiom, found '{m[1]}'")
        elif k == "T":
            self.fail(m, "expected an Ontology(...) block")
        elif k in ("", "D", "d"):  # an argument too many, or not a form
            self.count_error(f, len(self.stack) - 1)
        return None

    def form(self, k: str, f: list, m) -> tuple:
        """The entry of the form that keyword `m` opens in slot `k` of the
        open form `f`, unless the table of a C or R slot has one."""
        keyword = m[1]
        if keyword == "Annotation" and len(self.stack) == 3:
            return _IGNORED  # an axiom's annotation is not one of its arguments
        if k in ("A", "O"):
            self.flush()
            if keyword in _ANNOTATION_KEYWORDS:
                self.skipped += 1
                return _UNREAD
            if keyword in _AXIOMS:
                return _AXIOMS[keyword]
        if k in ("A", "O", "C", "R"):
            self.unsupported(m)
        elif k == "D":
            return _DECLARED
        elif k == "E":
            self.fault(m.start(1), "expected an entity name")
        elif k == "T":
            return _ONTOLOGY if keyword == "Ontology" else _IGNORED
        elif k in ("", "N", "I", "n", "i"):  # an argument too many, or not an atom
            self.count_error(f, len(self.stack) - 1)
        return _UNREAD

    def exact(self, m) -> None:
        """Refuse the ObjectExactCardinality that `m` opens if it is nested
        more than `MAX_EXACT_NESTING` deep."""
        if sum(f[2][1] == m[1] for f in self.stack[2:]) > MAX_EXACT_NESTING:
            message = f"{m[1]} nested more than {MAX_EXACT_NESTING} deep"
            self.fault(m.start(1), message, _UNSUPPORTED, m[1])

    def close_block(self, f: list) -> None:
        """A top-level form has closed: a Prefix, the Ontology block, which
        nothing may follow, or a mistake."""
        keyword = f[2]
        if keyword[1] == "Ontology":
            self.flush()
            self.axioms = f[1]
            for m in self.tokens:
                if m[2] is not None:
                    self.unterminated(m)
                if m[1] is not None:
                    self.fail(m, "content after the Ontology block", alone=False)
        elif keyword[1] != "Prefix":
            self.fail(keyword, "expected an Ontology(...) block")

    def use(self, name: str, kind: str, offset: int, declared: bool = False) -> bool:
        """Bind `name` to `kind` at `offset`, or keep the fault of that use."""
        known = self.kinds.get(name)
        if known is None and (declared or not self.strict):
            self.kinds[name] = kind
            self.bound.append((name, kind, offset))
        elif known != kind:
            undeclared = f"'{name}' used without declaration"
            message = _conflict(name, known, kind) if known else undeclared
            self.fault(offset, message, ParseErrorKind.UNKNOWN_ENTITY)
            return False
        return True

    def unbind(self, offset: int) -> list[tuple[str, str, int]]:
        """Undo the bindings made after `offset`; return them, oldest first."""
        bound = self.bound
        i = len(bound)
        while i and bound[i - 1][2] > offset:
            i -= 1
        undone = bound[i:]
        del bound[i:]
        for name, _, _ in undone:
            del self.kinds[name]
        if undone:  # forget the terms of atoms whose names may be unbound
            self.concepts.clear()
            self.concepts.update(_CONSTANTS)
            self.roles.clear()
        return undone

    def fault(self, offset: int, message: str, kind=ParseErrorKind.SYNTAX, construct=None):
        """Keep the first fault of the axiom being read; its open forms then
        only count their arguments."""
        self.held = (offset, message, kind, construct)
        for f in self.stack[2:]:
            e = f[0]
            f[0] = (e[0].lower(), e[1].lower(), e[2], e[3] and _count, e[4])

    def unsupported(self, m) -> None:
        self.fault(m.start(1), f"unsupported construct '{m[1]}'", _UNSUPPORTED, m[1])

    def count_error(self, f: list, i: int) -> None:
        """Keep the count error of the form `f`, at `i` on the stack, in
        place of any fault of its arguments, and unbind their names."""
        if f[0][4] is None:  # a declared entity's form counts as its Declaration
            i -= 1
            f = self.stack[i]
        offset = f[2].start(1)
        self.unbind(offset)
        self.fault(offset, *f[0][4])
        for g in self.stack[i:]:
            g[0] = _UNREAD

    def flush(self) -> None:
        """Record the fault of the axiom read last, if it has one."""
        if self.held is not None:
            self.error(*self.held)
            self.held = None

    def error(self, offset: int, message: str, kind=ParseErrorKind.SYNTAX, construct=None):
        if self.breaks is None:
            self.breaks = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.breaks, offset)
        column = offset - self.breaks[line - 1] if line else offset + 1
        self.errors.append(ParseError(line + 1, column, message, kind, construct))

    def stray(self, m) -> None:
        """A parenthesis that neither follows a keyword nor closes a form."""
        if m[1] == "(" and len(self.stack) > MAX_NESTING:
            self.fail(m, f"forms nested deeper than {MAX_NESTING}")
        self.fail(m, "unexpected ')'" if m[1] == ")" else "'(' must follow a keyword")

    def fail(self, m, message: str, alone: bool = True) -> None:
        """Raise the error `message` at the token `m` (the start of the text
        if None), alone or with the errors so far, unless the text goes on
        to an unterminated IRI or string."""
        if alone:
            self.errors.clear()
        self.error(0 if m is None else m.start(1), message)
        for m in self.tokens:
            if m[2] is not None:
                self.unterminated(m)
        raise ParseFailure(self.errors)

    def unterminated(self, m) -> None:
        """An unterminated IRI or string, which is reported alone."""
        self.errors.clear()
        self.error(m.start(2), _UNTERMINATED[m[2]])
        raise ParseFailure(self.errors)


# An entry is `(kinds, rest, low, build, fault)`: the slot letters of the
# first arguments and the letter of any further one ("" for none), the
# fewest arguments, what the terms of the arguments are passed to when the
# form closes (None if nothing) and the (message, kind, construct) of a
# wrong count. A declared entity's form has none: its count is its
# Declaration's.

def _count(*args) -> None:
    """The build of a form that is only counted."""


_TOP = ("", "T", 0, None, None)  # the text around the Ontology block
_ONTOLOGY = ("O", "A", 0, None, None)
_UNREAD = ("", "u", 0, _count, None)  # read for its parentheses, counted by its parent
_IGNORED = ("", "u", 0, None, None)  # the same, not counted: a top-level form or an annotation
_DECLARED = ("E", "", 1, _count, None)  # the form naming a declared entity
_DECLARED_KINDS = {"Class": "C", "ObjectProperty": "R", "NamedIndividual": "I"}
_DECLARED_KINDS["AnnotationProperty"] = ""  # declared, but skipped
_DIGITS = re.compile(r"[0-9]+")
_CONSTANTS = {"owl:Thing": TOP, "<http://www.w3.org/2002/07/owl#Thing>": TOP}
_CONSTANTS.update({"owl:Nothing": BOTTOM, "<http://www.w3.org/2002/07/owl#Nothing>": BOTTOM})
_UNSUPPORTED = ParseErrorKind.UNSUPPORTED_CONSTRUCT


def _entry(keyword: str, build, kinds: str, takes: str = "") -> tuple:
    """The entry of `keyword(...)` from its constructor, one letter per
    argument (`C+` and `R+` take two or more, and a cardinality, `NRC`,
    may leave out its class) and what it takes."""
    message = f"{keyword} takes {takes}" if takes else f"malformed {keyword}"
    fault = (message, ParseErrorKind.SYNTAX, None)
    if kinds == "NRC":
        return kinds, "", 2, lambda n, r, c=TOP: build(n, r, c), fault
    if kinds.endswith("+"):
        return kinds[0] * 2, kinds[0], 2, build, fault
    return kinds, "", len(kinds), build, fault


def _entries(table: dict) -> dict:
    return {keyword: _entry(keyword, *row) for keyword, row in table.items()}


def _chain(build):
    return lambda *xs: [build(x, y) for x, y in zip(xs, xs[1:])]


def _pairs(build):
    return lambda *xs: [build(x, y) for i, x in enumerate(xs) for y in xs[i + 1:]]


# An axiom reads to an axiom, an n-ary one to a list of them and a
# Declaration to None.
_AXIOMS = _entries({
    "SubClassOf": (SubClassOf, "CC", "two class expressions"),
    "EquivalentClasses": (_chain(EquivalentClasses), "C+", "at least two class expressions"),
    "DisjointClasses": (_pairs(DisjointClasses), "C+", "at least two class expressions"),
    "SubObjectPropertyOf": (SubRoleOf, "RR", "two property expressions"),
    "EquivalentObjectProperties": (_chain(EquivalentRoles), "R+", "at least two properties"),
    "InverseObjectProperties": (InverseRoles, "RR", "two property expressions"),
    "TransitiveObjectProperty": (Transitive, "R", "one property expression"),
    "ObjectPropertyDomain": (Domain, "RC", "a property and a class"),
    "ObjectPropertyRange": (Range, "RC", "a property and a class"),
    "Declaration": (lambda _: None, "D"),
})
_CONCEPTS = _entries({
    "ObjectIntersectionOf": (lambda *cs: And(cs), "C+", "at least two classes"),
    "ObjectUnionOf": (lambda *cs: Or(cs), "C+", "at least two classes"),
    "ObjectComplementOf": (Not, "C", "one class"),
    "ObjectSomeValuesFrom": (Exists, "RC", "a property and a class"),
    "ObjectAllValuesFrom": (ForAll, "RC", "a property and a class"),
    "ObjectMinCardinality": (AtLeast, "NRC"),
    "ObjectMaxCardinality": (AtMost, "NRC"),
    "ObjectExactCardinality": (exactly, "NRC"),
    "ObjectHasValue": (lambda r, i: Exists(r, OneOf(i)), "RI", "a property and an individual"),
})
_ONE_OF = "ObjectOneOf with more than one individual"
_ONE_OF_FAULT = (f"unsupported construct '{_ONE_OF}'", _UNSUPPORTED, _ONE_OF)
_CONCEPTS["ObjectOneOf"] = ("I", "", 1, OneOf, _ONE_OF_FAULT)
_EXACT = _CONCEPTS["ObjectExactCardinality"]
_ROLES = _entries({"ObjectInverseOf": (Inverse, "R", "one property expression")})
_SLOT_FORMS = {"C": _CONCEPTS, "R": _ROLES}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_ontology(o: Ontology) -> str:
    """Emit the functional-style text form; `parse_ontology` of the result
    reproduces the ontology structurally."""
    lines = [f"Ontology({o.name}" if o.name else "Ontology("]
    # a module is written once, so it keeps no `names` (its source does)
    declared = o.names if o.origin is None else signature_of(o)
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


def parse_terms(spec: str, against: Ontology) -> Signature:
    """The signature of comma-separated `C:`/`R:`/`I:` terms, each name
    reduced to its local fragment and checked against the kinds of the
    ontology as in a signature file. Raises `ValueError` at the first term
    without a kind prefix or a name, or that gives a name a second kind."""
    known = against.names.kinds
    kinds: dict[str, str] = {}
    for term in filter(None, map(str.strip, spec.split(","))):
        if term[:2] not in ("C:", "R:", "I:"):
            raise ValueError(f"inline term '{term}' needs a C:/R:/I: kind prefix")
        kind, name = term[0], _local_name(term[2:].strip())
        if not name:
            raise ValueError(f"inline term '{term}' has no name")
        if kinds.setdefault(name, kind) != kind:
            raise ValueError(f"inline term '{term}' gives '{name}' a second kind")
        if known.get(name, kind) != kind:
            raise ValueError(f"inline term '{term}': {_conflict(name, known[name], kind)}")
    return Signature.of_kinds(kinds)
