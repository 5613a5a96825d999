"""Span tracing around calls into locmod's layers, from outside the program.

`Tracer.install` replaces each traced public function at every import
site it finds (each `locmod.*` module attribute that *is* that function,
plus the `Signature.__or__` method) with a timing wrapper, and `uninstall`
puts the originals back. A wrapper pushes a frame, calls through, and on
return charges the call's duration minus the time of its traced children
to the function as self time. A call that re-enters the function it is
already inside (recursion through a patched global) is not a new span.

Spans of coarse functions are kept in memory with the id of the benchmark
operation they belong to and written out by `write_spans`; hot leaf
functions (millions of calls on a genuine-module run) only accumulate
counts and times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from locmod.semantic import Locality
from locmod.tableau import SatStatus

# (layer, module, attribute, keep spans); "Signature.__or__" is a method
TRACED = (
    ("parser", "locmod.parser", "parse_ontology", True),
    ("parser", "locmod.parser", "parse_signature", True),
    ("parser", "locmod.parser", "serialize_ontology", True),
    ("model", "locmod.model", "signature_of", False),
    ("model", "locmod.model", "Signature.__or__", False),
    ("model", "locmod.model", "nnf", False),
    ("syntactic", "locmod.syntactic", "is_syntactically_local", False),
    ("semantic", "locmod.semantic", "is_semantically_local", False),
    ("semantic", "locmod.semantic", "substitute", False),
    ("semantic", "locmod.semantic", "simplify", False),
    ("semantic", "locmod.semantic", "is_tautology", False),
    ("tableau", "locmod.tableau", "is_satisfiable", True),
    ("extractor", "locmod.extractor", "extract_module", True),
    ("extractor", "locmod.extractor", "extract_nested", True),
    ("extractor", "locmod.extractor", "extract_star", True),
    ("extractor", "locmod.extractor", "genuine_modules", True),
    ("harness", "locmod.harness", "run_comparison", True),
    ("harness", "locmod.harness", "sample_signatures", True),
    ("harness", "locmod.harness", "render_report", True),
    ("harness", "locmod.harness", "classify_culprit", False),
)

LAYERS = ("parser", "model", "syntactic", "semantic", "tableau", "extractor", "harness")

# Functions that must record calls on every workload: each workload runs
# extractions of all three flavors and a compare, so every layer works.
EXPECTED = (
    "parse_ontology",
    "parse_signature",
    "serialize_ontology",
    "signature_of",
    "Signature.__or__",
    "nnf",
    "is_syntactically_local",
    "is_semantically_local",
    "substitute",
    "is_satisfiable",
    "extract_module",
    "extract_star",
    "run_comparison",
    "sample_signatures",
    "render_report",
)


@dataclass
class Stat:
    layer: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    max_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


def _mode(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["mode"]


# What each function's result adds to its counters.
_TALLY = {
    "is_syntactically_local": lambda c, a, k, r: c.update(local=bool(r)),
    "is_semantically_local": lambda c, a, k, r: c.update(
        unknown=r.status is Locality.UNKNOWN
    ),
    "is_satisfiable": lambda c, a, k, r: c.update(
        unsat=r.status is SatStatus.UNSATISFIABLE, unknown=r.status is SatStatus.UNKNOWN
    ),
    "extract_module": lambda c, a, k, r: c.update(
        checks=r.locality_checks, kept=len(r.module), rounds=r.rounds
    ),
    "sample_signatures": lambda c, a, k, r: c.update(cases=len(r)),
    "run_comparison": lambda c, a, k, r: c.update(
        records=len(r), cases=len(a[0].axioms) if _mode(a, k) == "t2" else 0
    ),
}


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Per-function counters and in-memory spans for one session."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op_id = 0
        self._next_span = 0

    # -- installation -------------------------------------------------------

    def install(self):
        for layer, module_name, attr, keep in TRACED:
            module = sys.modules[module_name]
            if attr == "Signature.__or__":
                cls = module.Signature
                original = cls.__dict__["__or__"]
                self.stats[attr] = Stat(layer)
                self._patch(cls, "__or__", original, self._wrap(attr, original, keep))
                continue
            original = getattr(module, attr)
            self.stats[attr] = Stat(layer)
            wrapper = self._wrap(attr, original, keep)
            for m in [sys.modules[n] for n in sorted(sys.modules) if n.startswith("locmod")]:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, name, fn, keep_spans):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tally = _TALLY.get(name)

        def wrapper(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span_id = None
            if keep_spans:
                self._next_span += 1
                span_id = self._next_span
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame.child_s
                stat.total_s += duration
                if duration > stat.max_s:
                    stat.max_s = duration
                if stack:
                    stack[-1].child_s += duration
                if span_id is not None:
                    self.spans.append(
                        (self._op_id, span_id, self._parent_span(), name, start, end)
                    )
            if tally is not None:
                tally(stat.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    # -- operations ---------------------------------------------------------

    def begin_op(self, name):
        """Start benchmark operation `name`; its spans share a fresh id."""
        self._op_id += 1
        self._next_span += 1
        frame = _Frame(f"op:{name}", self._next_span)
        self._stack.append(frame)
        return frame, time.perf_counter()

    def end_op(self, token):
        frame, start = token
        end = time.perf_counter()
        self._stack.remove(frame)
        self.spans.append((self._op_id, frame.span_id, None, frame.name, start, end))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "span": span, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    # -- metrics ------------------------------------------------------------

    def silent(self):
        """Names in `EXPECTED` that recorded no call."""
        return [n for n in EXPECTED if self.stats[n].calls == 0]

    def layer_metrics(self) -> dict[str, float]:
        s = self.stats
        self_s = {layer: 0.0 for layer in LAYERS}
        for stat in s.values():
            self_s[stat.layer] += stat.self_s

        def frac(num, den):
            return num / den if den else 0.0

        syn = s["is_syntactically_local"]
        sem = s["is_semantically_local"]
        tab = s["is_satisfiable"]
        ext = s["extract_module"]
        cases = s["sample_signatures"].counts["cases"] + s["run_comparison"].counts["cases"]
        return {
            "parser.parse_s": s["parse_ontology"].self_s + s["parse_signature"].self_s,
            "parser.serialize_s": s["serialize_ontology"].self_s,
            "model.signature_of.calls": s["signature_of"].calls,
            "model.signature_of.self_s": s["signature_of"].self_s,
            "model.sig_union.calls": s["Signature.__or__"].calls,
            "model.sig_union.self_s": s["Signature.__or__"].self_s,
            "model.nnf.self_s": s["nnf"].self_s,
            "syntactic.checks": syn.calls,
            "syntactic.self_s": self_s["syntactic"],
            "syntactic.local_frac": frac(syn.counts["local"], syn.calls),
            "semantic.checks": sem.calls,
            "semantic.self_s": self_s["semantic"],
            "semantic.substitute.calls": s["substitute"].calls,
            "semantic.tableau_frac": frac(tab.calls, sem.calls),
            "semantic.unknown": sem.counts["unknown"],
            "tableau.calls": tab.calls,
            "tableau.self_s": self_s["tableau"],
            "tableau.max_ms": tab.max_s * 1000,
            "tableau.unsat_frac": frac(tab.counts["unsat"], tab.calls),
            "tableau.unknown": tab.counts["unknown"],
            "extractor.calls": ext.calls,
            "extractor.self_s": self_s["extractor"],
            "extractor.checks": ext.counts["checks"],
            "extractor.checks_per_kept_axiom": frac(ext.counts["checks"], ext.counts["kept"]),
            "extractor.rounds": ext.counts["rounds"],
            "harness.cases": cases,
            "harness.records": s["run_comparison"].counts["records"],
            "harness.self_s": self_s["harness"],
            "harness.sample_s": s["sample_signatures"].total_s,
            "harness.render_s": s["render_report"].total_s,
        }
