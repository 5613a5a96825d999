"""Command-line front end.

Subcommands: `extract` (write a module), `check` (per-axiom locality
verdicts), `genuine` (deduplicated single-axiom-signature modules),
`compare` (the syntactic-vs-semantic experiment), and a hidden `oracle`
for brute-force countermodel search.

Exit codes: 0 success (also when the reader closes the output pipe
early), 1 parse or usage error or an --out that cannot be written, 2
unsupported construct, 3 unknown verdicts present under --strict-verdicts
(compare counts those of every case, whether it has a report row or
not), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .extractor import SEM_STAR, SYN_STAR, extract_module, extract_star, genuine_modules
from .harness import (
    MODES,
    InvariantViolation,
    SamplingConfig,
    render_report,
    run_comparison,
)
from .model import LocalityFlavor, Ontology, Signature, is_self_inverse
from .oracle import find_countermodel
from .parser import (
    ParseErrorKind,
    ParseFailure,
    parse_ontology,
    parse_signature,
    parse_terms,
    serialize_ontology,
)
from .semantic import LOCAL, NON_LOCAL, substitute, verdicts_in
from .tableau import Budget

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNSUPPORTED = 2
EXIT_UNKNOWN_VERDICTS = 3
EXIT_INVARIANT = 4

_FLAVOR_NAMES = sorted(f.value for f in LocalityFlavor)
_STAR_FLAVORS = {"star": SYN_STAR, "sem-star": SEM_STAR}
_REFINED_HELP = "count inverse-role tautologies as local (syntactic flavors only)"

ENV_MAX_STEPS = "LOCMOD_MAX_STEPS"


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _budget(args) -> Budget:
    """The budget of a command: `--max-steps`, else `LOCMOD_MAX_STEPS`, else
    the default, read only by the commands that check locality."""
    steps = args.max_steps
    if steps is None:
        raw = os.environ.get(ENV_MAX_STEPS)
        try:
            steps = Budget.max_steps if raw is None else int(raw)
        except ValueError:
            raise _CliError(f"{ENV_MAX_STEPS} must be a number, not {raw!r}", EXIT_PARSE)
    try:
        return Budget(steps)
    except ValueError as exc:  # Budget is where the limit is checked
        raise _CliError(f"invalid budget: {exc}", EXIT_PARSE) from None


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--max-steps",
        type=int,
        help="tableau rule-application limit per check "
        f"(default: ${ENV_MAX_STEPS}, else {Budget.max_steps})",
    )


def _add_input_flags(p: argparse.ArgumentParser, with_signature: bool = True):
    p.add_argument("--ontology", required=True, help="ontology file (functional syntax)")
    if with_signature:
        p.add_argument("--signature", help="seed signature file")
        p.add_argument(
            "--terms",
            help="inline seed signature, e.g. 'C:Student,R:hasChildren' "
            "(wins over --signature)",
        )
    p.add_argument("--strict", action="store_true", help="require entity declarations")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="locmod",
        description="Locality-based module extraction and the syntactic-vs-semantic "
        "locality comparison experiment.",
    )
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("extract", help="extract a locality-based module")
    _add_input_flags(p)
    p.add_argument(
        "--flavor",
        required=True,
        choices=_FLAVOR_NAMES + sorted(_STAR_FLAVORS),
        help="locality notion (star variants alternate top/bottom to a fixpoint)",
    )
    p.add_argument("--refined", action="store_true", help=_REFINED_HELP)
    p.add_argument("--strict-verdicts", action="store_true")
    p.add_argument("--out", help="write the module here instead of stdout")
    p.add_argument("-v", "--verbose", action="store_true", help="trace per-round additions")
    _add_budget_flags(p)

    p = sub.add_parser("check", help="per-axiom locality verdicts")
    _add_input_flags(p)
    p.add_argument("--flavor", required=True, choices=_FLAVOR_NAMES)
    p.add_argument("--refined", action="store_true", help=_REFINED_HELP)
    p.add_argument("--strict-verdicts", action="store_true")
    _add_budget_flags(p)

    p = sub.add_parser("genuine", help="deduplicated modules for single-axiom signatures")
    _add_input_flags(p, with_signature=False)
    p.add_argument("--flavor", required=True, choices=_FLAVOR_NAMES)
    p.add_argument("--refined", action="store_true", help=_REFINED_HELP)
    p.add_argument("--out")
    _add_budget_flags(p)

    p = sub.add_parser("compare", help="run the locality comparison tests")
    p.add_argument("--ontology", required=True, nargs="+", help="ontology file(s)")
    p.add_argument("--mode", choices=MODES + ("all",), default="all")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--p", type=float, default=0.5, help="entity inclusion probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binned", action="store_true", help="uniform-size sampling over bins")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--measure-timings",
        action="store_true",
        help="record wall-clock phase times (report bytes then vary run to run)",
    )
    p.add_argument("--strict", action="store_true")
    p.add_argument("--strict-verdicts", action="store_true")
    _add_budget_flags(p)

    # debugging helper, deliberately absent from the listed commands
    p = sub.add_parser("oracle")
    _add_input_flags(p)
    p.add_argument("--flavor", required=True, choices=("sem-bot", "sem-top"))
    p.add_argument("--max-domain", type=int, default=3)

    return top


# ---------------------------------------------------------------------------
# Shared input handling
# ---------------------------------------------------------------------------

def _read_file(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _parse_error(path: str, exc: ParseFailure) -> _CliError:
    """The errors of the file at `path`, one a line, each after the path."""
    unsupported = any(e.kind is ParseErrorKind.UNSUPPORTED_CONSTRUCT for e in exc.errors)
    lines = "\n".join(f"{path}:{e}" for e in exc.errors)
    return _CliError(lines, EXIT_UNSUPPORTED if unsupported else EXIT_PARSE)


def _load_ontology(path: str, strict: bool) -> Ontology:
    try:
        return parse_ontology(_read_file(path), strict=strict)
    except ParseFailure as exc:
        raise _parse_error(path, exc)


def _parse_terms(spec: str, onto: Ontology) -> Signature:
    try:
        return parse_terms(spec, onto)
    except ValueError as exc:  # parse_terms is where the terms are checked
        raise _CliError(str(exc), EXIT_PARSE) from None


def _load_signature(args, onto: Ontology) -> Signature:
    terms = getattr(args, "terms", None)
    sig_path = getattr(args, "signature", None)
    if terms and sig_path:
        print("warning: both --terms and --signature given; --terms wins", file=sys.stderr)
    if terms:
        return _parse_terms(terms, onto)
    if sig_path:
        try:
            return parse_signature(_read_file(sig_path), onto)
        except ParseFailure as exc:
            raise _parse_error(sig_path, exc)
    return Signature()


def _check_out(out: str | None):
    """Refuse before any work an `--out` that is a directory or lies in a
    missing one, without opening it: a failed command leaves a file as it was."""
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
        raise _CliError(f"cannot write {out}: {OSError(code, os.strerror(code), out)}", EXIT_PARSE)


def _write_out(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out}: {exc}", EXIT_PARSE)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_extract(args) -> int:
    onto = _load_ontology(args.ontology, args.strict)
    sig = _load_signature(args, onto)
    options = dict(refined=args.refined, budget=_budget(args))
    if args.flavor in _STAR_FLAVORS:
        result = extract_star(onto, sig, _STAR_FLAVORS[args.flavor], **options)
    else:
        result = extract_module(onto, sig, LocalityFlavor(args.flavor), **options)
    if args.verbose:
        for (step, flavor, round_no), added in result.additions:
            for i in added:
                print(f"step {step}, {flavor} round {round_no}: +", onto.axioms[i], file=sys.stderr)
        print(
            f"module: {len(result.module)} of {len(onto)} axioms, "
            f"{result.locality_checks} locality checks, "
            f"{result.unknown_verdicts} unknown verdicts",
            file=sys.stderr,
        )
    _write_out(serialize_ontology(result.module), args.out)
    if args.strict_verdicts and result.unknown_verdicts:
        print(
            f"{result.unknown_verdicts} unknown verdict(s) were treated as non-local",
            file=sys.stderr,
        )
        return EXIT_UNKNOWN_VERDICTS
    return EXIT_OK


def _cmd_check(args) -> int:
    onto = _load_ontology(args.ontology, args.strict)
    sig = _load_signature(args, onto)
    flavor = LocalityFlavor(args.flavor)
    refined = args.refined and flavor.is_syntactic
    # `refined` calls a self-inverse axiom local before any check
    positions = [i for i, a in enumerate(onto.axioms) if not (refined and is_self_inverse(a))]
    found, unknown = verdicts_in(onto, positions, sig, flavor, _budget(args))
    found = set(found)
    for i, a in enumerate(onto.axioms):
        verdict = unknown.get(i) or (NON_LOCAL if i in found else LOCAL)
        word = verdict.status.value
        if verdict.reason:
            word += f" ({verdict.reason})"
        print(f"{word}\t{a}")
    if args.strict_verdicts and unknown:
        return EXIT_UNKNOWN_VERDICTS
    return EXIT_OK


def _cmd_genuine(args) -> int:
    onto = _load_ontology(args.ontology, args.strict)
    budget = _budget(args)
    results = genuine_modules(
        onto, LocalityFlavor(args.flavor), refined=args.refined, budget=budget
    )
    chunks = []
    for axiom, result in results:
        chunks.append(f"# seed axiom: {axiom}\n")
        chunks.append(serialize_ontology(result.module))
        chunks.append("\n")
    chunks.append(f"# {len(results)} distinct genuine module(s) of {len(onto)} axioms\n")
    _write_out("".join(chunks), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    budget = _budget(args)
    try:
        cfg = SamplingConfig(
            sample_count=args.samples,
            inclusion_probability=args.p,
            rng_seed=args.seed,
            binned=args.binned,
            bin_count=args.bins,
        )
    except ValueError as exc:  # SamplingConfig is where the options are checked
        raise _CliError(f"invalid sampling options: {exc}", EXIT_PARSE) from None
    modes = MODES if args.mode == "all" else (args.mode,)
    records = []
    unknowns = 0
    paths: dict[str, str] = {}  # the file of each ontology name, which keys the report's rows
    ontologies = []  # all read, and their names checked, before the first test
    for path in args.ontology:
        onto = _load_ontology(path, args.strict)
        if onto.name in paths:
            message = f"{paths[onto.name]} and {path} both name their ontology '{onto.name}'"
            raise _CliError(f"{message}; compare needs distinct names", EXIT_PARSE)
        paths[onto.name] = path
        ontologies.append(onto)
    for onto in ontologies:
        for mode in modes:
            rs = run_comparison(
                onto,
                mode,
                cfg,
                budget=budget,
                measure_timings=args.measure_timings,
            )
            unknowns += rs.unknown_verdicts
            records.extend(rs)
    _write_out(render_report(records, args.format), args.out)
    if args.strict_verdicts and unknowns:
        return EXIT_UNKNOWN_VERDICTS
    return EXIT_OK


def _cmd_oracle(args) -> int:
    onto = _load_ontology(args.ontology, args.strict)
    sig = _load_signature(args, onto)
    flavor = LocalityFlavor(args.flavor)
    if args.max_domain < 1:  # as find_countermodel checks, but before any axiom, if there is one
        message = f"max_domain must be at least 1, got {args.max_domain}"
        raise _CliError(f"invalid domain cap: {message}", EXIT_PARSE)
    for a in onto.axioms:
        witness = find_countermodel(substitute(a, sig, flavor), args.max_domain)
        if witness is None:
            print(f"not-refuted\t{a}")
        else:
            print(f"refuted\t{a}\t{witness}")
    return EXIT_OK


_COMMANDS = {
    "extract": _cmd_extract,
    "check": _cmd_check,
    "genuine": _cmd_genuine,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_out(getattr(args, "out", None))
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has all it wants; the interpreter flushes stdout once
        # more at exit, so what is left goes to nowhere instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except SystemExit as exc:
        # argparse exits 2 on bad flags; --help stays 0
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
