import glob
import itertools
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import locmod.cli as cli
import locmod.extractor as extractor
from locmod import (
    SEM_STAR,
    SYN_STAR,
    LocalityFlavor,
    Signature,
    is_semantically_local,
    is_syntactically_local,
    parse_ontology,
)
from locmod.cli import _parse_terms, main
from locmod.parser import MAX_EXACT_NESTING, MAX_NESTING, ParseFailure, parse_signature
from conftest import CORPUS_NAMES, fixture_path, load_fixture, nested_text

SRC = Path(__file__).resolve().parents[1] / "src"


def fx(name):
    return str(fixture_path(name))


class TestExtract:
    def test_extract_to_stdout(self, capsys):
        code = main(
            [
                "extract",
                "--flavor",
                "bot",
                "--ontology",
                fx("koala.ofs"),
                "--signature",
                fx("koala_seed.sig"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        module = parse_ontology(out)
        assert module.name == "koala"

    def test_every_flavor_name_is_accepted(self, tmp_path, capsys):
        for flavor in ("bot", "top", "star", "sem-bot", "sem-top", "sem-star"):
            code = main(
                [
                    "extract",
                    "--flavor",
                    flavor,
                    "--ontology",
                    fx("inverse_loop.ofs"),
                    "--terms",
                    "C:Car",
                ]
            )
            assert code == 0, flavor
            capsys.readouterr()

    def test_inline_terms_win_with_a_warning(self, capsys):
        code = main(
            [
                "extract",
                "--flavor",
                "bot",
                "--ontology",
                fx("koala.ofs"),
                "--signature",
                fx("koala_seed.sig"),
                "--terms",
                "C:Koala",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "--terms wins" in captured.err

    def test_verbose_trace(self, capsys):
        code = main(
            [
                "extract",
                "--flavor",
                "bot",
                "--ontology",
                fx("taxonomy.ofs"),
                "--terms",
                "C:Duck",
                "--verbose",
            ]
        )
        assert code == 0
        assert "round 1" in capsys.readouterr().err

    def test_verbose_trace_of_star_flavors(self, capsys, monkeypatch):
        # every nested step of a star extraction reports its rounds, each
        # labelled with its step, the flavor of its pass and its number;
        # the last pass that ran keeps its whole scope, the module, so its
        # lines add exactly the module
        passes = []
        run = extractor._extract

        def recorded(o, flavor, scope, sig, step=1, **options):
            passes.append(f"step {step}, {flavor} round ")
            return run(o, flavor, scope, sig, step, **options)

        monkeypatch.setattr(extractor, "_extract", recorded)
        for flavor, pair in (("star", SYN_STAR), ("sem-star", SEM_STAR)):
            inner = str(pair[1])
            for terms in ("C:Koala", "C:Student,R:hasChildren,R:hasGender"):
                passes.clear()
                code = main(
                    [
                        "extract",
                        "--flavor",
                        flavor,
                        "--ontology",
                        fx("koala.ofs"),
                        "--terms",
                        terms,
                        "--verbose",
                    ]
                )
                assert code == 0
                captured = capsys.readouterr()
                *lines, summary = captured.err.splitlines()
                assert summary.startswith("module: "), flavor
                labels = [line.split(": + ", 1)[0] for line in lines]
                assert labels[0] == f"step 1, {inner} round 1", flavor
                # the lines of one round come together: no label repeats
                runs = [x for i, x in enumerate(labels) if i == 0 or x != labels[i - 1]]
                assert len(runs) == len(set(runs)), (flavor, terms)
                added = sorted(
                    line.split(": + ", 1)[1] for line in lines if line.startswith(passes[-1])
                )
                module = parse_ontology(captured.out)
                assert added == sorted(map(str, module.axioms)), (flavor, terms)
            assert module.axioms, flavor

    def test_verbose_output_does_not_depend_on_the_hash_seed(self):
        # string hashing differs between the two interpreters, and with it
        # the order of every set of names the extraction walks
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
            )
            outputs = []
            for flavor in ("bot", "top"):
                proc = subprocess.run(
                    [sys.executable, "-m", "locmod", "extract", "--flavor", flavor]
                    + ["--ontology", fx("taxonomy.ofs"), "--terms", "C:Duck,C:Plant"]
                    + ["--verbose"],
                    env=env,
                    capture_output=True,
                    check=True,
                )
                outputs.append((proc.stdout, proc.stderr))
            runs.append(outputs)
        assert runs[0] == runs[1]
        assert all(b"round 2" in err for _, err in runs[0])

    def test_malformed_input_exits_1(self, capsys):
        code = main(
            ["extract", "--flavor", "bot", "--ontology", fx("bad_syntax.ofs")]
        )
        assert code == 1
        assert ":2:" in capsys.readouterr().err  # line number in the diagnostic

    def test_unsupported_construct_exits_2(self, capsys):
        code = main(
            ["extract", "--flavor", "bot", "--ontology", fx("unsupported.ofs")]
        )
        assert code == 2

    def test_missing_file_exits_1(self, capsys):
        assert main(["extract", "--flavor", "bot", "--ontology", "no/such.ofs"]) == 1

    def test_refined_flag_changes_the_module(self, capsys):
        args = [
            "extract",
            "--flavor",
            "bot",
            "--ontology",
            fx("inverse_loop.ofs"),
            "--terms",
            "R:partOf",
        ]
        assert main(args) == 0
        plain = parse_ontology(capsys.readouterr().out)
        assert main(args + ["--refined"]) == 0
        refined = parse_ontology(capsys.readouterr().out)
        assert len(refined) < len(plain)


def check_reference(name, flavor, terms, refined, strict):
    """The stdout and exit code of `locmod check`, from a plain check of
    each axiom on its own."""
    onto = load_fixture(name)
    sig, flavor = _parse_terms(terms, onto), LocalityFlavor(flavor)
    lines, unknowns = [], 0
    for a in onto.axioms:
        if flavor.is_syntactic:
            word = "local" if is_syntactically_local(a, sig, flavor, refined) else "non-local"
        else:
            verdict = is_semantically_local(a, sig, flavor)
            word = verdict.status.value
            if verdict.reason:
                word += f" ({verdict.reason})"
                unknowns += 1
        lines.append(f"{word}\t{a}\n")
    return "".join(lines), 3 if strict and unknowns else 0


class TestCheck:
    def test_verdict_lines(self, capsys):
        code = main(
            [
                "check",
                "--flavor",
                "sem-bot",
                "--ontology",
                fx("inverse_loop.ofs"),
                "--terms",
                "R:partOf",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("local")  # the self-inverse axiom

    def test_strict_verdicts_exit_3(self, tmp_path, capsys):
        # a max-cardinality over a role sent to the universal relation is
        # exactly what the reasoner refuses to count
        onto = tmp_path / "valve.ofs"
        onto.write_text(
            "Ontology(valve\n  SubClassOf(B ObjectMinCardinality(2 r A))\n)\n"
        )
        args = [
            "check",
            "--flavor",
            "sem-top",
            "--ontology",
            str(onto),
            "--terms",
            "C:A,C:B",
        ]
        assert main(args + ["--strict-verdicts"]) == 3
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("unknown (counting over the universal role)\t")

    def test_unknown_verdict_names_the_step_limit(self, tmp_path, capsys):
        onto = tmp_path / "starved.ofs"
        onto.write_text("Ontology(starved\n  SubClassOf(A ObjectSomeValuesFrom(r B))\n)\n")
        args = ["check", "--flavor", "sem-bot", "--ontology", str(onto), "--terms", "C:A,C:B"]
        assert main(args + ["--max-steps", "1"]) == 0
        assert capsys.readouterr().out.startswith("unknown (rule application limit reached)\t")
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("non-local\t")

    def test_verdicts_equal_a_check_of_each_axiom(self, capsys):
        # every flavor goes through the verdict memo; its output must not show it
        rng = random.Random(12)
        outputs = set()
        for name in CORPUS_NAMES:
            names = load_fixture(name).names
            entities = [f"C:{n}" for n in sorted(names.concept_names)]
            entities += [f"R:{n}" for n in sorted(names.role_names)]
            drawn = [",".join(e for e in entities if rng.random() < 0.5) for _ in range(3)]
            signatures = ["", *drawn]
            if name == "mixed.ofs":
                signatures.append("C:SmallTeam,C:Team")
            flavors = ("bot", "top", "sem-bot", "sem-top")
            for terms, flavor in itertools.product(signatures, flavors):
                for refined, strict in itertools.product((False, True), repeat=2):
                    args = ["check", "--flavor", flavor, "--ontology", fx(name), "--terms", terms]
                    args += ["--refined"] * refined + ["--strict-verdicts"] * strict
                    code = main(args)
                    out = capsys.readouterr().out
                    assert (out, code) == check_reference(name, flavor, terms, refined, strict)
                    outputs.update(out.splitlines())
        assert (
            "unknown (counting over the universal role)\t"
            "SmallTeam ≡ Team ⊓ ∀memberOf.Employee ⊓ ≥2 memberOf.⊤"
        ) in outputs
        # the self-inverse axiom of inverse_loop.ofs with partOf in Σ: local
        # under --refined (or a semantic flavor), non-local under plain bot/top
        assert {"local\tInv(partOf, partOf⁻)", "non-local\tInv(partOf, partOf⁻)"} <= outputs


class TestClosedPipe:
    @pytest.mark.parametrize("command", [["check"], ["extract", "--terms", "C:C0"]])
    def test_a_reader_that_stops_early_ends_the_command_quietly(self, tmp_path, command):
        # far more output than a pipe buffer holds, so the command is
        # still writing when the reader closes its end
        ontology = tmp_path / "chain.ofs"
        axioms = "".join(f"SubClassOf(C{i} C{i + 1})\n" for i in range(10_000))
        ontology.write_text(f"Ontology(<chain>\n{axioms})\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "locmod", *command, "--flavor", "bot"]
        with subprocess.Popen(
            [*argv, "--ontology", str(ontology)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0, err
        assert err == b""


class TestGenuine:
    def test_genuine_listing(self, capsys):
        code = main(
            ["genuine", "--flavor", "bot", "--ontology", fx("taxonomy.ofs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed axiom" in out
        assert "distinct genuine module(s)" in out


class TestCompare:
    def test_markdown_report(self, capsys):
        code = main(
            [
                "compare",
                "--ontology",
                fx("inverse_loop.ofs"),
                "--mode",
                "t1a",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| inverse-loop |" in out
        assert "T1a" in out

    def test_csv_bytes_are_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = [
            "compare",
            "--ontology",
            fx("koala.ofs"),
            fx("mixed.ofs"),
            "--samples",
            "80",
            "--seed",
            "7",
            "--format",
            "csv",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_quiet_corpus_renders_header_only(self, tmp_path):
        out = tmp_path / "quiet.csv"
        code = main(
            [
                "compare",
                "--ontology",
                fx("taxonomy.ofs"),
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().count("\n") == 1


    def test_strict_verdicts_see_cases_without_a_difference(self, capsys):
        # koala's T1a cases meet 2,363 UNKNOWN verdicts at one step, and
        # none of them has a difference record
        args = ["compare", "--ontology", fx("koala.ofs"), "--mode", "t1a", "--strict-verdicts"]
        assert main(args + ["--max-steps", "1"]) == 3
        assert capsys.readouterr().out.count("\n") == 2  # the table header only
        assert main(args) == 0


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "command",
        [
            ["extract", "--flavor", "bot", "--terms", "C:Student"],
            ["genuine", "--flavor", "bot"],
            ["compare", "--mode", "t2"],
        ],
        ids=["extract", "genuine", "compare"],
    )
    def test_one_line_and_exit_1(self, tmp_path, capsys, command):
        for out in (tmp_path, tmp_path / "missing" / "out.txt"):
            argv = command + ["--ontology", fx("koala.ofs"), "--out", str(out)]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"cannot write {out}: ")
            assert err.count("\n") == 1


class TestOutBeforeWork:
    # an --out that cannot be written is refused before any parsing or
    # extraction, so the work functions must never be reached
    COMMANDS = {
        "extract_module": ["extract", "--flavor", "bot", "--terms", "C:Student"],
        "genuine_modules": ["genuine", "--flavor", "bot"],
        "run_comparison": ["compare", "--mode", "t2"],
    }

    @pytest.mark.parametrize("work", sorted(COMMANDS))
    def test_refused_before_the_work(self, tmp_path, capsys, monkeypatch, work):
        def never(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(cli, work, never)
        for out in (tmp_path, tmp_path / "missing" / "out.txt"):
            argv = self.COMMANDS[work] + ["--ontology", fx("koala.ofs"), "--out", str(out)]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"cannot write {out}: " + (
                f"[Errno 21] Is a directory: '{out}'\n"
                if out == tmp_path
                else f"[Errno 2] No such file or directory: '{out}'\n"
            )

    def test_a_parse_error_leaves_an_existing_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "module.ofs"
        out.write_bytes(b"kept\r\nas it was\n")
        argv = ["extract", "--flavor", "bot", "--ontology", fx("bad_syntax.ofs"), "--out", str(out)]
        assert main(argv) == 1
        assert out.read_bytes() == b"kept\r\nas it was\n"


class TestUsage:
    def test_help_everywhere(self, capsys):
        assert main(["--help"]) == 0
        for sub in ("extract", "check", "genuine", "compare"):
            assert main([sub, "--help"]) == 0
            assert "--ontology" in capsys.readouterr().out

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["extract", "--no-such-flag"]) == 1

    def test_oracle_subcommand_is_hidden_but_works(self, capsys):
        assert "oracle" not in main_help(capsys)
        code = main(
            [
                "oracle",
                "--flavor",
                "sem-bot",
                "--ontology",
                fx("inverse_loop.ofs"),
                "--terms",
                "R:partOf",
                "--max-domain",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "not-refuted" in out.split("\n")[0]  # the self-inverse tautology

    def test_invariant_violation_exits_4(self, monkeypatch, capsys):
        import locmod.cli as cli
        from locmod import InvariantViolation

        def boom(*args, **kwargs):
            raise InvariantViolation("forced for the exit-code test")

        monkeypatch.setattr(cli, "run_comparison", boom)
        code = main(["compare", "--ontology", fx("taxonomy.ofs")])
        assert code == 4
        assert "invariant violation" in capsys.readouterr().err

    def test_budget_env_overrides(self, monkeypatch, capsys):
        monkeypatch.setenv("LOCMOD_MAX_STEPS", "2")
        code = main(
            [
                "check",
                "--flavor",
                "sem-bot",
                "--ontology",
                fx("koala.ofs"),
                "--terms",
                "C:Student,R:hasChildren,R:hasGender",
                "--strict-verdicts",
            ]
        )
        # a two-step budget cannot finish the student definition: unknown
        # verdicts must surface through the strict flag
        assert code == 3


    @pytest.mark.parametrize("var", ["LOCMOD_MAX_STEPS"])
    def test_malformed_budget_env_is_a_usage_error(self, monkeypatch, capsys, var):
        monkeypatch.setenv(var, "abc")
        code = main(["check", "--flavor", "bot", "--ontology", fx("koala.ofs")])
        assert code == 1
        assert capsys.readouterr().err == f"{var} must be a number, not 'abc'\n"

    def test_only_a_budget_reads_the_budget_env(self, monkeypatch, capsys):
        # help and the oracle build no budget, and a flag overrides the
        # variable, so none of them reads a malformed value
        monkeypatch.setenv("LOCMOD_MAX_STEPS", "abc")
        assert main(["--help"]) == 0
        assert main(["check", "--help"]) == 0
        assert "200000" in capsys.readouterr().out
        oracle = ["oracle", "--flavor", "sem-bot", "--ontology", fx("inverse_loop.ofs")]
        assert main(oracle + ["--max-domain", "2"]) == 0
        check = ["check", "--flavor", "sem-bot", "--ontology", fx("koala.ofs")]
        assert main(check + ["--max-steps", "50000"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_bad_budget_flag_is_a_usage_error(self, capsys, steps):
        # a step limit below 1 would make every semantic verdict UNKNOWN
        for command in (
            ["extract", "--flavor", "sem-star", "--terms", "C:Koala"],
            ["check", "--flavor", "sem-top", "--terms", "C:Koala"],
            ["genuine", "--flavor", "sem-bot"],
            ["compare"],
        ):
            assert main(command + ["--ontology", fx("koala.ofs"), f"--max-steps={steps}"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"invalid budget: max_steps must be positive, got {steps}\n"
            assert captured.out == ""

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_bad_domain_cap_is_a_usage_error(self, capsys, cap):
        # an empty search would call every axiom not refuted
        oracle = ["oracle", "--flavor", "sem-bot", "--ontology", fx("koala.ofs")]
        assert main(oracle + ["--max-domain", cap]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invalid domain cap: max_domain must be at least 1, got {cap}\n"
        assert captured.out == ""

    def test_bad_domain_cap_is_a_usage_error_without_axioms(self, tmp_path, capsys):
        # checked before the axioms, so an ontology with none fails as koala does
        empty = tmp_path / "empty.ofs"
        empty.write_text("Ontology(\n)\n")
        oracle = ["oracle", "--flavor", "sem-bot", "--ontology", str(empty)]
        assert main(oracle + ["--max-domain", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "invalid domain cap: max_domain must be at least 1, got 0\n"
        assert captured.out == ""
        assert main(oracle + ["--max-domain", "1"]) == 0

    def test_bad_budget_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("LOCMOD_MAX_STEPS", "-1")
        code = main(["check", "--flavor", "sem-bot", "--ontology", fx("koala.ofs")])
        assert code == 1
        assert capsys.readouterr().err == "invalid budget: max_steps must be positive, got -1\n"

    def test_no_wall_clock_setting(self, monkeypatch, capsys):
        # steps alone bound a command-line check: there is no seconds flag,
        # and a leftover seconds variable is not read
        for command in (
            ["extract", "--flavor", "sem-bot"],
            ["check", "--flavor", "sem-top"],
            ["genuine", "--flavor", "sem-bot"],
            ["compare"],
        ):
            assert main(command + ["--ontology", fx("koala.ofs"), "--max-seconds=5"]) == 1
            assert "unrecognized arguments: --max-seconds=5" in capsys.readouterr().err
        monkeypatch.setenv("LOCMOD_MAX_SECONDS", "abc")
        assert main(["check", "--flavor", "sem-bot", "--ontology", fx("koala.ofs")]) == 0

    def test_check_ignores_the_clock(self, monkeypatch, capsys):
        # ≤100 memberOf.⊤ takes the tableau past the meter's first clock
        # read; a clock that jumps 1,000 s per read changes no line
        command = [
            "check", "--flavor", "sem-top", "--ontology", fx("mixed.ofs"),
            "--terms", "C:Team,C:LargeTeam,R:memberOf",
        ]
        assert main(command) == 0
        expected = capsys.readouterr().out
        start = time.monotonic()
        reads = iter(range(1, 10**9))
        monkeypatch.setattr(time, "monotonic", lambda: start + 1000.0 * next(reads))
        assert main(command) == 0
        assert capsys.readouterr().out == expected
        assert next(reads) > 3  # the checks did read the clock

    @pytest.mark.parametrize(
        "flags, problem",
        [
            (["--samples", "0"], "sample count must be positive"),
            (["--p", "1.5"], "inclusion probability must be strictly between 0 and 1"),
            (["--binned", "--bins", "0"], "bin count must be positive"),
        ],
    )
    def test_bad_sampling_option_is_a_usage_error(self, capsys, flags, problem):
        code = main(["compare", "--ontology", fx("taxonomy.ofs")] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"invalid sampling options: {problem}\n"


class TestTermNames:
    def test_terms_and_signature_file_reduce_names_alike(self, tmp_path, capsys):
        # an IRI or prefixed name is reduced to its local fragment by both;
        # in a signature file a `#` inside an IRI is not a comment
        entries = ["C:ex:Koala", "R:<http://example.org/koala#hasHabitat>", "C:Student"]
        text = "\n".join(entries) + "  # seed terms\n"
        koala = parse_ontology(Path(fx("koala.ofs")).read_text())
        assert _parse_terms(",".join(entries), koala) == parse_signature(text, koala) == (
            Signature.of_kinds({"Koala": "C", "hasHabitat": "R", "Student": "C"})
        )
        sig = tmp_path / "seed.sig"
        sig.write_text(text)
        base = ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs")]
        modules = []
        for source in (["--terms", ",".join(entries)], ["--signature", str(sig)]):
            assert main(base + source) == 0
            modules.append(parse_ontology(capsys.readouterr().out).axioms)
        assert modules[0] == modules[1]
        assert len(modules[0]) > 4


class TestEmptyNames:
    # a kind prefix with no name after it is an error at that entry, not
    # the name ''
    @pytest.mark.parametrize("terms", ["C:", "C:,R:hasChildren", "C:Koala,I:ex:"])
    def test_inline_terms(self, capsys, terms):
        code = main(["extract", "--flavor", "bot", "--ontology", fx("koala.ofs"), "--terms", terms])
        assert code == 1
        captured = capsys.readouterr()
        empty = [t for t in terms.split(",") if t.endswith(":")][0]
        assert captured.err == f"inline term '{empty}' has no name\n"
        assert captured.out == ""

    def test_signature_file(self, tmp_path, capsys):
        koala = parse_ontology(Path(fx("koala.ofs")).read_text())
        with pytest.raises(ParseFailure) as failure:
            parse_signature("C:Koala\nC:\nR: # nothing\n", koala)
        assert [(e.line, e.message) for e in failure.value.errors] == [
            (2, "'C:' has no name"),
            (3, "'R:' has no name"),
        ]
        sig = tmp_path / "seed.sig"
        sig.write_text("C:\n")
        base = ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs")]
        code = main(base + ["--signature", str(sig)])
        assert code == 1
        assert capsys.readouterr().err == f"{sig}:1:1: Syntax: 'C:' has no name\n"


class TestKindConflicts:
    def test_inline_terms(self, capsys):
        code = main(
            ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs"), "--terms", "C:Koala,R:Koala"]
        )
        assert code == 1
        assert capsys.readouterr().err == "inline term 'R:Koala' gives 'Koala' a second kind\n"

    def test_signature_file(self, tmp_path, capsys):
        sig = tmp_path / "seed.sig"
        sig.write_text("C:Student\nR:Student\n")
        code = main(
            ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs"), "--signature", str(sig)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"{sig}:2:1: UnknownEntity: 'Student' used both as class and object property\n"
        )


class TestKindsOfTheOntology:
    # a kind prefix that contradicts the ontology is an error at its term
    # or line; a prefixed name the ontology does not use is taken as given
    EXTRACT = ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs")]

    def test_inline_terms(self, capsys):
        assert main(self.EXTRACT + ["--terms", "C:Koala,C:hasChildren"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "inline term 'C:hasChildren': "
            "'hasChildren' used both as object property and class\n"
        )
        assert captured.out == ""

    def test_signature_file(self, tmp_path, capsys):
        sig = tmp_path / "seed.sig"
        sig.write_text("C:Koala\nC:hasChildren\n")
        assert main(self.EXTRACT + ["--signature", str(sig)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"{sig}:2:1: UnknownEntity: 'hasChildren' used both as object property and class\n"
        )
        assert captured.out == ""

    def test_a_name_the_ontology_does_not_use_is_legal(self, tmp_path, capsys):
        sig = tmp_path / "seed.sig"
        sig.write_text("C:Nope\nR:hasChildren\n")
        for source in (["--terms", "C:Nope,R:hasChildren"], ["--signature", str(sig)]):
            assert main(self.EXTRACT + source) == 0
            assert capsys.readouterr().err == ""


class TestUnreadableInput:
    def test_a_non_utf8_ontology_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ofs"
        path.write_bytes(b"Ontology(\xff\xfe SubClassOf(A B))\n")
        assert main(["check", "--flavor", "bot", "--ontology", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ") and "0xff" in err
        assert err.count("\n") == 1

    def test_a_non_utf8_signature_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.sig"
        path.write_bytes(b"Koala\n\xff\n")
        args = ["extract", "--flavor", "bot", "--ontology", fx("koala.ofs")]
        assert main(args + ["--signature", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1

    def test_a_byte_order_mark_is_skipped(self, tmp_path, capsys):
        text = Path(fx("koala.ofs")).read_bytes()
        seed = Path(fx("koala_seed.sig")).read_bytes()
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            (tmp_path / "o.ofs").write_bytes(mark + text)
            (tmp_path / "s.sig").write_bytes(mark + seed)
            for flavor in ("bot", "sem-bot"):
                args = ["check", "--flavor", flavor, "--ontology", str(tmp_path / "o.ofs")]
                assert main(args + ["--signature", str(tmp_path / "s.sig")]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:] and outputs[0]


class TestReportNames:
    NAME = 'a,b|c "q"'

    def compare(self, tmp_path, capsys, name, *flags):
        text = Path(fx("inverse_loop.ofs")).read_text(encoding="utf-8")
        path = tmp_path / "named.ofs"
        path.write_text(text.replace("Ontology(inverse-loop", f"Ontology(<http://x/{name}>"))
        assert main(["compare", "--ontology", str(path), "--mode", "t1a", *flags]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", [NAME, "line\nbreak"])
    def test_a_csv_row_keeps_twelve_fields(self, tmp_path, capsys, name):
        import csv

        out = self.compare(tmp_path, capsys, name, "--format", "csv")
        header, *rows = csv.reader(out.splitlines(keepends=True))
        assert len(header) == 12 and rows
        assert all(len(row) == 12 and row[0] == name for row in rows)

    def test_a_markdown_row_keeps_eight_cells(self, tmp_path, capsys):
        lines = self.compare(tmp_path, capsys, self.NAME + "\nx").splitlines()
        assert len(lines) == 3
        cells = re.split(r"(?<!\\)\|", lines[2])[1:-1]
        assert len(cells) == 8
        assert cells[0] == ' a,b\\|c "q" x '

    def test_two_ontologies_of_one_name_are_refused(self, tmp_path, capsys):
        # unnamed ontologies are all named ''
        one = tmp_path / "u1.ofs"
        three = tmp_path / "u3.ofs"
        one.write_text("Ontology(\n  SubClassOf(A B)\n)\n")
        three.write_text("Ontology(\n  SubClassOf(A B)\n  SubClassOf(B C)\n  SubClassOf(C D)\n)\n")
        out = tmp_path / "report.md"
        args = ["compare", "--ontology", str(one), str(three), "--mode", "t1b", "--seed", "1"]
        assert main(args + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{one} and {three} both name their ontology ''; compare needs distinct names\n"
        assert not out.exists() and captured.out == ""


class TestCompareReadsEveryFileFirst:
    # a fault in the last file ends the command before the first test runs:
    # a parse error, or the repeated name of a second koala.ofs
    @pytest.mark.parametrize("last", ["bad_syntax.ofs", "koala.ofs"])
    def test_a_fault_in_the_last_file_runs_no_test(self, monkeypatch, capsys, last):
        calls = []
        monkeypatch.setattr(cli, "run_comparison", lambda *a, **kw: calls.append(a))
        files = [fx(name) for name in CORPUS_NAMES] + [fx(last)]
        assert main(["compare", "--ontology", *files]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(fx(last))
        assert calls == []


class TestExactNesting:
    """Nested exact cardinalities share their class between two
    restrictions, so the program is run in a subprocess with a timeout: a
    lost limit fails instead of hanging."""

    def run(self, depth, tmp_path, last="SubClassOf(A DataHasValue(p 1))"):
        exact = "ObjectExactCardinality(1 r "
        path = tmp_path / "exact.ofs"
        path.write_text(
            f"Ontology(t\n  SubClassOf(A B)\n  SubClassOf(A {exact * depth}B{')' * depth})\n"
            f"  {last}\n)\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "locmod", "check", "--flavor", "sem-bot"]
            + ["--ontology", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        column = len("  SubClassOf(A ") + len(exact) * MAX_EXACT_NESTING + 1
        return proc, column

    def test_the_limit_parses(self, tmp_path):
        proc, _ = self.run(MAX_EXACT_NESTING, tmp_path, last="SubClassOf(B A)")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == 3

    @pytest.mark.parametrize("depth", [MAX_EXACT_NESTING + 1, 40])
    def test_one_form_deeper_is_refused_at_its_keyword(self, tmp_path, depth):
        proc, column = self.run(depth, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"{tmp_path / 'exact.ofs'}:3:{column}: UnsupportedConstruct: "
            f"ObjectExactCardinality nested more than {MAX_EXACT_NESTING} deep",
            f"{tmp_path / 'exact.ofs'}:4:16: UnsupportedConstruct: "
            "unsupported construct 'DataHasValue'",
        ]


def main_help(capsys):
    main(["--help"])
    return capsys.readouterr().out


class TestNestingLimit:
    COMMANDS = [["check", "--flavor", flavor] for flavor in ("bot", "top", "sem-bot", "sem-top")]
    COMMANDS += [
        ["extract", "--flavor", flavor, "--terms", "C:A,C:C"]
        for flavor in ("bot", "top", "star", "sem-bot", "sem-star")
    ]
    COMMANDS += [["extract", "--verbose", "--flavor", "bot", "--terms", "C:A"]]

    def run(self, depth, tmp_path, capsys):
        path = tmp_path / "deep.ofs"
        path.write_text(nested_text(depth), encoding="utf-8")
        for command in self.COMMANDS:
            code = main(command[:1] + ["--ontology", str(path)] + command[1:])
            yield command, code, capsys.readouterr()

    def test_every_command_works_at_the_limit(self, tmp_path, capsys):
        for command, code, captured in self.run(MAX_NESTING, tmp_path, capsys):
            assert code == 0, command
            if command[0] == "check":
                assert len(captured.out.splitlines()) == 2

    def test_one_form_deeper_exits_1_with_the_position(self, tmp_path, capsys):
        column = nested_text(MAX_NESTING + 1).index("B") + 1
        for command, code, captured in self.run(MAX_NESTING + 1, tmp_path, capsys):
            assert code == 1, command
            assert f"deep.ofs:1:{column}: Syntax: forms nested deeper than" in captured.err


def readme_commands(readme: str) -> list[list[str]]:
    """The argument lists of the `locmod …` lines in the `sh` blocks of
    README's "Command line" section, split and globbed as a shell would."""
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [
        [match for arg in shlex.split(line)[1:] for match in sorted(glob.glob(arg)) or [arg]]
        for block in re.findall(r"```sh\n(.*?)```", section, re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("locmod ")
    ]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    commands = readme_commands((root / "README.md").read_text(encoding="utf-8"))
    assert len(commands) >= 5
    for argv in commands:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_readme_names_only_real_options():
    # a --flag in the command-line sections must be an option of some
    # subcommand, and a LOCMOD_* variable anywhere must be one cli reads
    import argparse
    import inspect

    import locmod.cli as cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sections = [
        readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
        for title in ("Command line", "File formats")
    ]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "".join(sections)))
    (commands,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option for sub in commands.choices.values() for option in sub._option_string_actions
    }
    assert len(flags) >= 10
    assert flags <= options, flags - options
    variables = set(re.findall(r"LOCMOD_[A-Z_]+", readme))
    source = inspect.getsource(cli)
    assert variables and {v for v in variables if f'"{v}"' not in source} == set()
