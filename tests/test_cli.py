import os
import subprocess
import sys
from pathlib import Path

from locmod import parse_ontology
from locmod.cli import main
from locmod.parser import MAX_NESTING
from conftest import fixture_path, nested_text

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
