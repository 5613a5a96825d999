"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench -q

The generators must be deterministic in their seed and emit text that
locmod parses; every workload at tiny size must finish with no failed
operation and report every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from locmod import parse_ontology, parse_signature  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _generated(seed):
    taxo, tc, tr = gen.taxonomy(seed, subtrees=3, nodes=10)
    count, cc, cr = gen.counting(seed, blocks=2)
    synth, sc, sr = gen.synthetic(200)
    return [
        taxo,
        count,
        synth,
        *gen.small_seeds(seed, tc, tr, 3),
        *gen.dense_seeds(seed, cc, cr, 3),
        *gen.wide_seeds(seed, sc, sr, 3, terms=10),
    ]


def test_generators_are_deterministic_in_the_seed():
    assert _generated(3) == _generated(3)
    assert _generated(3) != _generated(4)


def test_generated_text_parses():
    taxo, tc, tr = gen.taxonomy(5)
    count, cc, cr = gen.counting(5)
    synth, _, _ = gen.synthetic(500)
    for text, seeds in (
        (taxo, gen.small_seeds(5, tc, tr, 5)),
        (count, gen.dense_seeds(5, cc, cr, 5)),
        (synth, []),
    ):
        onto = parse_ontology(text)
        assert len(onto) > 0
        for s in seeds:
            assert parse_signature(s, onto).term_count > 0
    assert len(parse_ontology(taxo)) > 800
    assert len(parse_ontology(synth)) == 500


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("taxo-extract", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
