"""Tests of the end-to-end benchmark itself.

    python3 -m pytest -q e2ebench

Every workload must pass a smoke run at a tiny size, and each injected
fault (a corrupted counter, a flipped seed bit, a batch the reference never
sees) must make every workload report failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
from workloads import FAULTS, TINY, WORKLOADS, execute  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def test_reference_self_test() -> None:
    ref.self_test()


@pytest.mark.parametrize("bits", [1, 5, 10, 11])
def test_reference_signs_match_the_program(bits: int) -> None:
    from repro.generators.eh3 import EH3

    rng = np.random.default_rng(bits)
    for _ in range(4):
        s0, s1 = int(rng.integers(0, 2)), int(rng.integers(0, 1 << bits))
        program = EH3(bits, s0, s1).values(np.arange(1 << bits, dtype=np.uint64))
        assert np.array_equal(program.astype(np.int64), ref.eh3_signs(s0, s1, bits))


def _failed(outcome) -> int:
    return sum(outcome.workload.ledger.failed.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes(workload: str, tmp_path) -> None:
    outcome = execute(workload, 3, 0, str(tmp_path), TINY, rounds=3)
    ledger = outcome.workload.ledger
    assert _failed(outcome) == 0, ledger.failures
    assert ledger.attempted["counter_check"] > 0
    assert outcome.workload.events > 0
    assert len(outcome.setup_seconds) == 2 * TINY.setups


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_injected_fault_fails_operations(workload: str, fault: str, tmp_path) -> None:
    outcome = execute(workload, 4, 0, str(tmp_path), TINY, frozenset([fault]), rounds=2)
    assert _failed(outcome) > 0


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_declared_metrics(trace: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = _run("--workload", "batches", "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_cli_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "records", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
