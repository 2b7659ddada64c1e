"""The ``verify`` records of the benchmark's corpus, and the ``exhaustive``
reports of the small sweeps, pinned.

``benchmarks/inputs.py`` builds the seeded graph6 corpus that the
verify-corpus benchmark streams through ``run_verification``. This test
loads it by path, as the benchmark does, and pins the sha256 of the
records of seeds 1, 2 and 3 with the timing field dropped, so a change that
moves any status, strategy, witness, certificate or reason on the corpus
fails here. The concatenated stdout of ``rowspace exhaustive --n k`` for
k = 1..5 is pinned the same way, key order included.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rowspace.cli import main
from rowspace.families import build
from rowspace.harness import run_verification

INPUTS = Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"

SEED_1_DIGEST = "fc09d73856e7cf51534470b1acecb8f3d8047bb968118c4e2f612559d68388be"
SEED_DIGESTS = {
    2: "ec8a9685fcdc637a3f1488e0956f712d0a556457ba9cdd5ef297fb132dad9206",
    3: "6ab58372f98198408e86202f2013696281cf9042b193c62bc1dc642b948579e7",
}

EXHAUSTIVE_1_TO_5_DIGEST = "8714920d41210e922be6e98310a5f3a233e31435fec0825642076016c5b1b621"


def load_inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def corpus_digest(seed: int) -> str:
    """sha256 of the seed's records, one JSON line each, without timings."""
    inputs = load_inputs()
    corpus = inputs.verify_corpus(
        seed,
        [build(name, size).adj for name, size in inputs.LARGE_FAMILIES],
        [build(name, size).adj for name, size in inputs.COVERAGE_FAMILIES],
    )
    lines = []
    for record in run_verification([line.graph6 for line in corpus]):
        fields = record.to_json()
        del fields["elapsed_us"]
        lines.append(json.dumps(fields))
    assert len(lines) == 499
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_verify_records_of_corpus_seed_1_are_pinned():
    assert corpus_digest(1) == SEED_1_DIGEST


@pytest.mark.parametrize("seed", sorted(SEED_DIGESTS))
def test_verify_records_of_corpus_seeds_2_and_3_are_pinned(seed):
    assert corpus_digest(seed) == SEED_DIGESTS[seed]


def test_exhaustive_reports_for_n_up_to_5_are_pinned(capsys):
    for k in range(1, 6):
        assert main(["exhaustive", "--n", str(k)]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 5
    assert hashlib.sha256(out.encode()).hexdigest() == EXHAUSTIVE_1_TO_5_DIGEST
