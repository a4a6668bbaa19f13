"""The oracle benchmark's records at workload seeds 0 and 1, pinned by digest.

Builds each workload's corpus and runs one pass through the benchmark's own
`set_up`, `one_pass` and `records_digest`, so a change that alters any
answer the benchmark records fails here, not only in the benchmark's
pass-to-pass gate.
"""
import json
import pathlib
import sys

import pytest

ORACLEBENCH = pathlib.Path(__file__).resolve().parent.parent / "oraclebench"
if str(ORACLEBENCH) not in sys.path:
    sys.path.insert(0, str(ORACLEBENCH))

import run as bench  # noqa: E402

SEED0_DIGESTS = {
    "enum-uns": "026c3500eeed69241e050487824a05fd0f01f3338e378f190fbfa56a8d70e31b",
    "verify-pre": "3299fda9994b5d56dd7b8079434f39e5a1bf3b39a2e894406ae863265522cc12",
}

SEED1_DIGESTS = {
    "enum-uns": "aebf270a1a3e16516ab16d625b4fb80e54958d94665be0bbd0d35ff9c7fa1671",
    "verify-pre": "17c27102966b480e235210dbdb01b7a01662748220bdf8c2e0d52aab495726e4",
}


def pass_digest(workload, seed, tmp_path):
    """The records digest of one pass over the workload's corpus at `seed`."""
    wl = bench.WORKLOADS[workload]
    bench.set_up(wl, seed, tmp_path / "bench")
    path = bench.one_pass(wl, tmp_path / "bench", tmp_path / "out")
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    return bench.records_digest(records)


@pytest.mark.parametrize("workload", sorted(SEED0_DIGESTS))
def test_seed0_records_digest(workload, tmp_path):
    assert pass_digest(workload, 0, tmp_path) == SEED0_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(SEED1_DIGESTS))
def test_seed1_records_digest(workload, tmp_path):
    assert pass_digest(workload, 1, tmp_path) == SEED1_DIGESTS[workload]
