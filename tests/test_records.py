"""The oracle benchmark's records at workload seed 0, pinned by digest.

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


@pytest.mark.parametrize("workload", sorted(SEED0_DIGESTS))
def test_seed0_records_digest(workload, tmp_path):
    wl = bench.WORKLOADS[workload]
    bench.set_up(wl, 0, tmp_path / "bench")
    path = bench.one_pass(wl, tmp_path / "bench", tmp_path / "out")
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    assert bench.records_digest(records) == SEED0_DIGESTS[workload]
