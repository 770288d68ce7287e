"""The benchmark's pinned inputs are still what `src/` generates.

`benchmark/run.py` refuses to run (exit 3) when draw 0 of a workload no
longer matches `benchmark/digests.json`; this catches such a change to
`random_case`, `SUITE_GRAMMARS` or `suite_input` before any benchmark
run.  It only reads `benchmark/`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import inputs  # noqa: E402  (benchmark/inputs.py)

DIGESTS = json.loads((BENCHMARK / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_pinned_inputs_match_their_digest(workload):
    assert inputs.make_inputs(workload).digest() == DIGESTS[workload]
