"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones from a run with spans around every
call into scparse.  Results, failures and spans also go to
benchmark/results/.

--seed orders the cases within each pass; the inputs themselves come
from --draw: draw 0 (the default) is the pinned input set, checked
against digests.json, and any other draw is a fresh one.  After an
intended change to the inputs, re-pin them with

    python3 benchmark/run.py --pin
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checkout import RESULTS, use_checkout_sources

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def pin(make_inputs, workloads) -> dict:
    digests = {name: make_inputs(name).digest() for name in workloads}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return digests


def main(argv=None) -> int:
    use_checkout_sources()
    from inputs import WORKLOADS, make_inputs
    from workloads import run

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="orders the cases in each pass")
    ap.add_argument("--seconds", type=float, default=15.0, help="measuring time of the passes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--draw", type=int, default=0, help="input draw; 0 is the pinned set")
    ap.add_argument("--pin", action="store_true", help="record the digests of draw 0 and exit")
    args = ap.parse_args(argv)

    if args.pin:
        print(json.dumps(pin(make_inputs, WORKLOADS), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    inputs = make_inputs(args.workload, args.draw)
    if args.draw == 0:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
        actual = inputs.digest()
        if actual != expected:
            print(f"benchmark: the {args.workload} inputs changed: digest {actual}, "
                  f"pinned {expected}.  If the change is intended, re-pin with "
                  f"`python3 benchmark/run.py --pin` and say so.", file=sys.stderr)
            return 3

    result = run(args.workload, inputs, args.seed, args.seconds, bool(args.trace))
    tally = result.tally
    line = {
        "correct": result.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-trace{args.trace}"
    report = dict(line, workload=args.workload, seed=args.seed, draw=args.draw,
                  passes=result.passes, cases=len(inputs.cases),
                  tail_percentile=result.tail_percentile,
                  problems=result.global_problems, failures=tally.problems, raw=result.raw,
                  reference_ms=result.references_ms,
                  phases=result.phases,
                  layers=result.layers, case_ms=result.case_ms,
                  repeats_ms=result.repeats_ms)
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if result.tracer is not None:
        result.tracer.write(stem.with_suffix(".spans.jsonl"))

    print(f"{args.workload}: {len(inputs.cases)} cases, {result.passes} passes, "
          f"{tally.failed} failed, tail = p{result.tail_percentile}")
    for problem in result.global_problems:
        print(f"problem: {problem}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
