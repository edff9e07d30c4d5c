"""The repository benchmark.

Run from the checkout root::

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper-eval``   — simulate ``lecture-hall`` at 30 stations and run the
  Table II/III evaluation for all five parameters;
* ``crowd-stream`` — stream a crowded-venue radiotap pcap through the
  chunked engine with live matching against a 2.5k-device store;
* ``sensor-fanin`` — two sensors stream columnar chunks over TCP into a
  ``repro-80211 serve`` process that checkpoints, merges and publishes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's entry points (:mod:`perfbench.layers`), prints the per-layer
metrics and writes the spans to ``.perfbench/traces/``.  Each run checks
the program's outputs against a reference; the last line of standard
output is the JSON result, preceded by one ``# env`` and one ``# info``
line.  Without the repository's ``src/`` next to ``perfbench/`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-eval", "crowd-stream", "sensor-fanin")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import importlib

    from perfbench.common import Context, environment

    env = environment(args.seed)
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        traces=state / "traces",
    )
    module = importlib.import_module(
        "perfbench.workloads." + args.workload.replace("-", "_")
    )
    try:
        outcome = module.run(ctx, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(outcome.info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
