"""The process that hosts the program under test.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 -m perfbench.child SPEC.json RESULT.json

``SPEC.json`` names the workload and its generated inputs; the child
runs the workload's ``program(spec, tracer)`` and writes its rounds,
its own peak RSS and (traced runs) the span summary to ``RESULT.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

from perfbench.common import peak_rss_mb
from perfbench.tracing import Tracer


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    module = importlib.import_module(
        "perfbench.workloads." + spec["workload"].replace("-", "_")
    )
    tracer = Tracer()
    rounds = module.program(spec, tracer)
    result = {"rounds": rounds, "peak_rss_mb": peak_rss_mb()}
    if spec["trace"]:
        result["summary"] = tracer.summary()
        tracer.dump(Path(spec["spans_path"]), header=spec["env"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
