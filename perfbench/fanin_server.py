"""Server process of the sensor-fanin workload.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 -u -m perfbench.fanin_server REPORT.json SPANS.jsonl TRACE -- serve ...

Runs ``repro-80211 serve ...`` unchanged (``repro.cli.main``).  With
``TRACE`` = 1 the layer probes are installed first and the spans are
written to ``SPANS.jsonl``.  When the command returns, ``REPORT.json``
receives its exit code, this process's peak RSS and the span summary.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    report_path, spans_path, traced, separator, *serve = argv
    if separator != "--":
        raise SystemExit("usage: REPORT SPANS TRACE -- serve ...")
    tracer = None
    if traced == "1":
        from perfbench.layers import PROBES
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer, PROBES)
    from repro.cli import main as cli_main

    code = cli_main(serve)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"exit": code, "peak_rss_mb": peak_kib / 1024.0}
    if tracer is not None:
        report["summary"] = tracer.summary()
        tracer.dump(Path(spans_path), header={"argv": serve})
    Path(report_path).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
