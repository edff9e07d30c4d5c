"""paper-eval: the Table II/III row, one batch job per round.

Each round builds the ``lecture-hall`` preset scaled to 30 stations,
simulates it, interns the trace and runs ``evaluate_trace`` for all
five parameters.  Traffic volume differs between scenario seeds (±6%
frames), so rounds cycle through four scenario seeds derived from the
run's seed and the run reports medians.  Each parameter's
cell (AUC, identification ratio at 1% and 10% FPR) must equal the
object reference path (``columnar=False``), computed in the benchmark
process on an independent simulation of the same scenario.
"""

from __future__ import annotations

import time

from perfbench.common import (
    Context,
    Outcome,
    end_to_end,
    run_child,
    speed_factor,
    timed_rounds,
)
from perfbench.layers import traced_report

PRESET = "lecture-hall"
#: 16 stations × 1.875 = 30 stations.
SCALE = 1.875
FPR_BUDGETS = (0.01, 0.1)
#: ``build_scenario`` takes about a millisecond: repeat it for a steady median.
SETUP_REPEATS = 30
#: Distinct scenarios per run (each checked once against the reference).
SCENARIOS = 4


def scenario_seed(seed: int, index: int) -> int:
    return seed * 1000 + index % SCENARIOS


def program(spec: dict, tracer) -> list[dict]:
    """Child side: simulate and evaluate until the time is up."""
    from repro.core.detection import DetectionConfig
    from repro.core.parameters import ALL_PARAMETERS
    from repro.core.pipeline import evaluate_trace
    from repro.scenarios import build_scenario

    def one_round(index: int, tracer, probe) -> dict:
        seed = scenario_seed(spec["seed"], index)
        with tracer.span("bench.round"):
            setups = []
            with tracer.span("bench.setup"):
                for _ in range(spec["setup_repeats"]):
                    begin = time.perf_counter()
                    built = build_scenario(PRESET, seed=seed, scale=spec["scale"])
                    setups.append(time.perf_counter() - begin)
            tracer.set_request(f"round{index}/simulate")
            begin = time.perf_counter()
            trace = built.simulate()
            trace.table()
            meta = built.metadata
            config = DetectionConfig(
                window_s=meta.window_s, min_observations=meta.min_observations
            )
            simulate_s = time.perf_counter() - begin
            # Probe samples around each cell give it its own speed factor.
            with tracer.span("bench.probe"):
                around = [probe.sample()]
            cells = {}
            cell_s = []
            for parameter in ALL_PARAMETERS:
                tracer.set_request(f"round{index}/{parameter.name}")
                begin = time.perf_counter()
                result = evaluate_trace(trace, parameter, meta.training_s, config)
                cells[parameter.name] = [result.auc] + [
                    result.identification_at(budget) for budget in FPR_BUDGETS
                ]
                cell_s.append(time.perf_counter() - begin)
                with tracer.span("bench.probe"):
                    around.append(probe.sample())
        return {
            "scenario_seed": seed,
            "setup_s": setups,
            "eval_s": simulate_s + sum(cell_s),
            "cell_s": cell_s,
            "cell_speed": [
                speed_factor(around[i : i + 2]) for i in range(len(cell_s))
            ],
            "probe_s": sum(around),
            "cells": cells,
            "frames": len(trace),
            "stations": meta.station_count,
        }

    return timed_rounds(spec, tracer, one_round)


def reference_row(seed: int, scale: float) -> dict[str, list[float]]:
    """The object path: frame lists, per-window ``SignatureBuilder.build``."""
    from repro.core.database import ReferenceDatabase
    from repro.core.detection import (
        DetectionConfig,
        evaluate_identification,
        evaluate_similarity,
        extract_window_candidates,
    )
    from repro.core.parameters import ALL_PARAMETERS
    from repro.core.signature import SignatureBuilder
    from repro.scenarios import build_scenario

    built = build_scenario(PRESET, seed=seed, scale=scale)
    meta = built.metadata
    trace = built.simulate()
    config = DetectionConfig(
        window_s=meta.window_s, min_observations=meta.min_observations
    )
    split = trace.split(meta.training_s)
    row = {}
    for parameter in ALL_PARAMETERS:
        builder = SignatureBuilder(parameter, min_observations=config.min_observations)
        database = ReferenceDatabase.from_training(builder, split.training.frames)
        candidates = extract_window_candidates(
            split.validation, builder, database, config, columnar=False
        )
        similarity = evaluate_similarity(candidates, database, config)
        identification = evaluate_identification(candidates, database, config)
        row[parameter.name] = [similarity.auc] + [
            identification.ratio_at_fpr(budget) for budget in FPR_BUDGETS
        ]
    return row


def check(rounds: list[dict], scale: float) -> tuple[int, int]:
    """(attempted, failed) parameter cells over every round."""
    attempted = failed = 0
    references: dict[int, dict] = {}
    for result in rounds:
        seed = result["scenario_seed"]
        if seed not in references:
            references[seed] = reference_row(seed, scale)
        reference = references[seed]
        cells = result["cells"]
        for name, expected in reference.items():
            attempted += 1
            failed += cells.get(name) != expected
        extra = set(cells) - set(reference)
        attempted += len(extra)
        failed += len(extra)
    return attempted, failed


def run(ctx: Context, env: dict) -> Outcome:
    result = run_child(
        ctx,
        {
            "workload": ctx.workload,
            "seed": ctx.seed,
            "seconds": ctx.seconds,
            "trace": ctx.trace,
            "env": env,
            "spans_path": str(ctx.traces / f"{ctx.workload}-seed{ctx.seed}.jsonl"),
            "scale": SCALE,
            "setup_repeats": SETUP_REPEATS,
        },
    )
    rounds = result["rounds"]
    attempted, failed = check(rounds, SCALE)
    info = {
        "rounds": len(rounds),
        "frames": [r["frames"] for r in rounds],
        "stations": rounds[0]["stations"],
        "speed": [r["speed"] for r in rounds],
    }
    if ctx.trace:
        return Outcome(
            attempted, failed, traced_report(rounds, [result["summary"]]), info
        )
    timed = [r for r in rounds if not r["warmup"]]
    metrics, facts = end_to_end(
        setups=[s * r["speed"] for r in timed for s in r["setup_s"]],
        peak_rss_mb=result["peak_rss_mb"],
        attempted=attempted,
        failed=failed,
        jobs=[r["eval_s"] * r["speed"] for r in timed],
        frames_per_s=[r["frames"] / (r["eval_s"] * r["speed"]) for r in timed],
        latencies=[
            c * f for r in timed for c, f in zip(r["cell_s"], r["cell_speed"])
        ],
    )
    info.update(facts)
    info["raw_eval_s"] = [r["eval_s"] for r in timed]
    return Outcome(attempted, failed, metrics, info)
