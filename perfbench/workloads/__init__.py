"""One module per workload.

Each module has ``run(ctx) -> Outcome`` (benchmark process: inputs,
reference, checks, metrics) and, where the program runs in a child
process, ``program(spec, tracer) -> rounds`` (the child's side).
"""
