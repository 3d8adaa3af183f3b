"""Workload ``query_sweep``: direct batch STA queries on a warm library.

Nothing is served and no Monte-Carlo runs. Each round first repeats
the set-up — load the checked-in 12-cell fixture, build c432, c1908,
c3540 and c7552 — so set-up samples span the run. It then compiles
every design cold, then makes closed-loop
``CompiledSTA.analyze_batch`` calls at widths 1, 16 and 64 on each
design, writes and reloads each compiled design's pack, and times a few
more fixture loads, so ``calibrate_s`` has more samples than rounds.
The width-1 and width-16 calls take the first scenarios of the
width-64 batch, so every narrow answer is checked against its wide twin.
"""

from __future__ import annotations

from checks import (
    WIDTH_TOLERANCE_S,
    answer_violations,
    batch_answer,
    same_answer_violations,
)
from common import Outcome, make_scenarios, median, run_rounds, timed
from fixture import DESIGNS, build_designs, load_models

WIDTHS = (1, 16, 64)
#: Pack reloads per design and round (``reload_ms``).
RELOADS = 3
#: Fixture loads timed at the end of each round (``calibrate_s``).
FIXTURE_LOADS = 10


def mean(values) -> float:
    return sum(values) / len(values)


def run(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro.core.sta_compiled import CompiledSTA, design_cache_key
    from repro.pack import load_compiled_design, pack_compiled_design
    from repro.perf import PerfCounters

    out = Outcome()
    setup_times, calibrate_times = [], []
    perf = PerfCounters()
    m = {k: [] for k in ("compile", "reload", "stages")}
    calls = {w: [] for w in WIDTHS}  # per round: mean over designs
    batch_time = []
    n_calls = n_scenarios = 0

    def setup():
        (_, models), t = timed(load_models)
        calibrate_times.append(t)
        with tracer.span("netlist.build"):
            circuits = build_designs(models.tech)
        return models, circuits

    scenarios = [
        make_scenarios(seed, max(WIDTHS), stream=i) for i in range(len(DESIGNS))
    ]

    def one_round(r: int) -> None:
        nonlocal n_calls, n_scenarios
        # Set-up repeats in every round, so its samples span the run.
        (models, circuits), t = timed(setup)
        setup_times.append(t)
        keys = [design_cache_key(c, models) for c in circuits]
        engines = []
        compile_total = 0.0
        for circuit in circuits:
            with tracer.span("core.sta_compiled.compile"):
                engine, t = timed(CompiledSTA, circuit, models, perf=perf)
            engines.append(engine)
            compile_total += t
        m["compile"].append(compile_total)

        round_calls = []
        by_width = {w: [] for w in WIDTHS}
        stages = 0
        with tracer.span("core.sta_compiled.round", perf.to_dict):
            for d, engine in enumerate(engines):
                answers = {}
                for w in WIDTHS:
                    with tracer.span(f"core.sta_compiled.batch{w}"):
                        results, t = timed(engine.analyze_batch, scenarios[d][:w])
                    answers[w] = results
                    by_width[w].append(t)
                    round_calls.append(t)
                    n_calls += 1
                    n_scenarios += w
                for w, results in answers.items():
                    for k, result in enumerate(results):
                        stages += len(result.critical_path.stages)
                        q, c = batch_answer(result)
                        out.check(answer_violations(q, c), f"{DESIGNS[d]} w{w}#{k}")
                        if w < max(WIDTHS):
                            out.check(
                                same_answer_violations(
                                    q, batch_answer(answers[max(WIDTHS)][k])[0],
                                    WIDTH_TOLERANCE_S),
                                f"{DESIGNS[d]} #{k} width {w} vs {max(WIDTHS)}",
                            )
        batch_time.append(sum(round_calls))
        for w in WIDTHS:
            calls[w].append(mean(by_width[w]))
        m["stages"].append(stages)

        reloads = []
        for d, engine in enumerate(engines):
            path = workdir / f"{DESIGNS[d]}.rpk"
            with tracer.span("pack.write"):
                pack_compiled_design(engine.design, path, design_key=keys[d])
            for _ in range(RELOADS):
                with tracer.span("pack.reload"):
                    design, t = timed(
                        load_compiled_design, path, verify=True, expected_key=keys[d]
                    )
                reloads.append(t)
                design.pack.close()
        m["reload"].append(mean(reloads))
        for _ in range(FIXTURE_LOADS):
            _, t = timed(load_models)
            calibrate_times.append(t)
        out.attempted += len(circuits) * (1 + RELOADS + sum(WIDTHS))

    run_rounds(seconds, one_round)

    total_batch = sum(batch_time)
    batch_ms = {w: 1e3 * median(calls[w]) for w in WIDTHS}
    out.end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "calibrate_s": (median(calibrate_times), "s"),
        "compile_s": (median(m["compile"]), "s"),
        "scenarios_per_s": (n_scenarios / total_batch, "1/s"),
        "single_ms": (batch_ms[1], "ms"),
        "requests_per_s": (n_calls / total_batch, "1/s"),
        # The middle width: the median of one round's 12 calls falls in
        # the gap between widths, where it magnifies every speed change.
        "request_p50_ms": (batch_ms[16], "ms"),
        "reload_ms": (1e3 * median(m["reload"]), "ms"),
    }
    per_scenario = (batch_ms[64] - batch_ms[1]) / 63
    out.per_layer = {
        "netlist.build_s": (median(tracer.durations("netlist.build") or [0.0]), "s"),
        "core.sta_compiled.compile_s": (median(m["compile"]), "s"),
        "core.sta_compiled.batch1_ms": (batch_ms[1], "ms"),
        "core.sta_compiled.batch16_ms": (batch_ms[16], "ms"),
        "core.sta_compiled.batch64_ms": (batch_ms[64], "ms"),
        "core.sta_compiled.per_scenario_ms": (per_scenario, "ms"),
        "core.sta_compiled.fixed_ms": (batch_ms[1] - per_scenario, "ms"),
        "core.sta_compiled.levels": (
            tracer.count("core.sta_compiled.round", "sta_levels", first=True),
            "count"),
        "core.sta_compiled.arc_evals": (
            tracer.count("core.sta_compiled.round", "sta_arc_evals", first=True),
            "count"),
        "core.sta_compiled.path_stages": (m["stages"][0], "count"),
        "pack.write_s": (median(tracer.durations("pack.write") or [0.0]), "s"),
        "pack.reload_ms": (1e3 * median(m["reload"]), "ms"),
    }
    return out
