"""Workload ``calibrate_cold``: Monte-Carlo calibration from an empty cache, then one query.

Mirrors ``repro analyze --fast --samples 200`` on a 7-cell library
(both edges, so 14 arcs): the ``--fast`` grid of 3 slews x 4 loads at
200 samples per point and an Eq. 7 wire fit over 1 tree x 200 samples,
with the program's default kernel and worker count. The fitted models
then time a 32-bit ripple adder: a cold compile, one width-64 query of
seeded scenarios, every scenario again at width 1, and reloads of the
compiled adder's pack — a pass that repeats :data:`STA_PASSES` times.

The calibration seed is fixed. The Eq. 7 wire-fit tree is drawn from
the master seed, and its node count (9 to 21 over seeds 0-11) sets the
cost of the fit's 16 wire Monte-Carlo runs, so a seeded calibration
would time the seed rather than the program. ``--seed`` draws the query
scenarios. The held-out Monte-Carlo check runs at a fixed seed too, so
whether it passes does not depend on ``--seed``.
"""

from __future__ import annotations

from checks import (
    WIDTH_TOLERANCE_S,
    answer_violations,
    batch_answer,
    driver_strength_violations,
    heldout_errors,
    heldout_violations,
    same_answer_violations,
    sample_moments,
    table1_prediction_error,
    table_violations,
    wire_variability_gap,
)
from common import Outcome, make_scenarios, median, run_rounds, timed
from fixture import fast_grid

CELLS = ("INVx1", "INVx2", "INVx4", "INVx8", "NAND2x1", "NOR2x1", "AOI21x1")
CALIBRATION_SEED = 0
N_SAMPLES = 200
N_SCENARIOS = 64
ADDER_WIDTH = 32
#: The STA phase (compile, query, width-1 calls, pack reloads) repeats
#: this many times after the calibration, so its short timings are
#: medians over several seconds rather than one burst.
STA_PASSES = 16
#: Set-ups and cold compiles of the adder per pass (``setup_s``,
#: ``compile_s``); each takes tens of milliseconds.
COMPILES = 4
#: Pack reloads of the compiled adder per pass (``reload_ms``).
RELOADS = 5
#: Held-out arc: INVx2 rising output at an off-grid (slew, load) point.
HELDOUT_CELL = "INVx2"
HELDOUT_SLEW_PS = 40.0
HELDOUT_LOAD_FF = 2.0
HELDOUT_SAMPLES = 16000
HELDOUT_SEED = 10_000
#: Held-out levels checked as outputs; the ±3σ tail misses by about
#: 0.35 sigma on the program today, so :data:`HELDOUT_TAIL` is counted
#: as a failed operation instead (see README).
HELDOUT_LEVELS = (-2, 2)
HELDOUT_TAIL = (-3, 3)


def heldout_quantiles(models, seed: int = HELDOUT_SEED):
    """Fresh-seed Monte-Carlo delays of the held-out arc, and Table I's ±2σ/±3σ.

    Table I is applied to the held-out sample's own moments, so the
    comparison tests the N-sigma quantile model out of sample.
    """
    from repro.cells.characterize import ArcCharacterizer
    from repro.moments.stats import Moments
    from repro.spice.montecarlo import MonteCarloEngine
    from repro.units import FF, PS
    from repro.variation.parameters import VariationModel

    engine = MonteCarloEngine(models.tech, VariationModel(), seed=10_000 + seed)
    res = ArcCharacterizer(engine).simulate_arc(
        models.library.get(HELDOUT_CELL), "A", HELDOUT_SLEW_PS * PS,
        HELDOUT_LOAD_FF * FF, HELDOUT_SAMPLES, output_rising=True,
    )
    delays = res.delay[res.valid]
    mu, sigma, skew, kurt = sample_moments(delays)
    moments = Moments(mu, sigma, skew, kurt, n=delays.size)
    levels = HELDOUT_LEVELS + HELDOUT_TAIL
    return delays, {n: models.nsigma.quantile(moments, n) for n in levels}


def run(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro.core.flow import DelayCalibrationFlow
    from repro.core.sta_compiled import CompiledSTA, design_cache_key
    from repro.netlist.benchmarks import attach_parasitics
    from repro.netlist.generators import build_adder
    from repro.pack import load_compiled_design, pack_compiled_design
    from repro.parallel import resolve_workers
    from repro.perf import PerfCounters
    from repro.variation.parameters import Technology

    out = Outcome()
    slews, loads = fast_grid()

    def setup():
        with tracer.span("netlist.build"):
            circuit = build_adder(ADDER_WIDTH)
            attach_parasitics(circuit, Technology(), seed=0)
        return circuit

    scenarios = make_scenarios(seed, N_SCENARIOS)
    setup_times = []
    m = {k: [] for k in ("calibrate", "characterize", "fit", "compile", "query",
                         "single", "calls", "reload", "stages")}
    layer = {}

    def one_round(r: int) -> None:
        flow = DelayCalibrationFlow(
            seed=CALIBRATION_SEED,
            cache_dir=str(workdir / f"cache{r}"),
            n_samples=N_SAMPLES,
            slews=slews,
            loads=loads,
            wire_fit_samples=200,
            wire_fit_trees=1,
            cell_names=CELLS,
        )

        def flow_counters():
            return flow.perf_report().to_dict()

        with tracer.span("cells.characterize", flow_counters):
            charac, t_char = timed(flow.characterize)
        with tracer.span("core.fit_models", flow_counters):
            models, t_fit = timed(flow.fit_models)
        m["characterize"].append(t_char)
        m["fit"].append(t_fit)
        m["calibrate"].append(t_char + t_fit)
        if r == 0:
            layer["cells.arcs"] = (len(charac.tables), "count")
            layer["parallel.workers"] = (resolve_workers(flow.workers), "count")

        out.check(table_violations(charac), "characterization")
        samples, predicted = heldout_quantiles(models)
        levels = HELDOUT_LEVELS + HELDOUT_TAIL
        fit_error = table1_prediction_error(charac, models.nsigma, levels)
        out.check(
            heldout_violations(samples, predicted, fit_error, HELDOUT_LEVELS),
            "held-out arc",
        )
        # Known faults of the program at these settings (see README): each
        # is counted as a failed operation, not as a wrong answer, and its
        # size is reported so that a change for better or worse shows.
        for fault in (
            heldout_violations(samples, predicted, fit_error, HELDOUT_TAIL),
            driver_strength_violations(models),
        ):
            out.known_faults.extend(fault)
            out.failed += bool(fault)
        errors = heldout_errors(samples, predicted)
        layer["core.nsigma_cell.tail_error_sigma"] = (
            max(abs(errors[n]) for n in HELDOUT_TAIL), "sigma")
        layer["core.nsigma_wire.xw_gap"] = (wire_variability_gap(models), "1")

        for _ in range(STA_PASSES):
            # Set-up and compile repeat in each pass, so their samples span
            # the STA phase; the last engine answers the queries.
            for _ in range(COMPILES):
                circuit, t = timed(setup)
                setup_times.append(t)
                perf = PerfCounters()
                with tracer.span("core.sta_compiled.compile"):
                    engine, t = timed(CompiledSTA, circuit, models, perf=perf)
                m["compile"].append(t)
            with tracer.span("core.sta_compiled.query", perf.to_dict):
                wide, t = timed(engine.analyze_batch, scenarios)
            m["query"].append(t)
            m["stages"].append(sum(len(w.critical_path.stages) for w in wide))
            m["calls"].append(t)
            for k, scenario in enumerate(scenarios):
                with tracer.span("core.sta_compiled.batch1"):
                    single, t = timed(engine.analyze_batch, [scenario])
                m["single"].append(t)
                m["calls"].append(t)
                q1, c1 = batch_answer(single[0])
                q64, c64 = batch_answer(wide[k])
                out.check(answer_violations(q64, c64), f"scenario {k}")
                out.check(
                    same_answer_violations(q1, q64, WIDTH_TOLERANCE_S),
                    f"scenario {k} width 1 vs 64",
                )

            key = design_cache_key(circuit, models)
            path = workdir / f"adder{r}.rpk"
            with tracer.span("pack.write"):
                pack_compiled_design(engine.design, path, design_key=key)
            for i in range(RELOADS):
                with tracer.span("pack.reload"):
                    design, t = timed(
                        load_compiled_design, path, verify=True, expected_key=key
                    )
                m["reload"].append(t)
                if i == 0:
                    again = CompiledSTA(circuit, models, design=design)
                    q, _ = batch_answer(again.analyze_batch([scenarios[0]])[0])
                    out.check(
                        same_answer_violations(q, batch_answer(wide[0])[0], 0.0),
                        "reloaded adder",
                    )
                design.pack.close()
        out.attempted += 2 + STA_PASSES * (2 * N_SCENARIOS + RELOADS)

    run_rounds(seconds, one_round)

    n_calls = len(m["calls"])
    out.end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "calibrate_s": (median(m["calibrate"]), "s"),
        "compile_s": (median(m["compile"]), "s"),
        "scenarios_per_s": (
            len(m["query"]) * N_SCENARIOS / sum(m["query"]), "1/s"),
        "single_ms": (1e3 * median(m["single"]), "ms"),
        "requests_per_s": (n_calls / sum(m["calls"]), "1/s"),
        "request_p50_ms": (1e3 * median(m["calls"]), "ms"),
        "reload_ms": (1e3 * median(m["reload"]), "ms"),
    }

    def first(key):
        values = [
            tracer.count(name, key, first=True)
            for name in ("cells.characterize", "core.fit_models")
        ]
        if any(v is None for v in values):
            return None
        return sum(values)

    def first_prefix(prefix):
        spans = [
            next(s for s in tracer.spans if s["name"] == name)
            for name in ("cells.characterize", "core.fit_models")
        ]
        values = [
            v for s in spans for k, v in s["counters"].items()
            if k.startswith(prefix)
        ]
        return sum(values) if values else None

    single = 1e3 * median(m["single"])
    wide = 1e3 * median(m["query"])
    per_scenario = (wide - single) / (N_SCENARIOS - 1)
    layer.update({
        "cells.characterize_s": (median(m["characterize"]), "s"),
        "core.fit_models_s": (median(m["fit"]), "s"),
        "core.sta_compiled.compile_s": (median(m["compile"]), "s"),
        "core.sta_compiled.query_s": (median(m["query"]), "s"),
        "core.sta_compiled.batch1_ms": (single, "ms"),
        "core.sta_compiled.batch64_ms": (wide, "ms"),
        "core.sta_compiled.per_scenario_ms": (per_scenario, "ms"),
        "core.sta_compiled.fixed_ms": (single - per_scenario, "ms"),
        "netlist.build_s": (median(tracer.durations("netlist.build") or [0.0]), "s"),
        "pack.write_s": (median(tracer.durations("pack.write") or [0.0]), "s"),
        "pack.reload_ms": (1e3 * median(m["reload"]), "ms"),
        "core.sta_compiled.path_stages": (m["stages"][0], "count"),
        "core.sta_compiled.levels": (
            tracer.count("core.sta_compiled.query", "sta_levels", first=True),
            "count"),
        "core.sta_compiled.arc_evals": (
            tracer.count("core.sta_compiled.query", "sta_arc_evals", first=True),
            "count"),
    })
    if tracer.enabled:
        layer.update({
            "spice.simulate_s": (first("wall_s.simulate"), "s"),
            "spice.simulations": (first("simulations"), "count"),
            "spice.newton_iterations": (first("newton_iterations"), "count"),
            "spice.linear_solves": (first("linear_solves"), "count"),
            "spice.sample_solves": (first("sample_solves"), "count"),
            "spice.transient_steps": (first("steps"), "count"),
            "kernels.ops": (first_prefix("kernel_ops."), "count"),
            "cells.points_simulated": (first("points_simulated"), "count"),
            "cache.misses": (first("cache_misses"), "count"),
        })
    out.per_layer = layer
    return out
