"""Workload ``serve_mixed``: narrow requests to a resident STA server.

Set-up loads the 12-cell fixture, builds and compiles the four designs
and writes each one's ``.rpk`` pack; it repeats at the start of every
round, so its samples span the run. The residency budget holds only the
two largest designs, by the registry's own size accounting. Each round
then starts a fresh
``DesignRegistry`` (packs attached) behind an ``STAServer`` with one
worker slot, run in a thread, and replays one seeded request sequence
from a single ``ServeClient`` over a unix socket, in a closed loop:
each request carries 1-4 scenarios, and designs are chosen with
Zipf-like popularity, so the LRU evicts and packs reload. Every round
replays the same sequence, so per-round counts repeat exactly for a
fixed seed.
"""

from __future__ import annotations

import os
import time

import numpy as np

from checks import (
    answer_violations,
    batch_answer,
    load_count_violations,
    lru_replay,
    same_answer_violations,
)
from common import Outcome, median, percentile, run_rounds, timed
from fixture import DESIGNS, build_designs, load_models

REQUESTS_PER_ROUND = 200
#: Zipf exponent of design popularity. Designs are ranked smallest
#: first, so the share of the design of rank ``r`` is ``r**-s`` over the
#: sum (c432 60%, c1908 21%, c3540 11%, c7552 8%): request popularity in
#: caches is Zipf-like (Breslau et al., INFOCOM 1999), and ``s = 1.5``
#: makes about 14 of 100 requests reload an evicted design's pack.
ZIPF_EXPONENT = 1.5
#: Scenarios per request: 1 to 4, equally often.
WIDTHS = (1, 2, 3, 4)
#: Seed of the order of designs and widths, the same for every ``--seed``
#: so that every seed reloads the same number of packs (30 of 204 at
#: this seed; 17 to 36 over the orders of seeds 0-11).
ORDER_SEED = 1
#: Every this many requests, the served answer is compared with a direct query.
COMPARE_EVERY = 10
#: Fixture loads timed after each round's requests, so ``calibrate_s``
#: has more samples than there are rounds.
FIXTURE_LOADS = 10


def popularity():
    """Share of requests per design, in ``DESIGNS`` order (smallest first)."""
    weights = [rank ** -ZIPF_EXPONENT for rank in range(1, len(DESIGNS) + 1)]
    return [w / sum(weights) for w in weights]


def make_requests(seed: int):
    """The seeded request sequence of one round.

    The mix is exact up to rounding — each (design, width) pair appears
    ``REQUESTS_PER_ROUND x popularity / len(WIDTHS)`` times — and comes in
    the order of :data:`ORDER_SEED`. The seed draws slews, edges and
    correlations, so seeds differ in what they ask but not in how much
    work they ask for or in which designs they evict.
    """
    from repro.serve.protocol import QueryRequest

    order = np.random.default_rng([ORDER_SEED, 29]).permutation
    rng = np.random.default_rng([seed, 31])
    shapes = [
        (design, width)
        for design, share in zip(DESIGNS, popularity())
        for width in WIDTHS
        for _ in range(round(REQUESTS_PER_ROUND * share / len(WIDTHS)))
    ]
    requests = []
    for i, k in enumerate(order(len(shapes))):
        design, width = shapes[k]
        slews = tuple(float(s) for s in np.round(rng.uniform(10, 250, width), 3))
        edge = "rise" if rng.random() < 0.5 else "fall"
        rho = None if rng.random() < 0.5 else float(round(rng.uniform(0, 1), 3))
        requests.append(
            QueryRequest(
                design=design,
                slews_ps=slews,
                edges=(edge,),
                correlations=(rho,),
                request_id=f"r{i}",
            )
        )
    return requests


def run(seed: int, seconds: float, tracer, workdir) -> Outcome:
    from repro.core.sta_compiled import CompiledSTA, design_cache_key
    from repro.pack import load_compiled_design, pack_compiled_design
    from repro.perf import PerfCounters
    from repro.serve.client import ServeClient
    from repro.serve.registry import DesignRegistry
    from repro.serve.server import ServeConfig, STAServer, start_in_thread

    out = Outcome()
    setup_times, calibrate_times, compile_times, write_times, load_times = (
        [], [], [], [], [])

    def setup():
        (_, models), t = timed(load_models)
        calibrate_times.append(t)
        with tracer.span("netlist.build"):
            circuits = build_designs(models.tech)
        engines, keys, paths = {}, {}, {}
        t_compile = t_write = 0.0
        for name, circuit in zip(DESIGNS, circuits):
            with tracer.span("core.sta_compiled.compile"):
                engines[name], t = timed(CompiledSTA, circuit, models)
            t_compile += t
            keys[name] = design_cache_key(circuit, models)
            paths[name] = workdir / f"{name}.rpk"
            with tracer.span("pack.write"):
                _, t = timed(pack_compiled_design, engines[name].design,
                             paths[name], design_key=keys[name])
            t_write += t
        loads = []
        for name in DESIGNS:
            with tracer.span("pack.reload"):
                design, t = timed(load_compiled_design, paths[name],
                                  verify=True, expected_key=keys[name])
            loads.append(t)
            design.pack.close()
        compile_times.append(t_compile)
        write_times.append(t_write)
        load_times.append(sum(loads) / len(loads))
        return models, circuits, engines, paths

    def new_registry(circuits, models, paths, budget=None):
        registry = DesignRegistry(perf=PerfCounters(), budget_bytes=budget)
        for name, circuit in zip(DESIGNS, circuits):
            registry.register(name, circuit, models)
            if not registry.attach_pack(name, paths[name]):
                out.check([f"pack of {name} refused"], "attach_pack")
        return registry

    requests = make_requests(seed)
    plan = {}

    rtt, served, overhead, single, reload_rtt = [], [], [], [], []
    loop_time = []
    n_scenarios = 0
    socket_dir = os.path.relpath(workdir)

    def one_round(r: int) -> None:
        nonlocal n_scenarios
        # Set-up repeats in every round, so its samples span the run.
        (models, circuits, engines, paths), t = timed(setup)
        setup_times.append(t)
        if not plan:
            # The registry's own accounting of each pack-backed design.
            sizing = new_registry(circuits, models, paths)
            for name in DESIGNS:
                sizing.engine(name)
            sizes = {d["name"]: d["nbytes"] for d in sizing.stats()["designs"]}
            plan["budget"] = sum(sorted(sizes.values())[-2:])
            plan["kinds"] = lru_replay(
                [q.design for q in requests], sizes, plan["budget"])
        predicted = plan["kinds"]
        n_loads = sum(k != "hit" for k in predicted)
        registry = new_registry(circuits, models, paths, plan["budget"])
        server = STAServer(registry, ServeConfig(max_concurrency=1))
        sock = os.path.join(socket_dir, f"serve{r}.sock")
        handle = start_in_thread(server, socket_path=sock)
        client = ServeClient(socket_path=sock, timeout=60.0)
        responses = []

        def counters():
            return {"perf": registry.perf.to_dict(), "registry": registry.stats()}

        try:
            with tracer.span("serve.round", counters):
                t_loop = time.perf_counter()
                for request, kind in zip(requests, predicted):
                    with tracer.span("serve.request"):
                        t0 = time.perf_counter()
                        response = client.query(request)
                        t = time.perf_counter() - t0
                    responses.append(response)
                    rtt.append(t)
                    if response.ok:
                        served.append(response.served_s)
                        overhead.append(t - response.served_s)
                    if request.n_scenarios == 1:
                        single.append(t)
                    if kind == "reload":
                        reload_rtt.append(t)
                loop_time.append(time.perf_counter() - t_loop)
        finally:
            handle.stop()
        if handle.thread.is_alive():
            out.check(["server thread still running after stop"], "shutdown")

        rejects = [q for q in responses if not q.ok]
        out.failed += len(rejects)
        out.attempted += len(requests)
        n_scenarios += sum(q.n_scenarios for q in requests)
        out.check(
            [f"{q.request_id}: rejected ({q.code}: {q.error})" for q in rejects],
            "zero rejects",
        )
        stats = registry.stats()
        out.check(
            load_count_violations(
                sum(d["loads"] for d in stats["designs"]), n_loads, "design loads"),
            f"round {r}",
        )
        pack_loads = registry.perf.to_dict().get("pack_loads")
        if pack_loads is not None:  # absent once the counter is replaced
            out.check(load_count_violations(pack_loads, n_loads, "pack loads"),
                      f"round {r}")
        # Direct answers are computed after the loop, untimed.
        for i, (request, response) in enumerate(zip(requests, responses)):
            if not response.ok:
                continue
            for k, result in enumerate(response.results):
                out.check(
                    answer_violations(
                        result.quantiles_s, result.correlated_quantiles_s),
                    f"{request.request_id}#{k}",
                )
            if i % COMPARE_EVERY:
                continue
            direct = engines[request.design].analyze_batch(request.scenarios())
            for k, (result, want) in enumerate(zip(response.results, direct)):
                q, c = batch_answer(want)
                out.check(
                    same_answer_violations(result.quantiles_s, q, 0.0)
                    + same_answer_violations(result.correlated_quantiles_s, c, 0.0),
                    f"{request.request_id}#{k} served vs direct",
                )
        for _ in range(FIXTURE_LOADS):
            _, t = timed(load_models)
            calibrate_times.append(t)

    run_rounds(seconds, one_round)

    total = sum(loop_time)
    out.end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "calibrate_s": (median(calibrate_times), "s"),
        "compile_s": (median(compile_times), "s"),
        "scenarios_per_s": (n_scenarios / total, "1/s"),
        "single_ms": (1e3 * median(single), "ms"),
        "requests_per_s": (len(rtt) / total, "1/s"),
        "request_p50_ms": (1e3 * median(rtt), "ms"),
        "reload_ms": (1e3 * median(reload_rtt), "ms"),
    }

    def first(key):
        return tracer.count("serve.round", key, first=True)

    out.per_layer = {
        "netlist.build_s": (median(tracer.durations("netlist.build") or [0.0]), "s"),
        "core.sta_compiled.compile_s": (median(compile_times), "s"),
        "serve.server_ms": (1e3 * median(served), "ms"),
        "serve.overhead_ms": (1e3 * median(overhead), "ms"),
        "serve.request_p95_ms": (1e3 * percentile(rtt, 95), "ms"),
        "pack.reload_ms": (1e3 * median(load_times), "ms"),
        "pack.write_s": (median(write_times), "s"),
        "serve.design_loads": (first("perf.sta_serve_design_loads"), "count"),
        "serve.evictions": (first("perf.sta_serve_evictions"), "count"),
        "pack.loads": (first("perf.pack_loads"), "count"),
        "pack.verifies": (first("perf.pack_verifies"), "count"),
        "serve.rejects": (first("perf.sta_serve_rejects"), "count"),
    }
    return out
