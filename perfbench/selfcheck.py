"""Self-check of the benchmark's output checks (a few seconds).

Each check gets a valid result, which it must pass, and a deliberately
broken copy, which it must fail: swapped sigma levels (STA answers,
characterization tables, held-out quantiles), a Table I model with its
coefficients zeroed (plain mu + n sigma), a served answer shifted by
1 ps, and a reload count that is off by one. Run from the
repository root::

    python3 perfbench/selfcheck.py

It exits 0 when every check passes its valid input and catches its
broken one.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(failures: list, name: str, valid: list, broken: list) -> None:
    """``valid`` must hold no violation and ``broken`` at least one."""
    if valid:
        failures.append(f"{name}: flags a valid result: {valid[0]}")
    if not broken:
        failures.append(f"{name}: misses the broken result")
    print(f"{'ok ' if not valid and broken else 'BAD'} {name}")


def swap_levels(d: dict, level: int = 3) -> dict:
    out = dict(d)
    out[-level], out[level] = d[level], d[-level]
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    from calibrate_cold import HELDOUT_LEVELS, heldout_quantiles
    from common import make_scenarios
    from fixture import build_designs, load_models

    from repro.core.sta_compiled import CompiledSTA, design_cache_key
    from repro.pack import pack_compiled_design
    from repro.serve.client import ServeClient
    from repro.serve.protocol import QueryRequest
    from repro.serve.registry import DesignRegistry
    from repro.serve.server import ServeConfig, STAServer, start_in_thread

    failures = []
    charac, models = load_models()
    c432, c1908 = build_designs(models.tech)[:2]
    engines = {c.name: CompiledSTA(c, models) for c in (c432, c1908)}

    # Swapped sigma levels: STA answer, characterization table.
    result = engines["c432"].analyze_batch(make_scenarios(0, 1))[0]
    q, c = checks.batch_answer(result)
    expect(failures, "answer levels", checks.answer_violations(q, c),
           checks.answer_violations(swap_levels(q), c))
    broken = copy.deepcopy(charac)
    table = next(iter(broken.tables.values()))
    table.quantiles[0, 0, [0, -1]] = table.quantiles[0, 0, [-1, 0]]
    expect(failures, "table levels", checks.table_violations(charac),
           checks.table_violations(broken))

    # Held-out Monte-Carlo against Table I: swapped levels, and a Table I
    # without its skew/kurtosis corrections.
    samples, predicted = heldout_quantiles(models)
    fit_error = checks.table1_prediction_error(charac, models.nsigma, HELDOUT_LEVELS)
    valid = checks.heldout_violations(samples, predicted, fit_error, HELDOUT_LEVELS)
    expect(failures, "held-out levels", valid, checks.heldout_violations(
        samples, swap_levels(predicted, 2), fit_error, HELDOUT_LEVELS))
    zeroed = copy.deepcopy(models)
    for coef in zeroed.nsigma.coefficients.values():
        coef[:] = 0.0
    _, plain = heldout_quantiles(zeroed)
    expect(failures, "held-out Table I zeroed", valid, checks.heldout_violations(
        samples, plain, checks.table1_prediction_error(
            charac, zeroed.nsigma, HELDOUT_LEVELS), HELDOUT_LEVELS))

    # Served answer shifted by 1 ps, and a reload count off by one.
    work = HERE / "out" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        registry = DesignRegistry()
        for name, circuit in (("c432", c432), ("c1908", c1908)):
            key = design_cache_key(circuit, models)
            path = work / f"{name}.rpk"
            pack_compiled_design(engines[name].design, path, design_key=key)
            registry.register(name, circuit, models)
            registry.attach_pack(name, path)
            registry.engine(name)
        sizes = {d["name"]: d["nbytes"] for d in registry.stats()["designs"]}

        fresh = DesignRegistry(budget_bytes=max(sizes.values()))
        for name, circuit in (("c432", c432), ("c1908", c1908)):
            fresh.register(name, circuit, models)
            fresh.attach_pack(name, work / f"{name}.rpk")
        sequence = ["c432", "c1908", "c1908", "c432", "c1908"]
        sock = os.path.join(os.path.relpath(work), "s.sock")
        handle = start_in_thread(
            STAServer(fresh, ServeConfig(max_concurrency=1)), socket_path=sock)
        try:
            client = ServeClient(socket_path=sock, timeout=30.0)
            responses = [
                client.query(QueryRequest(design=name, slews_ps=(40.0,)))
                for name in sequence
            ]
        finally:
            handle.stop()
        served = responses[0].results[0]
        direct = engines["c432"].analyze_batch(
            QueryRequest(design="c432", slews_ps=(40.0,)).scenarios())[0]
        want, _ = checks.batch_answer(direct)
        shifted = dict(served.quantiles_s)
        shifted[3] += 1e-12
        expect(failures, "served vs direct",
               checks.same_answer_violations(served.quantiles_s, want, 0.0),
               checks.same_answer_violations(shifted, want, 0.0))

        predicted = checks.lru_replay(sequence, sizes, max(sizes.values()))
        n_loads = sum(p != "hit" for p in predicted)
        observed = sum(d["loads"] for d in fresh.stats()["designs"])
        expect(failures, "reload count",
               checks.load_count_violations(observed, n_loads, "loads"),
               checks.load_count_violations(observed, n_loads + 1, "loads"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
