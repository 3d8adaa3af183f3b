"""The calibrated 12-cell library that ``query_sweep`` and ``serve_mixed`` time against.

The fixture is checked in so that those workloads measure STA and
serving, not Monte-Carlo characterization. It is stored as the
program's own artifacts — a characterization bundle written by
``save_library_characterization`` plus the fitted N-sigma and wire
models — and loaded through the public loaders, never through the flow
cache (whose keys salt in the kernel identity and package version, so a
default-kernel change would silently turn set-up into a cold
characterization).

Regenerate it (about two minutes on two cores) with::

    python3 perfbench/fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_DIR = HERE / "fixture"
CHARAC_PATH = FIXTURE_DIR / "charac.json"
MODELS_PATH = FIXTURE_DIR / "models.json"

#: INV, NAND2 and NOR2 at strengths x1-x8.
FIXTURE_TYPES = ("INV", "NAND2", "NOR2")
FIXTURE_CELLS = tuple(f"{t}x{s}" for t in FIXTURE_TYPES for s in (1, 2, 4, 8))
FIXTURE_SEED = 0
FIXTURE_SAMPLES = 200

#: ISCAS85-like designs built from the fixture's cell types.
DESIGNS = ("c432", "c1908", "c3540", "c7552")
PARASITIC_SEED = 0


def fast_grid():
    """The ``repro analyze --fast`` grid: 3 slews x 4 loads."""
    from repro.units import FF, PS

    return (
        (10 * PS, 80 * PS, 250 * PS),
        (0.1 * FF, 1.0 * FF, 4.0 * FF, 9.0 * FF),
    )


def build_fixture() -> None:
    """Characterize and fit the 12-cell library, then write the fixture."""
    from repro.cells.liberty import save_library_characterization
    from repro.core.flow import DelayCalibrationFlow

    slews, loads = fast_grid()
    flow = DelayCalibrationFlow(
        seed=FIXTURE_SEED,
        cache_dir=None,
        n_samples=FIXTURE_SAMPLES,
        slews=slews,
        loads=loads,
        wire_fit_samples=200,
        wire_fit_trees=1,
        cell_names=FIXTURE_CELLS,
        kernel="numpy",
        workers=1,
    )
    models = flow.fit_models()
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    save_library_characterization(flow.characterize(), CHARAC_PATH)
    doc = {
        "cells": list(FIXTURE_CELLS),
        "seed": FIXTURE_SEED,
        "n_samples": FIXTURE_SAMPLES,
        "nsigma": models.nsigma.to_dict(),
        "wire": models.wire.to_dict(),
        "stage_correlation": models.stage_correlation,
    }
    MODELS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_models():
    """Fixture → fitted ``TimingModels`` via the public loaders, linted."""
    from repro.cells.liberty import load_library_characterization
    from repro.cells.library import build_default_library
    from repro.core.calibration import CalibratedCellLibrary
    from repro.core.nsigma_cell import NSigmaCellModel
    from repro.core.nsigma_wire import WireVariabilityModel
    from repro.core.sta import TimingModels
    from repro.errors import CalibrationError, CharacterizationError
    from repro.lint import lint_characterization, lint_nsigma_model
    from repro.variation.parameters import Technology

    charac = load_library_characterization(CHARAC_PATH)
    lint_characterization(charac).raise_if_errors(
        CharacterizationError, context="benchmark fixture"
    )
    doc = json.loads(MODELS_PATH.read_text())
    nsigma = NSigmaCellModel.from_dict(doc["nsigma"])
    lint_nsigma_model(nsigma).raise_if_errors(
        CalibrationError, context="benchmark fixture"
    )
    tech = Technology()
    return charac, TimingModels(
        tech=tech,
        library=build_default_library(tech),
        calibrated=CalibratedCellLibrary.fit(charac),
        nsigma=nsigma,
        wire=WireVariabilityModel.from_dict(doc["wire"]),
        stage_correlation=float(doc["stage_correlation"]),
    )


def build_designs(tech):
    """The four ISCAS85-like circuits with seeded parasitics, in order."""
    from repro.netlist.benchmarks import attach_parasitics, build_iscas85_like

    circuits = []
    for name in DESIGNS:
        circuit = build_iscas85_like(name, type_names=FIXTURE_TYPES)
        attach_parasitics(circuit, tech, seed=PARASITIC_SEED)
        circuits.append(circuit)
    return circuits


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    build_fixture()
    print(f"wrote {CHARAC_PATH.relative_to(ROOT)} and {MODELS_PATH.relative_to(ROOT)}")
