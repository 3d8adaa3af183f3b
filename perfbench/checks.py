"""Output checks of the benchmark.

Every check is a property the method must have or a computation made
apart from the program — never a stored copy of an earlier output. Each
returns a list of violations (empty = pass), so a workload can report
all of them and the self-check (``selfcheck.py``) can assert that a
deliberately broken result is caught.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: Answers of one scenario at width 1 and inside a wide batch must agree
#: to this many seconds (the compiled engine's equivalence envelope).
WIDTH_TOLERANCE_S = 1e-12


# ----------------------------------------------------------------------
# Characterization tables and fitted models
# ----------------------------------------------------------------------
def table_violations(charac) -> List[str]:
    """Valid moments, level-ordered quantiles, delay and slew rising with load."""
    bad = []
    for key, table in charac.tables.items():
        arc = "/".join(str(k) for k in key)
        sigma = table.moments[..., 1]
        skew = table.moments[..., 2]
        kurt = table.moments[..., 3]
        if not np.all(sigma > 0):
            bad.append(f"{arc}: sigma <= 0")
        # Pearson's inequality for raw kurtosis: kappa >= 1 + gamma^2.
        if not np.all(kurt - (1.0 + skew * skew) >= -1e-9):
            bad.append(f"{arc}: kurtosis below 1 + skew^2")
        if not np.all(np.diff(table.quantiles, axis=-1) > 0):
            bad.append(f"{arc}: sigma-level quantiles do not increase with level")
        if not np.all(np.diff(table.moments[..., 0], axis=1) > 0):
            bad.append(f"{arc}: mean delay does not rise with load")
        if not np.all(np.diff(table.out_slew, axis=1) > 0):
            bad.append(f"{arc}: output slew does not rise with load")
    return bad


def wire_variability_gap(models, fanout_cell: str = "INVx4") -> float:
    """Eq. 7 X_w of an INVx8 driver minus that of an INVx1 driver."""
    ratio_fo = models.cell_ratio(fanout_cell)
    weak = models.wire.wire_variability(models.cell_ratio("INVx1"), ratio_fo)
    strong = models.wire.wire_variability(models.cell_ratio("INVx8"), ratio_fo)
    return float(strong - weak)


def driver_strength_violations(models) -> List[str]:
    """Eq. 7 must give a stronger driver less wire variability (Fig. 8)."""
    gap = wire_variability_gap(models)
    if gap < 0:
        return []
    return [
        f"Eq. 7 X_w is {gap:+.5f} higher for an INVx8 driver than for INVx1 "
        f"(weight_fi={models.wire.weight_fi:+.4f})"
    ]


def normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def quantile_standard_error(sigma: float, level: float, n: int) -> float:
    """Order-statistic standard error of the ``level``-sigma quantile.

    ``Var = sigma^2 p (1 - p) / (n phi(z)^2)`` with ``p = Phi(level)``.
    """
    p = normal_cdf(level)
    return math.sqrt(sigma * sigma * p * (1.0 - p) / (n * normal_pdf(level) ** 2))


def sample_moments(samples: np.ndarray) -> Tuple[float, float, float, float]:
    """Mean, standard deviation, skewness and raw kurtosis of a sample."""
    x = np.asarray(samples, dtype=float)
    mu = float(x.mean())
    dev = x - mu
    sigma = float(np.sqrt(np.mean(dev**2)))
    skew = float(np.mean(dev**3) / sigma**3)
    kurt = float(np.mean(dev**4) / sigma**4)
    return mu, sigma, skew, kurt


def table1_prediction_error(charac, nsigma, levels: Sequence[int]) -> Dict[int, float]:
    """Standard error of a Table I prediction, in units of the arc's sigma.

    The residual of the fit over its training targets (every grid point
    of every arc), each in units of that point's sigma, scaled by the
    average leverage ``p / N`` of a least-squares fit with ``p``
    coefficients over ``N`` targets: ``rms * sqrt(p / N)``.
    """
    from repro.moments.stats import SIGMA_LEVELS, Moments

    residuals = {level: [] for level in levels}
    for table in charac.tables.values():
        n_s, n_c, _ = table.moments.shape
        for i in range(n_s):
            for j in range(n_c):
                m = Moments(*table.moments[i, j], n=table.n_samples)
                for level in levels:
                    q = table.quantiles[i, j, SIGMA_LEVELS.index(level)]
                    residuals[level].append((q - nsigma.quantile(m, level)) / m.sigma)
    out = {}
    for level, r in residuals.items():
        rms = float(np.sqrt(np.mean(np.square(r))))
        out[level] = rms * math.sqrt(len(nsigma.coefficients[level]) / len(r))
    return out


def heldout_errors(samples: np.ndarray, predicted: Mapping[int, float]) -> Dict[int, float]:
    """Table I prediction minus the held-out empirical quantile, in sigmas."""
    _, sigma, _, _ = sample_moments(samples)
    return {
        level: (q - float(np.quantile(samples, normal_cdf(level)))) / sigma
        for level, q in predicted.items()
    }


def heldout_violations(
    samples: np.ndarray,
    predicted: Mapping[int, float],
    fit_error: Mapping[int, float],
    levels: Sequence[int],
    k: float = 3.0,
) -> List[str]:
    """Held-out Monte-Carlo quantiles against the Table I prediction.

    The tolerance is ``k`` combined standard errors: the held-out
    sample's own order-statistic error and the fit's prediction error
    (``fit_error``, in sigmas, from :func:`table1_prediction_error`).
    """
    _, sigma, _, _ = sample_moments(samples)
    errors = heldout_errors(samples, predicted)
    bad = []
    for level in levels:
        tol = k * math.hypot(
            quantile_standard_error(1.0, level, len(samples)), fit_error[level]
        )
        if abs(errors[level]) > tol:
            bad.append(
                f"held-out {level:+d}sigma: Table I predicts {predicted[level]:.4e} s, "
                f"Monte-Carlo gives {predicted[level] - errors[level] * sigma:.4e} s "
                f"(|error| {abs(errors[level]):.3f} sigma > {tol:.3f} sigma)"
            )
    return bad


# ----------------------------------------------------------------------
# STA answers
# ----------------------------------------------------------------------
def answer_violations(
    quantiles: Mapping[int, float], correlated: Mapping[int, float]
) -> List[str]:
    """Eq. 10 answer properties: level order and the correlated variant."""
    bad = []
    levels = sorted(quantiles)
    values = [quantiles[n] for n in levels]
    if any(b <= a for a, b in zip(values, values[1:])):
        bad.append("path quantiles do not strictly increase with sigma level")
    if 0 in quantiles:
        base = quantiles[0]
        if correlated.get(0) != base:
            bad.append("correlated level-0 quantile differs from the level-0 quantile")
        for n in levels:
            slack = 1e-9 * abs(quantiles[n])
            if abs(correlated[n] - base) > abs(quantiles[n] - base) + slack:
                bad.append(
                    f"correlated deviation at {n:+d}sigma exceeds the comonotone one"
                )
    return bad


def same_answer_violations(
    a: Mapping[int, float], b: Mapping[int, float], tol: float
) -> List[str]:
    """Two answers of one scenario agree level by level within ``tol`` seconds."""
    if set(a) != set(b):
        return [f"answers cover different levels: {sorted(a)} vs {sorted(b)}"]
    worst = max(abs(a[n] - b[n]) for n in a)
    if worst > tol:
        return [f"answers differ by {worst:.3e} s (tolerance {tol:.0e} s)"]
    return []


def batch_answer(result) -> Tuple[Dict[int, float], Dict[int, float]]:
    """(Eq. 10 quantiles, correlated quantiles) of a ``BatchSTAResult``."""
    path = result.critical_path
    quantiles = {n: path.total(n) for n in result.scenario.levels}
    return quantiles, dict(result.correlated_quantiles)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def lru_replay(
    sequence: Sequence[str], sizes: Mapping[str, int], budget: int
) -> List[str]:
    """Which requests load their design, by replaying a bytes-budgeted LRU.

    Returns one entry per request: ``"hit"``, ``"load"`` (first load) or
    ``"reload"`` (load of a design evicted earlier). Eviction drops the
    least recently used design other than the one just loaded until the
    resident bytes fit the budget.
    """
    resident: "OrderedDict[str, int]" = OrderedDict()
    seen = set()
    out = []
    for name in sequence:
        if name in resident:
            resident.move_to_end(name)
            out.append("hit")
            continue
        out.append("reload" if name in seen else "load")
        seen.add(name)
        resident[name] = sizes[name]
        while sum(resident.values()) > budget:
            victim = next((n for n in resident if n != name), None)
            if victim is None:
                break
            del resident[victim]
    return out


def load_count_violations(observed: int, predicted: int, what: str) -> List[str]:
    """An observed load count must equal the LRU replay's prediction."""
    if observed != predicted:
        return [f"{what}: observed {observed}, LRU replay predicts {predicted}"]
    return []
