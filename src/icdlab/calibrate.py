"""Label-wise isotonic calibration and exact-match automation.

Calibration fits one monotone step function per label on (probability,
outcome) pairs from the development split. Automation selects whole
documents whose prediction the model is confident about: every predicted
label's probability at least t_u, every other label's at most t_l.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import LeakageError, UndefinedMetricError, ValidationError
from .metrics import Predictions

# --------------------------------------------------------------------------
# isotonic regression
# --------------------------------------------------------------------------


def _pav(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pool adjacent violators: least-squares non-decreasing fit.

    Inputs are per-level outcome means (levels already sorted by raw
    probability, ties pooled) and the level weights. Violating neighbours
    merge into their weighted average until the sequence is monotone.
    """
    val: list[float] = []
    wt: list[float] = []
    start: list[int] = []  # first level index covered by each block
    for i, (m, w) in enumerate(zip(means, weights)):
        val.append(float(m))
        wt.append(float(w))
        start.append(i)
        while len(val) > 1 and val[-2] > val[-1]:
            w_hi, m_hi = wt.pop(), val.pop()
            start.pop()
            wt[-1], val[-1] = wt[-1] + w_hi, (wt[-1] * val[-1] + w_hi * m_hi) / (wt[-1] + w_hi)
    fitted = np.empty(len(means), dtype=np.float64)
    bounds = start + [len(means)]
    for b, v in enumerate(val):
        fitted[bounds[b]:bounds[b + 1]] = v
    return fitted


@dataclass(frozen=True)
class IsotonicMap:
    """Per-label piecewise-constant calibration maps.

    Each label holds sorted raw-probability breakpoints with one calibrated
    value per segment; lookups clamp to the first/last segment outside the
    observed range. Labels without a fitted map pass through unchanged.
    """

    n_labels: int
    maps: dict[int, tuple[np.ndarray, np.ndarray]]

    def apply(self, predictions: Predictions) -> Predictions:
        """The same documents with every fitted label column mapped."""
        if predictions.probs.shape[1] != self.n_labels:
            raise ValidationError(f"calibration maps cover {self.n_labels} labels, "
                                  f"predictions {predictions.probs.shape[1]}")
        probs = predictions.probs.copy()
        for j, (xs, vs) in self.maps.items():
            probs[:, j] = vs[np.maximum(np.searchsorted(xs, probs[:, j], side="right") - 1, 0)]
        return replace(predictions, probs=probs)


def fit_isotonic(predictions: Predictions) -> IsotonicMap:
    """Fit one isotonic map per label on (raw probability, in-gt) pairs."""
    if not len(predictions):
        raise ValidationError("cannot fit calibration on zero records")
    n = predictions.probs.shape[1]
    maps = {}
    for j in range(n):
        xs, inv, cnt = np.unique(predictions.probs[:, j], return_inverse=True,
                                 return_counts=True)
        level_means = np.bincount(inv, weights=predictions.gt[:, j]) / cnt
        maps[j] = (xs, _pav(level_means, cnt.astype(np.float64)))
    return IsotonicMap(n_labels=n, maps=maps)


# --------------------------------------------------------------------------
# expected calibration error
# --------------------------------------------------------------------------


def ece(conf: np.ndarray, hits: np.ndarray, n_bins: int = 10) -> float:
    """Equal-width-bin ECE of one label's column: confidences and 0/1
    outcomes over the same documents.

    Confidences are clipped into [0,1] before binning so that unclamped
    residual scores still land in a bin.
    """
    conf = np.clip(np.asarray(conf, dtype=np.float64), 0.0, 1.0)
    hit = np.asarray(hits, dtype=np.float64)
    if conf.shape != hit.shape or conf.ndim != 1:
        raise ValidationError("ECE needs one confidence and one outcome per document")
    if not conf.size:
        raise UndefinedMetricError("ECE needs at least one observation")
    bins = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    # Σ_b (n_b/m)·|mean conf_b − mean hit_b| = Σ_b |Σ conf_b − Σ hit_b| / m
    gaps = (np.bincount(bins, weights=conf, minlength=n_bins)
            - np.bincount(bins, weights=hit, minlength=n_bins))
    return float(np.abs(gaps).sum() / conf.size)


# --------------------------------------------------------------------------
# exact-match automation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRule:
    """Select a document iff its predicted labels all score ≥ t_u and every
    other label scores ≤ t_l. `select_none` marks a degenerate search result
    that should select nothing at all."""

    t_u: float
    t_l: float
    decision_threshold: float = 0.5
    fitted_on: str = "dev"
    select_none: bool = False

    def __post_init__(self):
        if not (0.0 <= self.t_u <= 1.0 and 0.0 <= self.t_l <= 1.0):
            raise ValidationError("thresholds must lie in [0, 1]")


@dataclass(frozen=True)
class AutomationResult:
    selected: tuple[int, ...]  # positions within the evaluated record list
    true_positives: int
    false_positives: int

    @property
    def fp_rate(self) -> float:
        return self.false_positives / max(1, len(self.selected))


def _extremes(probs: np.ndarray, decision_threshold: float):
    """Per document: the lowest predicted score, -inf when nothing is
    predicted (no t_u selects it), and the highest other score, -inf when
    every label is predicted (every t_l accepts it)."""
    pred = probs > decision_threshold
    lowest = np.min(np.where(pred, probs, np.inf), axis=1, initial=np.inf)
    min_pred = np.where(pred.any(axis=1), lowest, -np.inf)
    max_rest = np.max(np.where(pred, -np.inf, probs), axis=1, initial=-np.inf)
    return min_pred, max_rest


def decide_exact_match(predictions: Predictions, rule: ThresholdRule) -> np.ndarray:
    """(m,) whether the rule selects each document."""
    if rule.select_none:
        return np.zeros(len(predictions), dtype=bool)
    min_pred, max_rest = _extremes(predictions.probs, rule.decision_threshold)
    return (min_pred >= rule.t_u) & (max_rest <= rule.t_l)


def _exact(predictions: Predictions, decision_threshold: float) -> np.ndarray:
    """(m,) iF1 = 1: the thresholded prediction reproduces the gt set exactly."""
    p = predictions
    return ((p.n_unseen == 0) & p.gt.any(axis=1)
            & ((p.probs > decision_threshold) == p.gt).all(axis=1))


_GRID = tuple(i / 20 for i in range(21))


def search_thresholds(predictions: Predictions, max_fp: float,
                      decision_threshold: float = 0.5,
                      fitted_on: str = "dev") -> tuple[ThresholdRule, AutomationResult]:
    """Exhaustive 0.05-step grid search maximizing dev true positives.

    Feasible points keep fp_rate ≤ max_fp; ties break toward lower fp_rate,
    then higher t_u, then lower t_l. If no feasible point selects anything,
    the returned rule carries select_none=True.
    """
    if not 0.0 < max_fp <= 1.0:
        raise ValidationError("max_fp must lie in (0, 1]")
    min_pred, max_rest = _extremes(predictions.probs, decision_threshold)
    exact = _exact(predictions, decision_threshold)

    best_key = None
    best = None
    for t_u in _GRID:
        sel_u = min_pred >= t_u
        for t_l in _GRID:
            sel = sel_u & (max_rest <= t_l)
            n_sel = int(sel.sum())
            tp = int((sel & exact).sum())
            fp = n_sel - tp
            fpr = fp / max(1, n_sel)
            if fpr > max_fp:
                continue
            key = (tp, -fpr, t_u, -t_l)
            if best_key is None or key > best_key:
                best_key = key
                best = (t_u, t_l, sel, tp, fp)

    if best is None or best[3] == 0:
        # for max_fp < 1 a feasible point with zero TP selects nothing
        rule = ThresholdRule(1.0, 0.0, decision_threshold, fitted_on, select_none=True)
        return rule, AutomationResult((), 0, 0)
    t_u, t_l, sel, tp, fp = best
    rule = ThresholdRule(t_u, t_l, decision_threshold, fitted_on)
    return rule, AutomationResult(tuple(np.flatnonzero(sel).tolist()), tp, fp)


def evaluate_automation(predictions: Predictions,
                        rule: ThresholdRule) -> tuple[AutomationResult, float]:
    """Apply the rule and report the identified fraction of exact-match
    records.

    Exactness and decisions use the same probabilities, so the identified
    fraction never exceeds 1. No exact match anywhere → 0.
    """
    if rule.fitted_on == "test":
        raise LeakageError("automation rule was fitted on the test split")
    exact = _exact(predictions, rule.decision_threshold)
    selected = decide_exact_match(predictions, rule)
    tp = int(np.count_nonzero(selected & exact))
    fp = int(np.count_nonzero(selected & ~exact))
    possible = int(np.count_nonzero(exact))
    result = AutomationResult(tuple(np.flatnonzero(selected).tolist()), tp, fp)
    return result, (tp / possible if possible else 0.0)


def automation_sweep(dev: Predictions, test: Predictions, max_fps,
                     maps: IsotonicMap | None = None,
                     decision_threshold: float = 0.5):
    """Fit a rule per false-positive budget on dev, evaluate each on test,
    both calibrated once by the optional maps.

    Returns (max_fp, calibrated?, percent_identified, achieved_fp_rate) rows.
    """
    if maps is not None:
        dev, test = maps.apply(dev), maps.apply(test)
    rows = []
    for max_fp in max_fps:
        rule, _ = search_thresholds(dev, max_fp, decision_threshold)
        result, pct = evaluate_automation(test, rule)
        rows.append((float(max_fp), maps is not None, pct, result.fp_rate))
    return rows


def sweep_csv(rows) -> str:
    lines = ["max_fp,calibrated,percent_identified,achieved_fp_rate"]
    for max_fp, calibrated, pct, fpr in rows:
        lines.append(f"{max_fp:.2f},{'yes' if calibrated else 'no'},"
                     f"{100 * pct:.2f},{100 * fpr:.2f}")
    return "\n".join(lines) + "\n"
