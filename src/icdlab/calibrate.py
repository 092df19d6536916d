"""Label-wise isotonic calibration and exact-match automation.

Calibration fits one monotone step function per label on (probability,
outcome) pairs from the development split. Automation selects whole
documents whose prediction the model is confident about: a rule is the pair
(t_u, t_l), and it selects a document iff every predicted label's
probability is at least t_u and every other label's at most t_l.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .metrics import searchsorted_rows
from .train import Notes

# --------------------------------------------------------------------------
# isotonic regression
# --------------------------------------------------------------------------


_BLOCK_CELLS = 1 << 15  # matrix cells per pass over a block of labels


def _label_blocks(m: int, n: int) -> list[slice]:
    """Runs of consecutive labels of an (m, n) matrix, each of at most
    _BLOCK_CELLS cells (or one label), so that a pass over every label of a
    block at once needs temporaries of a bounded size, not of the matrix's."""
    step = max(1, _BLOCK_CELLS // m)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _pav(sums, weights, first=(0,)) -> np.ndarray:
    """Pool adjacent violators for many labels at once: the least-squares
    non-decreasing fit of every label's level means sums / weights.

    Levels are sorted by raw probability with ties already pooled; label j's
    levels run from index first[j] to the next label's first. The fit of a
    level is the slope over it of its label's greatest convex minorant of the
    cumulative sum diagram (Best & Chakravarti 1990). Point k of the diagram
    is (W_k, S_k), the summed weights and sums of the first k levels, so label
    j spans points first[j] to the next label's first, and a chord inside one
    label reads only differences. Quickhull finds every label's lower hull
    together: each round keeps, under every chord between two known hull
    points, the points strictly below it and adds the furthest of them to the
    hull. A block's fitted value is then its sum over its weight in one
    division, and with integer inputs every comparison is an exact integer
    cross product.
    """
    sums, weights = np.asarray(sums), np.asarray(weights)
    W = np.concatenate(([0], np.cumsum(weights)))
    S = np.concatenate(([0], np.cumsum(sums)))
    hull = np.zeros(len(W), dtype=bool)
    hull[np.asarray(first)] = hull[-1] = True  # both ends of every label
    # a vertex between two levels of one label needs the level mean to rise
    rising = sums[:-1] * weights[1:] < sums[1:] * weights[:-1]
    cand = 1 + np.flatnonzero(rising & ~hull[1:-1])
    while cand.size:
        vertices = np.flatnonzero(hull)
        chord = np.searchsorted(vertices, cand)
        lo, hi = vertices[chord - 1], vertices[chord]
        below = ((W[cand] - W[lo]) * (S[hi] - S[lo])
                 - (S[cand] - S[lo]) * (W[hi] - W[lo]))
        keep = below > 0
        cand, chord, below = cand[keep], chord[keep], below[keep]
        if not cand.size:
            break
        runs = np.flatnonzero(np.append(True, chord[1:] != chord[:-1]))
        furthest = below == np.repeat(np.maximum.reduceat(below, runs),
                                      np.diff(runs, append=cand.size))
        hull[cand[furthest]] = True
        cand = cand[~furthest]
    vertices = np.flatnonzero(hull)
    edge = np.searchsorted(vertices, np.arange(1, len(W)))  # level i ends at point i + 1
    lo, hi = vertices[edge - 1], vertices[edge]
    return (S[hi] - S[lo]) / (W[hi] - W[lo])


@dataclass(frozen=True)
class IsotonicMap:
    """Per-label piecewise-constant calibration maps, label j's the pair
    maps[j] = (xs, vs).

    Each label holds sorted raw-probability breakpoints with one calibrated
    value per segment; lookups clamp to the first/last segment outside the
    observed range. A fitted map starts a segment only where the value
    changes; a map with repeated values (one breakpoint per level) is the
    same function.
    """

    maps: tuple[tuple[np.ndarray, np.ndarray], ...]

    def apply(self, predictions: Notes) -> Notes:
        """The same documents with every label column mapped."""
        if predictions.probs.shape[1] != len(self.maps):
            raise ValidationError(f"calibration maps cover {len(self.maps)} labels, "
                                  f"predictions {predictions.probs.shape[1]}")
        probs = predictions.probs.copy()
        for j, (xs, vs) in enumerate(self.maps):
            probs[:, j] = vs[np.maximum(np.searchsorted(xs, probs[:, j], side="right") - 1, 0)]
        return replace(predictions, probs=probs)


def fit_isotonic(predictions: Notes) -> IsotonicMap:
    """Fit one isotonic map per label on (raw probability, in-gt) pairs: per
    block of labels, one row-wise value sort of their columns, then one PAV
    over every level of the block.

    A level is a run of equal sorted values; its hits are the label's
    positives at that value, each found at its level's start by a binary
    search of its row. A map keeps one breakpoint per step: each label's
    first level, then every level whose fitted value differs from the level
    before it. A dropped level's value is its predecessor's, so lookups are
    the same at every x as over all levels."""
    if not len(predictions):
        raise ValidationError("cannot fit calibration on zero records")
    m, n = predictions.probs.shape
    maps = []
    for block in _label_blocks(m, n):
        cols = predictions.probs[:, block].T.copy()  # sorted in place below
        rows, records = np.nonzero(predictions.gt[:, block].T)
        hits = cols[rows, records]
        cols.sort(axis=1)
        xs = cols.ravel()
        new_level = np.ones(xs.size, dtype=bool)
        np.not_equal(xs[1:], xs[:-1], out=new_level[1:])
        new_level[::m] = True  # each label starts a level
        starts = np.flatnonzero(new_level)
        first = np.searchsorted(starts, np.arange(0, xs.size, m))
        at = np.searchsorted(starts, rows * m + searchsorted_rows(cols, rows, hits, "left"))
        fitted = _pav(np.bincount(at, minlength=starts.size),
                      np.diff(starts, append=xs.size), first)
        step = np.ones(fitted.size, dtype=bool)
        np.not_equal(fitted[1:], fitted[:-1], out=step[1:])
        step[first] = True  # each label starts a step
        steps = np.flatnonzero(step)
        cut = np.searchsorted(steps, first[1:])
        maps += zip(np.split(xs[starts[steps]], cut), np.split(fitted[steps], cut))
    return IsotonicMap(tuple(maps))


# --------------------------------------------------------------------------
# expected calibration error
# --------------------------------------------------------------------------


def ece(conf: np.ndarray, hits: np.ndarray, n_bins: int = 10):
    """Equal-width-bin ECE of each label column: confidences and 0/1
    outcomes over the same documents, (m,) for one label (a float) or
    (m, N) for N labels (an (N,) array), every bin of a block of labels from
    one `bincount`.

    Confidences are clipped into [0,1] before binning so that unclamped
    residual scores still land in a bin.
    """
    conf, hits = np.asarray(conf), np.asarray(hits)
    if conf.shape != hits.shape or conf.ndim not in (1, 2):
        raise ValidationError("ECE needs one confidence and one outcome per document "
                              "and label")
    if not len(conf):
        raise UndefinedMetricError("ECE needs at least one observation")
    m = len(conf)
    cols, outcomes = conf.reshape(m, -1), hits.reshape(m, -1)
    per_label = np.empty(cols.shape[1])
    for block in _label_blocks(*cols.shape):
        c = np.clip(np.asarray(cols[:, block], dtype=np.float64), 0.0, 1.0)
        size = c.shape[1] * n_bins
        bins = np.multiply(c, n_bins, out=np.empty(c.shape, np.int64), casting="unsafe")
        np.minimum(bins, n_bins - 1, out=bins)
        bins += np.arange(0, size, n_bins)  # label j's bins are j·n_bins onwards
        # Σ_b (n_b/m)·|mean conf_b − mean hit_b| = Σ_b |Σ conf_b − Σ hit_b| / m
        gaps = (np.bincount(bins.ravel(), weights=c.ravel(), minlength=size)
                - np.bincount(bins.ravel(), minlength=size,
                              weights=np.asarray(outcomes[:, block], dtype=np.float64).ravel()))
        per_label[block] = np.abs(gaps).reshape(-1, n_bins).sum(axis=1) / m
    return float(per_label[0]) if conf.ndim == 1 else per_label


# --------------------------------------------------------------------------
# exact-match automation
# --------------------------------------------------------------------------


def _extremes(probs: np.ndarray, decision_threshold: float):
    """Per document: the lowest predicted score, -inf when nothing is
    predicted (no t_u selects it), and the highest other score, -inf when
    every label is predicted (every t_l accepts it)."""
    pred = probs > decision_threshold
    min_pred = np.min(probs, axis=1, where=pred, initial=np.inf)
    min_pred[~pred.any(axis=1)] = -np.inf
    max_rest = np.max(probs, axis=1, where=~pred, initial=-np.inf)
    return min_pred, max_rest


def _exact(predictions: Notes, decision_threshold: float) -> np.ndarray:
    """(m,) iF1 = 1: the thresholded prediction reproduces the gt set exactly."""
    p = predictions
    return ((p.n_unseen == 0) & p.gt.any(axis=1)
            & ((p.probs > decision_threshold) == p.gt).all(axis=1))


_GRID = tuple(i / 20 for i in range(21))


def search_thresholds(predictions: Notes, max_fps,
                      decision_threshold: float = 0.5) -> list[tuple[float, float] | None]:
    """One rule per false-positive budget: the (t_u, t_l) point of the
    0.05-step grid with the most dev true positives among those whose fp
    rate is at most the budget, or None, select nothing, where no such point
    has a true positive.

    Ties break toward lower fp rate, then higher t_u, then lower t_l. Every
    grid point is counted at once: a document passes t_u = _GRID[a] iff
    a < u, u the number of grid points ≤ its min_pred, and passes
    t_l = _GRID[b] iff b ≥ l, l the number of grid points < its max_rest; so
    the selected and exact counts over the (t_u, t_l) grid are 2-D
    cumulative sums of one histogram over (u, l), which every budget shares.
    """
    min_pred, max_rest = _extremes(predictions.probs, decision_threshold)
    exact = _exact(predictions, decision_threshold)
    g = len(_GRID)
    cell = (np.searchsorted(_GRID, min_pred, side="right") * (g + 1)
            + np.searchsorted(_GRID, max_rest, side="left"))

    def grid_counts(weights):
        """Documents per (t_u, t_l) grid point, flat: point a·g + b counts
        the documents with u > a and l ≤ b."""
        hist = np.bincount(cell, weights=weights, minlength=(g + 1) ** 2)
        hist = hist.reshape(g + 1, g + 1)[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
        return hist[1:, :g].astype(np.int64).ravel()

    n_sel, tp = grid_counts(None), grid_counts(exact)
    fpr = (n_sel - tp) / np.maximum(1, n_sel)
    a, b = np.divmod(np.arange(g * g), g)  # the t_u and t_l grid indices
    ranked = np.lexsort((b, -a, fpr, -tp))  # the largest key (tp, -fpr, t_u, -t_l) first
    rules = []
    for max_fp in max_fps:
        best = ranked[fpr[ranked] <= max_fp][:1]
        rules.append((_GRID[best[0] // g], _GRID[best[0] % g])
                     if best.size and tp[best[0]] else None)
    return rules


def evaluate_automation(predictions: Notes, rules,
                        decision_threshold: float = 0.5) -> list[tuple[float, float]]:
    """(identified, fp_rate) of each rule: the fraction of exact-match
    records it selects (0 when no record is an exact match) and the fraction
    of what it selects that is not one (0 when it selects nothing).

    Exactness and decisions use the same probabilities, so the identified
    fraction never exceeds 1.
    """
    min_pred, max_rest = _extremes(predictions.probs, decision_threshold)
    exact = _exact(predictions, decision_threshold)
    possible = int(np.count_nonzero(exact))
    results = []
    for rule in rules:
        if rule is None:
            results.append((0.0, 0.0))
            continue
        selected = (min_pred >= rule[0]) & (max_rest <= rule[1])
        n_sel = int(np.count_nonzero(selected))
        tp = int(np.count_nonzero(selected & exact))
        results.append((tp / possible if possible else 0.0, (n_sel - tp) / max(1, n_sel)))
    return results


def automation_sweep(dev: Notes, test: Notes, max_fps,
                     maps: IsotonicMap | None = None,
                     decision_threshold: float = 0.5):
    """Fit a rule per false-positive budget on dev, evaluate each on test,
    both calibrated once by the optional maps.

    Returns (max_fp, calibrated?, percent_identified, achieved_fp_rate) rows.
    """
    if maps is not None:
        dev, test = maps.apply(dev), maps.apply(test)
    rules = search_thresholds(dev, max_fps, decision_threshold)
    return [(float(max_fp), maps is not None, pct, fpr) for max_fp, (pct, fpr)
            in zip(max_fps, evaluate_automation(test, rules, decision_threshold))]


def sweep_csv(rows) -> str:
    lines = ["max_fp,calibrated,percent_identified,achieved_fp_rate"]
    for max_fp, calibrated, pct, fpr in rows:
        lines.append(f"{max_fp:.2f},{'yes' if calibrated else 'no'},"
                     f"{100 * pct:.2f},{100 * fpr:.2f}")
    return "\n".join(lines) + "\n"
