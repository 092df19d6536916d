"""Calibration and automation against brute-force oracles."""

import datetime as dt
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab import calibrate
from icdlab.calibrate import (
    _GRID,
    IsotonicMap,
    _exact,
    _extremes,
    _pav,
    automation_sweep,
    ece,
    evaluate_automation,
    fit_isotonic,
    search_thresholds,
    sweep_csv,
)
from icdlab.cli import _budgets
from icdlab.errors import UndefinedMetricError, UsageError, ValidationError
from icdlab.metrics import Predictions, instance_f1

def P(probs, gts=None):
    """Predictions from score rows and ground-truth index sets, every record
    one visit of patient P0 coded A00.0."""
    probs = np.asarray(probs, dtype=float)
    gt = np.zeros(probs.shape, dtype=bool)
    for i, g in enumerate(gts or ()):
        gt[i, sorted(g)] = True
    m = len(probs)
    return Predictions(probs, gt, [0] * m, ["D0"] * m, [True] * m, [""] * m, ["P0"] * m,
                       [dt.date(2020, 1, 1)] * m, np.arange(m + 1), ["A00.0"] * m)


def column(ps, hits=None):
    """One-label Predictions: one score per document, and the documents
    (by position) whose ground truth holds the label."""
    return P([[p] for p in ps], [{0} if i in (hits or ()) else set()
                                 for i in range(len(ps))])


def mapped(maps, ps):
    return maps.apply(column(ps)).probs[:, 0].tolist()


# ---------------------------------------------------------------------------
# PAV
# ---------------------------------------------------------------------------


def _projection_oracle(means, weights):
    """Least-squares monotone fit by enumerating contiguous partitions."""
    n = len(means)
    best_sse, best_fit = None, None
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        fit = np.empty(n)
        prev = -np.inf
        ok = True
        for a, b in zip(bounds, bounds[1:]):
            w = weights[a:b]
            v = float(np.dot(w, means[a:b]) / w.sum())
            if v < prev:
                ok = False
                break
            prev = v
            fit[a:b] = v
        if not ok:
            continue
        sse = float(np.dot(weights, (fit - means) ** 2))
        if best_sse is None or sse < best_sse:
            best_sse, best_fit = sse, fit
    return best_fit


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_pav_matches_projection_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    means = rng.uniform(size=n)
    weights = rng.integers(1, 5, size=n).astype(float)
    got = _pav(means * weights, weights)
    want = _projection_oracle(means, weights)
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert (np.diff(got) >= -1e-12).all()


def test_pav_monotone_input_untouched():
    means = np.array([0.0, 0.25, 0.25, 1.0])
    np.testing.assert_array_equal(_pav(means, np.ones(4)), means)


def test_pav_single_violation_pools_to_average():
    np.testing.assert_allclose(_pav(np.array([1.0, 0.0]), np.ones(2)), [0.5, 0.5])


def _exact_pav(sums, weights):
    """Sequential pool-adjacent-violators in exact rationals, each block's
    value rounded once: the reference for long chains."""
    blocks = []  # [sum, weight, levels]
    for s, w in zip(sums.tolist(), weights.tolist()):
        blocks.append([s, w, 1])
        while (len(blocks) > 1
               and Fraction(blocks[-2][0], blocks[-2][1]) > Fraction(blocks[-1][0], blocks[-1][1])):
            s_hi, w_hi, n_hi = blocks.pop()
            blocks[-1] = [blocks[-1][0] + s_hi, blocks[-1][1] + w_hi, blocks[-1][2] + n_hi]
    return np.array([s / w for s, w, n in blocks for _ in range(n)])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_pav_of_many_labels_is_each_labels_exact_fit(seed):
    # one call over several labels' levels equals each label fitted alone,
    # every value the correctly rounded quotient of its block's sums
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 40, size=int(rng.integers(1, 6)))
    weights = rng.integers(1, 9, size=sizes.sum())
    sums = rng.binomial(weights, rng.uniform(size=sizes.sum()))
    first = np.cumsum(sizes) - sizes
    got = _pav(sums, weights, first)
    for lo, hi in zip(first, first + sizes):
        np.testing.assert_array_equal(got[lo:hi], _exact_pav(sums[lo:hi], weights[lo:hi]))


@pytest.mark.parametrize("drop_weight", [2_000, 1_000_000])
def test_pav_convex_chain_then_drop(drop_weight):
    # 1,000 levels whose means rise by 1/1000 each (a convex run of the
    # cumulative sum diagram), then one level of mean 0 that pools part or
    # all of the run
    sums = np.append(np.arange(1000), 0)
    weights = np.append(np.full(1000, 1000), drop_weight)
    got = _pav(sums, weights)
    np.testing.assert_array_equal(got, _exact_pav(sums, weights))
    assert (np.diff(got) >= 0).all()


# ---------------------------------------------------------------------------
# fit / apply
# ---------------------------------------------------------------------------


def test_fit_monotone_data_reproduces_level_means():
    m = fit_isotonic(column([0.1, 0.1, 0.9, 0.9], hits={2, 3}))
    # level means, clamp below, clamp above, inside the first segment
    assert mapped(m, [0.1, 0.9, 0.05, 0.99, 0.5]) == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_fit_pools_single_violation():
    m = fit_isotonic(column([0.2, 0.4], hits={0}))
    assert mapped(m, [0.2, 0.4]) == [0.5, 0.5]


def test_fit_constant_for_all_positive():
    m = fit_isotonic(column([0.3, 0.8], hits={0, 1}))
    assert mapped(m, [0.0, 0.3, 0.55, 1.0]) == [1.0] * 4


def test_ties_pool_before_fitting():
    m = fit_isotonic(column([0.3, 0.3], hits={0}))
    xs, vs = m.maps[0]
    assert xs.tolist() == [0.3]
    assert vs.tolist() == [0.5]


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_fit_matches_the_projection_oracle_on_every_label(seed):
    # tied scores on a coarse grid keep each label at ≤ 12 levels
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 30)), int(rng.integers(1, 6))
    probs = rng.integers(0, int(rng.integers(1, 12)), size=(m, n)) / 11
    gt = rng.uniform(size=(m, n)) < probs
    fitted = fit_isotonic(P(probs, [set(np.flatnonzero(row)) for row in gt]))
    assert len(fitted.maps) == n
    for j, (xs, vs) in enumerate(fitted.maps):
        levels, inverse, counts = np.unique(probs[:, j], return_inverse=True,
                                            return_counts=True)
        positives = np.bincount(inverse, weights=gt[:, j]).astype(int)
        at = fitted.apply(P(np.tile(levels[:, None], (1, n)))).probs[:, j]  # per level
        np.testing.assert_allclose(at, _projection_oracle(positives / counts, counts),
                                   rtol=0, atol=1e-12)
        # one breakpoint per step: at the first level and wherever the value changes
        assert (np.diff(xs) > 0).all() and (np.diff(vs) > 0).all()
        np.testing.assert_array_equal(vs, np.unique(at))
        np.testing.assert_array_equal(xs, levels[np.flatnonzero(np.diff(at, prepend=-1.0))])
        # each block of equal fitted values holds exactly its positives over its count
        bounds = np.flatnonzero(np.diff(np.append(np.append(-1.0, at), 2.0)))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert (at[lo:hi] == positives[lo:hi].sum() / counts[lo:hi].sum()).all()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_stepped_map_applies_as_the_full_level_map(seed):
    # a full-level map (one breakpoint per level with its PAV value, which
    # load_isotonic still reads) and the stepped fit give the same bits on
    # the fit data and on probes on both sides of the fitted range
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    probs = rng.integers(0, int(rng.integers(1, 20)), size=(m, n)) / 19
    gt = rng.uniform(size=(m, n)) < probs
    records = P(probs, [set(np.flatnonzero(row)) for row in gt])
    full = []
    for j in range(n):
        levels, inverse, counts = np.unique(probs[:, j], return_inverse=True,
                                            return_counts=True)
        full.append((levels, _pav(np.bincount(inverse, weights=gt[:, j]).astype(np.int64),
                                  counts)))
    stepped, full = fit_isotonic(records), IsotonicMap(tuple(full))
    probes = P(rng.uniform(-0.2, 1.2, size=(50, n)))
    for data in (records, probes):
        assert stepped.apply(data).probs.tobytes() == full.apply(data).probs.tobytes()


def _argsort_fit(predictions: Predictions) -> IsotonicMap:
    """fit_isotonic with its levels found through a row-wise argsort of each
    block's columns and the hits gathered in that order."""
    m, n = predictions.probs.shape
    maps = []
    for block in calibrate._label_blocks(m, n):
        cols = np.ascontiguousarray(predictions.probs[:, block].T)
        order = np.argsort(cols, axis=1)
        xs = np.take_along_axis(cols, order, axis=1).ravel()
        hits = np.take_along_axis(predictions.gt[:, block].T, order, axis=1).ravel()
        new_level = np.ones(xs.size, dtype=bool)
        np.not_equal(xs[1:], xs[:-1], out=new_level[1:])
        new_level[::m] = True
        starts = np.flatnonzero(new_level)
        first = np.searchsorted(starts, np.arange(0, xs.size, m))
        fitted = _pav(np.add.reduceat(hits, starts, dtype=np.int64),
                      np.diff(starts, append=xs.size), first)
        step = np.ones(fitted.size, dtype=bool)
        np.not_equal(fitted[1:], fitted[:-1], out=step[1:])
        step[first] = True
        steps = np.flatnonzero(step)
        cut = np.searchsorted(steps, first[1:])
        maps += zip(np.split(xs[starts[steps]], cut), np.split(fitted[steps], cut))
    return IsotonicMap(tuple(maps))


def _tied_scores(rng):
    """Finite scores and ground truth made of what ranking ties are made of:
    a few values (both signed zeros among them), whole records of one value,
    labels of one value, and a label with a single positive."""
    m, n = int(rng.integers(1, 40)), int(rng.integers(1, 9))
    values = np.array([0.0, -0.0, 0.5, 1.0, 0.25, -2.0, 1e300, 5e-324])
    probs = rng.choice(values[:int(rng.integers(1, values.size + 1))], size=(m, n))
    if rng.random() < 0.3:  # continuous scores among the ties
        probs = np.where(rng.random((m, n)) < 0.5, rng.uniform(size=(m, n)), probs)
    probs[rng.random(m) < 0.2] = probs[0, 0]
    probs[:, rng.random(n) < 0.2] = probs[-1, -1]
    gt = rng.random((m, n)) < rng.uniform(0.05, 0.7)
    one = int(rng.integers(n))
    gt[:, one] = False
    gt[int(rng.integers(m)), one] = True
    return probs, gt


@pytest.mark.parametrize("block_cells", [None, 7])
def test_fit_has_the_bits_of_the_argsort_fit(monkeypatch, block_cells):
    if block_cells:  # a block of one label, as on a large split
        monkeypatch.setattr(calibrate, "_BLOCK_CELLS", block_cells)
    for seed in range(300):
        probs, gt = _tied_scores(np.random.default_rng(seed))
        records = P(probs, [set(np.flatnonzero(row)) for row in gt])
        got, want = fit_isotonic(records).maps, _argsort_fit(records).maps
        assert len(got) == len(want) == probs.shape[1]
        for j, ((got_x, got_v), (want_x, want_v)) in enumerate(zip(got, want)):
            assert got_v.tobytes() == want_v.tobytes(), (seed, j)
            zeros = np.signbit(probs[:, j][probs[:, j] == 0])
            if zeros.any() and not zeros.all():
                # a level of -0.0 and +0.0 starts at whichever zero its sort put
                # first; the maps are the same function either way
                got_x, want_x = got_x + 0.0, want_x + 0.0
            assert got_x.tobytes() == want_x.tobytes(), (seed, j)


@pytest.mark.parametrize("shape", [(5, 1), (1, 4), (6, 3)])
def test_fit_leaves_the_scores_it_sorts_as_they_were(shape):
    probs = np.random.default_rng(2).uniform(size=shape)
    records = P(probs.copy(), [{0}] * shape[0])
    fit_isotonic(records)
    assert records.probs.tobytes() == probs.tobytes()


def test_fit_single_level_and_constant_columns():
    # one record is one level; a constant column is one level of all records
    one = fit_isotonic(P([[0.4, 0.7]], [{1}])).maps
    assert [(xs.tolist(), vs.tolist()) for xs, vs in one] == [([0.4], [0.0]),
                                                               ([0.7], [1.0])]
    const = fit_isotonic(P([[0.3, 0.2]] * 3, [{0}, {0}, {1}])).maps
    assert [(xs.tolist(), vs.tolist()) for xs, vs in const] == [([0.3], [2 / 3]),
                                                                 ([0.2], [1 / 3])]


@pytest.mark.parametrize("block_cells", [5, 20])
def test_label_blocks_give_the_whole_matrix_results(monkeypatch, block_cells):
    # one label per block (fewer cells than records), then two labels per
    # block with a last block of one: maps and ECEs as from one block
    rng = np.random.default_rng(8)
    probs = rng.integers(0, 6, size=(9, 11)) / 5
    gt = rng.uniform(size=(9, 11)) < probs
    records = P(probs, [set(np.flatnonzero(row)) for row in gt])
    whole, whole_ece = fit_isotonic(records).maps, ece(probs, gt)
    monkeypatch.setattr(calibrate, "_BLOCK_CELLS", block_cells)
    blocked = fit_isotonic(records).maps
    assert len(blocked) == len(whole)
    for j, (xs, vs) in enumerate(whole):
        np.testing.assert_array_equal(blocked[j][0], xs)
        np.testing.assert_array_equal(blocked[j][1], vs)
    np.testing.assert_array_equal(ece(probs, gt), whole_ece)


def test_apply_rebuilds_records():
    records = P([[0.2, 0.9], [0.4, 0.1]], [{1}, {0}])
    out = fit_isotonic(records).apply(records)
    assert len(out) == 2
    np.testing.assert_array_equal(out.gt, records.gt)
    assert out.probs.shape == (2, 2)


def test_apply_rejects_other_label_space():
    m = fit_isotonic(column([0.2, 0.7], hits={0}))
    with pytest.raises(ValidationError):
        m.apply(P([[0.2, 0.3]]))


def test_fit_rejects_empty_and_ragged():
    with pytest.raises(ValidationError):
        fit_isotonic(P(np.zeros((0, 1))))
    with pytest.raises(ValidationError):
        replace(P([[0.2]]), gt=np.zeros((1, 2), dtype=bool))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_map_is_monotone_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n_rec = int(rng.integers(2, 30))
    ps, hits = [], set()
    for i in range(n_rec):
        ps.append(rng.uniform())
        if rng.uniform() < 0.5:
            hits.add(i)
    m = fit_isotonic(column(ps, hits))
    vals = mapped(m, np.sort(rng.uniform(-0.2, 1.2, size=20)))
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# ECE
# ---------------------------------------------------------------------------


def test_ece_balanced_constant_half_is_zero():
    assert ece([0.5] * 4, [1, 0, 1, 0]) == 0.0


def test_ece_confident_and_wrong_is_one():
    assert ece([1.0] * 3, [0] * 3) == 1.0


def test_ece_six_point_toy_matches_definition():
    conf = [0.05, 0.15, 0.15, 0.75, 0.85, 0.95]
    hits = [0, 1, 0, 1, 1, 0]
    want = (abs(0.05 - 0) + 2 * abs(0.15 - 0.5) + abs(0.75 - 1)
            + abs(0.85 - 1) + abs(0.95 - 0)) / 6
    assert ece(conf, hits) == pytest.approx(want, abs=1e-12)


def _ece_loop(conf, hits, n_bins):
    """Reference: the per-bin definition, Σ_b (n_b/m)·|mean conf_b − mean hit_b|."""
    conf = np.clip(np.asarray(conf, dtype=float), 0.0, 1.0)
    hit = np.asarray(hits, dtype=float)
    bins = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        mask = bins == b
        if mask.any():
            total += mask.sum() / conf.size * abs(conf[mask].mean() - hit[mask].mean())
    return total


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_ece_matches_the_per_bin_loop(seed):
    rng = np.random.default_rng(seed)
    m, n_bins = int(rng.integers(1, 300)), int(rng.integers(1, 25))
    conf = rng.uniform(-0.1, 1.1, size=m)  # some outside [0, 1], clipped into the end bins
    conf[rng.uniform(size=m) < 0.2] = rng.integers(0, n_bins + 1) / n_bins  # bin edges
    hits = rng.uniform(size=m) < np.clip(conf, 0.0, 1.0)
    # the sums run in another order: allow a few float64 ulps per document
    assert ece(conf, hits, n_bins) == pytest.approx(_ece_loop(conf, hits, n_bins),
                                                    rel=0, abs=m * 1e-15)


def test_ece_validation():
    with pytest.raises(UndefinedMetricError):
        ece([], [])
    with pytest.raises(ValidationError):
        ece([0.5], [1, 0])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_fit_data_ece_never_increases(seed):
    rng = np.random.default_rng(seed)
    n_labels = int(rng.integers(1, 4))
    probs, gts = [], []
    for _ in range(int(rng.integers(4, 40))):
        probs.append(rng.uniform(size=n_labels))
        gts.append({j for j in range(n_labels) if rng.uniform() < probs[-1][j]})
    records = P(probs, gts)
    cal = fit_isotonic(records).apply(records)
    for j in range(n_labels):
        hits = records.gt[:, j]
        assert ece(cal.probs[:, j], hits) <= ece(records.probs[:, j], hits) + 1e-9


# ---------------------------------------------------------------------------
# decision rule
# ---------------------------------------------------------------------------

RULE = (0.95, 0.10)  # (t_u, t_l)


def decide(probs, rule=RULE):
    """Whether the rule selects the one document: a selected document is
    identified if it is an exact match and a false positive if not."""
    [(identified, fp_rate)] = evaluate_automation(P([probs], [{0}]), [rule])
    return identified + fp_rate > 0


def test_decide_confident_prediction_selected():
    assert decide([0.97, 0.05])


def test_decide_uncertain_negative_rejected():
    assert not decide([0.97, 0.50])


def test_decide_empty_prediction_rejected():
    assert not decide([0.30, 0.20])


def test_decide_all_labels_predicted_needs_no_t_l():
    assert decide([0.97, 0.96])


def test_decide_boundaries_are_closed():
    assert decide([0.95, 0.10], (0.95, 0.10))


def test_no_rule_selects_nothing():
    assert not decide([1.0, 0.0], None)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_tightening_thresholds_only_shrinks(seed):
    rng = np.random.default_rng(seed)
    records = [rng.uniform(size=6) for _ in range(10)]
    t_u, t_l = rng.uniform(size=2)
    loose = (t_u, t_l)
    tight = (min(1.0, t_u + 0.2), max(0.0, t_l - 0.2))
    assert not any(decide(probs, tight) and not decide(probs, loose) for probs in records)


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------


def test_search_perfect_record_picks_extreme_corner():
    # every grid point ties at 1 TP / 0 FP → higher t_u, then lower t_l
    records = P([[1.0, 0.0]], [{0}])
    rules = search_thresholds(records, [1.0])
    assert rules == [(1.0, 0.0)]
    assert evaluate_automation(records, rules) == [(1.0, 0.0)]  # 1 TP, 0 FP


def test_search_excludes_near_miss():
    records = P([[0.9, 0.1],    # exact match
                 [0.8, 0.3]],   # predicts {0}, wrong
                [{0}, {1}])
    rules = search_thresholds(records, [0.05])
    assert rules == [(0.9, 0.1)]
    assert evaluate_automation(records, rules) == [(1.0, 0.0)]  # record 0 alone


def test_search_all_half_probs_selects_nothing():
    assert search_thresholds(P([[0.5, 0.5]] * 3, [{0}] * 3), [0.2]) == [None]


def _grid_loop_search(predictions, max_fp, decision_threshold=0.5):
    """The search point by point over the 21 × 21 grid: the reference for the
    counted search. Returns the rule and, on the searched records, its
    (identified, fp_rate)."""
    min_pred, max_rest = _extremes(predictions.probs, decision_threshold)
    exact = _exact(predictions, decision_threshold)
    best_key, best = None, None
    for t_u in _GRID:
        for t_l in _GRID:
            sel = (min_pred >= t_u) & (max_rest <= t_l)
            n_sel = int(sel.sum())
            tp = int((sel & exact).sum())
            fpr = (n_sel - tp) / max(1, n_sel)
            if fpr > max_fp:
                continue
            key = (tp, -fpr, t_u, -t_l)
            if best_key is None or key > best_key:
                best_key, best = key, (t_u, t_l, sel, tp, n_sel - tp)
    if best is None or best[3] == 0:
        return None, (0.0, 0.0)
    t_u, t_l, sel, tp, fp = best
    possible = int(exact.sum())
    return (t_u, t_l), (tp / possible if possible else 0.0, fp / max(1, int(sel.sum())))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_search_equals_the_grid_loop(seed):
    # scores on the grid itself, records predicting nothing (min_pred -inf)
    # or everything (max_rest -inf), plain and calibrated
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 60)), int(rng.integers(1, 5))
    probs = np.where(rng.uniform(size=(m, n)) < 0.5, rng.integers(0, 21, size=(m, n)) / 20,
                     rng.uniform(size=(m, n)))
    probs[rng.uniform(size=m) < 0.15] *= 0.5  # every label ≤ 0.5: nothing predicted
    everything = rng.uniform(size=m) < 0.15  # every label > 0.5: all predicted
    probs[everything] = 0.55 + 0.45 * probs[everything]
    gts = [set(np.flatnonzero(row > 0.5)) if rng.uniform() < 0.6
           else {int(rng.integers(n))} for row in probs]
    records = P(probs, gts)
    calibrated = fit_isotonic(records).apply(records)
    budgets = (0.05, 0.1, 0.2, 0.4, 1.0)
    for r in (records, calibrated):
        rules = search_thresholds(r, budgets)
        want = [_grid_loop_search(r, max_fp) for max_fp in budgets]
        assert rules == [rule for rule, _ in want]
        assert evaluate_automation(r, rules) == [result for _, result in want]


def test_search_max_fp_domain():
    # budgets are checked once, where --max-fp is parsed
    assert _budgets("1.0") == [1.0]  # closed upper end allowed
    for bad in ("0.0", "-0.1", "1.5"):
        with pytest.raises(UsageError):
            _budgets(bad)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_search_respects_budget_and_counts_add_up(seed):
    rng = np.random.default_rng(seed)
    probs, gts = [], []
    for _ in range(30):
        probs.append(rng.uniform(size=4))
        gts.append({int(j) for j in np.nonzero(probs[-1] > 0.5)[0]}
                   if rng.uniform() < 0.5 else {int(rng.integers(4))})
    records = P(probs, gts)
    max_fp = float(rng.choice([0.05, 0.1, 0.2, 0.5]))
    [rule] = search_thresholds(records, [max_fp])
    [(identified, fp_rate)] = evaluate_automation(records, [rule])
    assert fp_rate <= max_fp
    assert 0.0 <= identified <= 1.0
    if rule is not None:
        # a rule is searched only where it finds a true positive
        assert identified > 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_no_rule_scores_zero():
    assert evaluate_automation(P([[1.0]], [{0}]), [None]) == [(0.0, 0.0)]


def test_evaluate_separable_fixture_identifies_everything():
    rng = np.random.default_rng(3)
    probs, gts = [], []
    for _ in range(40):
        gts.append({int(rng.integers(5))})
        probs.append(np.where(np.isin(np.arange(5), list(gts[-1])), 0.99, 0.01))
    # all 40 documents are exact matches, so identifying all selects all
    [(pct, fp_rate)] = evaluate_automation(P(probs, gts), [(0.95, 0.05)])
    assert pct == 1.0
    assert fp_rate == 0.0


def test_evaluate_no_possible_exact_matches_is_zero():
    records = P([[0.9, 0.9]], [{0}])  # prediction {0,1} never equals gt
    # the rule selects it, and every document it selects is a false positive
    assert evaluate_automation(records, [(0.0, 1.0)]) == [(0.0, 1.0)]


def test_exactness_agrees_with_instance_f1():
    rng = np.random.default_rng(9)
    rule = (0.0, 1.0)  # selects every non-empty prediction
    for _ in range(200):
        probs = rng.uniform(size=5)
        gt = {int(j) for j in rng.choice(5, 2, replace=False)}
        r = P([probs], [gt])
        [(identified, fp_rate)] = evaluate_automation(r, [rule])
        if identified:  # a true positive
            assert instance_f1(r)[0] == 1.0
        elif fp_rate:  # selected, not a true positive
            assert instance_f1(r)[0] < 1.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sweep_rows_are_dev_rules_evaluated_on_test(seed):
    # the rules come from dev alone: other test records leave them as they are
    rng = np.random.default_rng(seed)

    def records(m):
        probs = np.where(rng.uniform(size=(m, 3)) < 0.5, rng.integers(0, 21, size=(m, 3)) / 20,
                         rng.uniform(size=(m, 3)))
        return P(probs, [set(np.flatnonzero(row > 0.5)) if rng.uniform() < 0.7
                         else {int(rng.integers(3))} for row in probs])

    dev, test, other = records(40), records(30), records(25)
    budgets = [0.05, 0.1, 0.2, 0.4, 1.0]
    rules = search_thresholds(dev, budgets)
    assert automation_sweep(dev, test, budgets) == [
        (max_fp, False, pct, fpr)
        for max_fp, (pct, fpr) in zip(budgets, evaluate_automation(test, rules))]
    assert automation_sweep(dev, other, budgets) == [
        (max_fp, False, pct, fpr)
        for max_fp, (pct, fpr) in zip(budgets, evaluate_automation(other, rules))]


def test_sweep_rows_and_csv():
    dev = P([[0.9, 0.1], [0.2, 0.8]], [{0}, {1}])
    test = P([[0.95, 0.05]], [{0}])
    rows = automation_sweep(dev, test, [0.05, 0.2])
    assert [r[0] for r in rows] == [0.05, 0.2]
    assert all(r[1] is False for r in rows)
    csv = sweep_csv(rows)
    assert csv.splitlines()[0] == "max_fp,calibrated,percent_identified,achieved_fp_rate"
    assert len(csv.strip().splitlines()) == 3


def test_sweep_with_calibration_uses_calibrated_rule():
    rng = np.random.default_rng(5)
    probs, gts = [], []
    for _ in range(60):
        gts.append({int(rng.integers(3))})
        p = np.where(np.isin(np.arange(3), list(gts[-1])), 0.9, 0.2)
        probs.append(p + rng.uniform(-0.05, 0.05, size=3))
    dev = P(probs, gts)
    maps = fit_isotonic(dev)
    rows = automation_sweep(dev, dev, [0.1], maps=maps)
    (max_fp, calibrated, pct, fpr) = rows[0]
    assert calibrated is True
    assert 0.0 <= pct <= 1.0
    assert fpr <= 0.1 + 1e-12
