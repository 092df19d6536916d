"""Evaluation measures for multi-label code prediction.

A set of m evaluated documents over a label space of N codes is one
`Predictions` value:

* `probs` (m, N) float64: one score row per document, C-ordered;
* `gt` (m, N) bool: the document's ground-truth codes that have a label
  index;
* `n_unseen` (m,) int: ground-truth codes with no index in the label space;
* context columns, one entry per document: `dept`, `first_visit`,
  `freq_bucket`, `patient_id` (str) and `date` (datetime64[D]);
* the documents' codes, label space or not, as CSR: `codes` (str) holds each
  document's codes sorted, document i's being
  codes[code_offsets[i]:code_offsets[i + 1]], and `code_offsets` is (m+1,).

No column holds Python objects.

Conventions that matter:

* Ranking ties break by ascending label index (the order of a stable
  argsort on negated scores), so runs are reproducible.
* Unseen ground-truth codes stay in denominators: they count against
  recall, add false negatives to micro-F1, and are excluded from AUC (they
  have no score to rank).
* Per-document measures are (m,) vectors; their means reduce that vector
  in document order.
* Macro averages cover only labels with at least one positive in the
  evaluated records.
* All values live in [0,1]; external reports multiply by 100.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, fields

import numpy as np

from .corpus import CODE_RE, chapter
from .errors import UndefinedMetricError, ValidationError

# --------------------------------------------------------------------------
# prediction substrate
# --------------------------------------------------------------------------

_EPOCH = dt.date(1970, 1, 1).toordinal()


def date_column(dates) -> np.ndarray:
    """A list of dates as a datetime64[D] column, through their ordinals:
    numpy converts date objects one at a time, some 40 times slower."""
    return (np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
            - _EPOCH).astype("datetime64[D]")


_DTYPES = {"probs": np.float64, "gt": bool, "n_unseen": np.int64, "dept": str,
           "first_visit": bool, "freq_bucket": str, "patient_id": str,
           "date": "datetime64[D]", "code_offsets": np.int64, "codes": str}


@dataclass(frozen=True)
class Predictions:
    """Scores and ground truth of m documents; see the module docstring."""

    probs: np.ndarray
    gt: np.ndarray
    n_unseen: np.ndarray
    dept: np.ndarray
    first_visit: np.ndarray
    freq_bucket: np.ndarray
    patient_id: np.ndarray
    date: np.ndarray
    code_offsets: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.ascontiguousarray(getattr(self, f.name),
                                                                  dtype=_DTYPES[f.name]))
        if self.probs.ndim != 2 or self.gt.shape != self.probs.shape:
            raise ValidationError(f"probs {self.probs.shape} and gt {self.gt.shape} must be "
                                  f"equal (m, N) matrices")
        for f in fields(self)[2:-2]:  # the per-document columns
            if getattr(self, f.name).shape != (len(self),):
                raise ValidationError(f"{f.name} column must have one entry per row ({len(self)})")
        offsets = self.code_offsets
        if (offsets.shape != (len(self) + 1,) or self.codes.ndim != 1 or offsets[0]
                or offsets[-1] != self.codes.size or (offsets[1:] < offsets[:-1]).any()):
            raise ValidationError(f"code_offsets must rise from 0 to the {self.codes.size} codes "
                                  f"in one step per row ({len(self)})")

    def __len__(self) -> int:
        return self.probs.shape[0]


def _require_gt(p: Predictions) -> np.ndarray:
    """(m,) ground-truth count of each document, unseen codes included."""
    total = p.gt.sum(axis=1) + p.n_unseen
    if not total.all():
        raise UndefinedMetricError("record has no ground-truth labels")
    return total


# --------------------------------------------------------------------------
# per-record measures
# --------------------------------------------------------------------------


def recall_at_k(p: Predictions, k: int = 5) -> np.ndarray:
    """(m,) share of each document's ground truth found in its top k.

    A ground-truth label is in the top k iff fewer than k labels of its
    document rank above it: those scoring higher, plus the equal-scoring
    ones of lower index. A NaN score ranks below every number, as in a
    stable argsort. The scores of at most m ground-truth cells are compared
    with their documents' rows at once, so no temporary outgrows the (m, N)
    matrix."""
    total = _require_gt(p)
    m, n = p.probs.shape
    rows, cols = np.nonzero(p.gt)
    found = np.zeros(m, dtype=np.int64)
    for lo in range(0, rows.size, max(m, 1)):
        r, c = rows[lo:lo + m], cols[lo:lo + m]
        scores = p.probs[r]
        own = p.probs[r, c][:, None]
        before = np.arange(n) < c[:, None]
        rank = (np.count_nonzero(scores > own, axis=1)
                + np.count_nonzero((scores == own) & before, axis=1))
        nan = np.isnan(own[:, 0])
        if nan.any():
            blank = np.isnan(scores[nan])
            rank[nan] = (np.count_nonzero(~blank, axis=1)
                         + np.count_nonzero(blank & before[nan], axis=1))
        found += np.bincount(r[rank < k], minlength=m)
    return found / total


def instance_f1(p: Predictions, decision_threshold: float = 0.5) -> np.ndarray:
    """(m,) F1 of each document's thresholded prediction against its ground
    truth; an empty prediction scores 0."""
    total = _require_gt(p)
    pred = p.probs > decision_threshold
    tp = np.count_nonzero(pred & p.gt, axis=1)
    precision = tp / np.maximum(np.count_nonzero(pred, axis=1), 1)
    recall = tp / total
    return np.divide(2.0 * precision * recall, precision + recall,
                     out=np.zeros(len(p)), where=tp > 0)


def mean_recall_at_k(p: Predictions, k: int = 5) -> float:
    if not len(p):
        raise UndefinedMetricError("no records")
    return float(np.mean(recall_at_k(p, k)))


def mean_instance_f1(p: Predictions, decision_threshold: float = 0.5) -> float:
    if not len(p):
        raise UndefinedMetricError("no records")
    return float(np.mean(instance_f1(p, decision_threshold)))


# --------------------------------------------------------------------------
# pooled / per-label measures
# --------------------------------------------------------------------------


def micro_f1(p: Predictions, decision_threshold: float = 0.5) -> float:
    if not (p.gt.any() or p.n_unseen.any()):
        raise UndefinedMetricError("micro-F1 undefined without any positive labels")
    pred = p.probs > decision_threshold
    tp = int(np.count_nonzero(pred & p.gt))
    fp = int(np.count_nonzero(pred & ~p.gt))
    fn = int(np.count_nonzero(~pred & p.gt)) + int(p.n_unseen.sum())
    return 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def macro_f1(p: Predictions, decision_threshold: float = 0.5) -> float:
    if not len(p):
        raise UndefinedMetricError("no records")
    pred = p.probs > decision_threshold
    tp = np.count_nonzero(pred & p.gt, axis=0)
    fp = np.count_nonzero(pred & ~p.gt, axis=0)
    fn = np.count_nonzero(~pred & p.gt, axis=0)
    has_pos = (tp + fn) > 0  # labels with ≥1 eval positive
    if not has_pos.any():
        raise UndefinedMetricError("macro-F1 undefined without any positive labels")
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1e-300), 0.0)
    return float(f1[has_pos].mean())


def _rankdata(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a float vector with ties sharing their average rank:
    the mean of a value's first and last sorted positions, a half-integer and
    so exact."""
    xs = np.sort(x)
    return (np.searchsorted(xs, x, "left") + np.searchsorted(xs, x, "right") + 1) / 2


def searchsorted_rows(xs: np.ndarray, rows: np.ndarray, values: np.ndarray,
                      side: str) -> np.ndarray:
    """np.searchsorted(xs[r], v, side) for every pair (r, v) of `rows` and
    `values`, each row of the (K, m) matrix `xs` sorted and `rows` ascending,
    so that each row's values are one slice: one search of that slice per row."""
    bounds = np.searchsorted(rows, np.arange(len(xs) + 1)).tolist()
    return np.concatenate([np.searchsorted(row, values[lo:hi], side)
                           for row, lo, hi in zip(xs, bounds, bounds[1:])])


def _aucs(xs: np.ndarray, rows: np.ndarray, values: np.ndarray,
          n_pos: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of every row of the row-sorted (K, m) scores `xs`,
    whose positives are the scores `values` in rows `rows`, ties counting half.

    A positive's rank is `_rankdata`'s average rank, found by two searches
    of its row (`rows` ascending). The rank sums add half-integers, exact in
    any order, and nothing is gathered through an index sort.
    """
    n_neg = xs.shape[1] - n_pos
    if not (n_pos.all() and n_neg.all()):
        raise UndefinedMetricError("AUC undefined for single-class data")
    ranks = (searchsorted_rows(xs, rows, values, "left")
             + searchsorted_rows(xs, rows, values, "right") + 1) / 2
    rank_sum = np.bincount(rows, weights=ranks, minlength=len(xs))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_micro(p: Predictions) -> float:
    if not len(p):
        raise UndefinedMetricError("no records")
    values = p.probs[p.gt]
    return float(_aucs(np.sort(p.probs, axis=None)[None], np.zeros(values.size, np.int64),
                       values, np.array([values.size]))[0])


def auc_macro(p: Predictions) -> float:
    if not len(p):
        raise UndefinedMetricError("no records")
    n_pos = p.gt.sum(axis=0)
    two_class = np.flatnonzero((n_pos > 0) & (n_pos < len(p)))
    if not two_class.size:
        raise UndefinedMetricError("macro AUC: every label is single-class")
    scores = np.ascontiguousarray(p.probs[:, two_class].T)
    rows, cols = np.nonzero(p.gt[:, two_class].T)
    values = scores[rows, cols]
    scores.sort(axis=1)
    return float(np.mean(_aucs(scores, rows, values, n_pos[two_class])))


# --------------------------------------------------------------------------
# grouped breakdowns
# --------------------------------------------------------------------------

GROUP_KEYS = ("dept", "label_frequency_bucket", "first_visit")


@dataclass(frozen=True)
class GroupReport:
    group: str
    size: int
    recall_at_5: float
    instance_f1: float
    distinct_labels_per_period: float


def _group_values(p: Predictions, key: str) -> np.ndarray:
    if key not in GROUP_KEYS:
        raise ValidationError(f"unknown group key {key!r}; expected one of {GROUP_KEYS}")
    return {"dept": p.dept, "label_frequency_bucket": p.freq_bucket,
            "first_visit": np.where(p.first_visit, "first", "recurring")}[key]


def _distinct_labels_per_period(p: Predictions, group: np.ndarray,
                                n_groups: int) -> np.ndarray:
    """(n_groups,) mean number of distinct gt codes per calendar year within
    each group of documents, 0 for a group without codes.

    Codes outside the label space count too, so this reads the documents'
    codes rather than the gt matrix: one set of codes per (group, year), whose
    sizes, integers, are averaged per group exactly."""
    codes, offsets = p.codes.tolist(), p.code_offsets.tolist()
    per_period: dict[tuple[int, int], set[str]] = {}
    for g, day, lo, hi in zip(group.tolist(), p.date.tolist(), offsets, offsets[1:]):
        per_period.setdefault((g, day.year), set()).update(codes[lo:hi])
    n_periods, n_distinct = np.zeros(n_groups), np.zeros(n_groups)
    for (g, _), distinct in per_period.items():
        n_periods[g] += 1
        n_distinct[g] += len(distinct)
    return np.divide(n_distinct, n_periods, out=np.zeros(n_groups), where=n_periods > 0)


def breakdown(p: Predictions, group_key: str, recall: np.ndarray,
              if1: np.ndarray) -> list[GroupReport]:
    """Per-group means of the documents' (m,) Recall@k and instance-F1
    vectors, so that several breakdowns share one computation of each."""
    names, group = np.unique(_group_values(p, group_key), return_inverse=True)
    distinct = _distinct_labels_per_period(p, group, len(names)).tolist()
    out = []
    for g, name in enumerate(names.tolist()):
        members = group == g
        out.append(GroupReport(
            group=name,
            size=int(members.sum()),
            recall_at_5=float(np.mean(recall[members])),
            instance_f1=float(np.mean(if1[members])),
            distinct_labels_per_period=distinct[g],
        ))
    out.sort(key=lambda g: (-g.size, g.group))
    return out


def breakdown_csv(reports: list[GroupReport], k: int = 5) -> str:
    lines = [f"group,size,recall_at_{k},instance_f1,distinct_labels_per_period"]
    for g in reports:
        lines.append(f"{g.group},{g.size},{100 * g.recall_at_5:.2f},"
                     f"{100 * g.instance_f1:.2f},{g.distinct_labels_per_period:.2f}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# correlation and histograms
# --------------------------------------------------------------------------


def spearman(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.size < 2:
        raise UndefinedMetricError("spearman needs two equal-length samples of size ≥ 2")
    rx, ry = _rankdata(xs), _rankdata(ys)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError("spearman undefined for zero rank variance")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def score_histogram(values: np.ndarray):
    """Counts of a per-document score vector in ten equal-width bins over
    [0,1], plus the exactly-1 fraction.

    Bins are half-open [i/10, (i+1)/10) except the last, which is closed.
    """
    values = np.asarray(values, dtype=np.float64)
    counts = np.bincount(np.minimum((values * 10).astype(np.int64), 9), minlength=10)
    frac = int(np.count_nonzero(values == 1.0)) / values.size if values.size else 0.0
    return counts, frac


# --------------------------------------------------------------------------
# level-3 consistency
# --------------------------------------------------------------------------


def _remainder(code: str) -> str:
    if not CODE_RE.match(code):
        raise ValidationError(f"malformed code {code!r}")
    return code[3:].replace(".", "")


def codes_inconsistent(a: str, b: str) -> bool:
    """Same chapter, different tail (dots ignored): a level-3 conflict."""
    ra, rb = _remainder(a), _remainder(b)
    return chapter(a) == chapter(b) and ra != rb


@dataclass(frozen=True)
class ConsistencyReport:
    matched_pairs: int
    inconsistent_pairs: int

    @property
    def rate(self) -> float:
        return self.inconsistent_pairs / self.matched_pairs if self.matched_pairs else 0.0


def consistency_check(p: Predictions, window_days: int = 7) -> ConsistencyReport:
    """Chapter-matched code pairs across same-patient visits ≤ window apart:
    each patient's documents in date order (ties in document order), each
    paired with the later ones until the gap passes the window."""
    days = p.date.astype(np.int64).tolist()
    codes, offsets = p.codes.tolist(), p.code_offsets.tolist()
    by_patient: dict[str, list[int]] = {}
    for i, pid in enumerate(p.patient_id.tolist()):
        by_patient.setdefault(pid, []).append(i)
    matched = bad = 0
    for seq in by_patient.values():
        seq.sort(key=days.__getitem__)
        for k, first in enumerate(seq):
            for second in seq[k + 1:]:
                if days[second] - days[first] > window_days:
                    break
                for a in codes[offsets[first]:offsets[first + 1]]:
                    for b in codes[offsets[second]:offsets[second + 1]]:
                        if chapter(a) == chapter(b):
                            matched += 1
                            bad += codes_inconsistent(a, b)
    return ConsistencyReport(matched, bad)


# --------------------------------------------------------------------------
# the headline report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    auc_macro: float | None
    auc_micro: float | None
    f1_macro: float
    f1_micro: float
    f1_instance: float
    recall_at_k: float
    k: int = 5
    n_records: int = 0

    def as_csv(self) -> str:
        def fmt(v):
            return "" if v is None else f"{100 * v:.2f}"

        header = f"auc_macro,auc_micro,f1_macro,f1_micro,f1_instance,recall_at_{self.k}"
        row = ",".join([fmt(self.auc_macro), fmt(self.auc_micro), fmt(self.f1_macro),
                        fmt(self.f1_micro), fmt(self.f1_instance), fmt(self.recall_at_k)])
        return header + "\n" + row + "\n"

    def as_text(self) -> str:
        def fmt(v):
            return "  n/a" if v is None else f"{100 * v:5.2f}"

        return (
            f"records        {self.n_records}\n"
            f"AUC   macro    {fmt(self.auc_macro)}\n"
            f"AUC   micro    {fmt(self.auc_micro)}\n"
            f"F1    macro    {fmt(self.f1_macro)}\n"
            f"F1    micro    {fmt(self.f1_micro)}\n"
            f"F1    instance {fmt(self.f1_instance)}\n"
            f"Recall@{self.k}       {fmt(self.recall_at_k)}\n"
        )


def defined(metric, *args):
    """`metric(*args)`, or None where the data leave it undefined."""
    try:
        return metric(*args)
    except UndefinedMetricError:
        return None


def compute_report(records: Predictions, decision_threshold: float = 0.5,
                   k: int = 5) -> MetricsReport:
    return MetricsReport(
        auc_macro=defined(auc_macro, records),
        auc_micro=defined(auc_micro, records),
        f1_macro=macro_f1(records, decision_threshold),
        f1_micro=micro_f1(records, decision_threshold),
        f1_instance=mean_instance_f1(records, decision_threshold),
        recall_at_k=mean_recall_at_k(records, k),
        k=k,
        n_records=len(records),
    )
