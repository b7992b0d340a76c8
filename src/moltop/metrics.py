"""Matching distances between persistence diagrams and stability diagnostics.

The p-Wasserstein distance matches diagram points under the sup-norm ground
metric, with the diagonal available at cost (death - birth) / 2 per point.
Essential classes are matched separately by birth; diagrams with different
essential counts are infinitely far apart (flagged, not raised).
"""

from dataclasses import dataclass

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, LayoutMismatchError
from .homology import PersistenceDiagram
from .vectorize import Fingerprint, fingerprint_from_rows, row_diagrams


def wasserstein(pd_a: PersistenceDiagram, pd_b: PersistenceDiagram,
                p: float = 1.0) -> float:
    """Exact p-Wasserstein matching distance via optimal assignment."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if len(pd_a.essentials) != len(pd_b.essentials):
        return math.inf

    total = 0.0
    for ba, bb in zip(sorted(pd_a.essentials), sorted(pd_b.essentials)):
        total += float(abs(ba - bb)) ** p

    a = np.asarray(pd_a.pairs, dtype=float).reshape(-1, 2)
    b = np.asarray(pd_b.pairs, dtype=float).reshape(-1, 2)
    na, nb = len(a), len(b)
    if na or nb:
        size = na + nb
        cost = np.zeros((size, size))
        if na and nb:
            gap = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                             np.abs(a[:, None, 1] - b[None, :, 1]))
            cost[:na, :nb] = gap ** p
        diag_a = ((a[:, 1] - a[:, 0]) / 2.0) ** p if na else np.zeros(0)
        diag_b = ((b[:, 1] - b[:, 0]) / 2.0) ** p if nb else np.zeros(0)
        # Any point may retire to the diagonal; unused diagonal slots pair
        # with each other for free.
        cost[:na, nb:] = diag_a[:, None]
        cost[na:, :nb] = diag_b[None, :]
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum())
    return total ** (1.0 / p)


def induced_distance(rows_a, rows_b, p: float = 1.0) -> float:
    """Sum of per-row Wasserstein distances between two diagram sequences."""
    rows_a, rows_b = list(rows_a), list(rows_b)
    if len(rows_a) != len(rows_b):
        raise DataError(f"row-count mismatch: {len(rows_a)} vs {len(rows_b)}")
    total = 0.0
    for pa, pb in zip(rows_a, rows_b):
        w = wasserstein(pa, pb, p)
        if math.isinf(w):
            return math.inf
        total += w
    return total


def fingerprint_distance(fp_a: Fingerprint, fp_b: Fingerprint) -> float:
    """Sum over rows of the L1 distance between Betti-curve row vectors.

    Identical in value to the L1 distance between the flat vectors, since
    the layout is a disjoint concatenation of rows.
    """
    if fp_a.layout != fp_b.layout:
        raise LayoutMismatchError(
            f"layouts differ: {fp_a.layout.to_dict()} vs {fp_b.layout.to_dict()}")
    return float(np.abs(fp_a.vector - fp_b.vector).sum())


@dataclass(frozen=True)
class MatchingDistanceReport:
    p: float
    per_row: tuple[float, ...]       # W_p per sublevel row (both dimensions summed)
    induced: float                   # sum of per-row distances
    vector_distance: float           # L1 between the flat Betti fingerprints
    ratio: float | None              # vector_distance / induced when induced > 0

    def to_dict(self) -> dict:
        return {"p": self.p, "per_row": list(self.per_row), "induced": self.induced,
                "vector_distance": self.vector_distance, "ratio": self.ratio}


def matching_report(graph_a, graph_b, specs, k_grid: int, p: float = 1.0,
                    distance_mode: str = "full_graph") -> MatchingDistanceReport:
    """Per-row diagram distances and the induced fingerprint distance for a pair."""
    specs = list(specs)
    rows_a = row_diagrams(graph_a, specs, k_grid, distance_mode)
    rows_b = row_diagrams(graph_b, specs, k_grid, distance_mode)
    if len(rows_a) != len(rows_b):
        raise DataError("graphs produced different row counts")
    per_row = []
    for (_, _, a0, a1), (_, _, b0, b1) in zip(rows_a, rows_b):
        w0 = wasserstein(a0, b0, p)
        w1 = wasserstein(a1, b1, p)
        per_row.append(math.inf if math.isinf(w0) or math.isinf(w1) else w0 + w1)
    induced = math.inf if any(math.isinf(w) for w in per_row) else sum(per_row)
    fp_a = fingerprint_from_rows(rows_a, specs, k_grid, graph_a.name)
    fp_b = fingerprint_from_rows(rows_b, specs, k_grid, graph_b.name)
    vector_distance = fingerprint_distance(fp_a, fp_b)
    ratio = None
    if induced > 0 and not math.isinf(induced):
        ratio = vector_distance / induced
    return MatchingDistanceReport(p, tuple(per_row), induced, vector_distance, ratio)


def stability_probe(graph_pairs, specs, k_grid: int, p: float = 1.0,
                    distance_mode: str = "full_graph"):
    """Reports for each pair plus the max observed vector/diagram ratio.

    The max ratio is an empirical surrogate for the stability constant; it
    is reported, never asserted against.
    """
    reports = [matching_report(a, b, specs, k_grid, p, distance_mode)
               for a, b in graph_pairs]
    ratios = [r.ratio for r in reports if r.ratio is not None]
    return reports, (max(ratios) if ratios else None)
