"""Output checks computed apart from the mmcluster package.

Each function takes plain arrays and returns ``None`` when the output
passes, or a one-line reason when it does not.  Nothing here imports
mmcluster, so a fault in the package cannot hide itself by also
corrupting the check.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree


def misclustering(pred, truth) -> float:
    """Share of points misassigned under the best one-to-one matching of
    predicted ids to true ids.  Predicted groups left unmatched count all
    their members as errors, so over-segmentation is penalized."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth differ in length")
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return 1.0 - table[rows, cols].sum() / truth.size


def check_groups(labels, exact: int | None = None, at_least: int | None = None):
    """Labels are 1..K with every id used; K matches the required count."""
    labels = np.asarray(labels)
    present = np.unique(labels)
    k = present.size
    if present[0] != 1 or present[-1] != k:
        return f"labels are not 1..K with every id used: {present[:5]}..."
    if exact is not None and k != exact:
        return f"found {k} groups, expected exactly {exact}"
    if at_least is not None and k < at_least:
        return f"found {k} groups, expected at least {at_least}"
    return None


def check_band_purity(coords, labels, truth, band: float):
    """Theorem-1 property: outside the ball of radius ``band`` around the
    crossing (the origin), no group mixes points of two true clusters."""
    far = np.sqrt((np.asarray(coords) ** 2).sum(axis=1)) > band
    lab = np.asarray(labels)[far]
    tru = np.asarray(truth)[far]
    mixed = [g for g in np.unique(lab) if np.unique(tru[lab == g]).size > 1]
    if mixed:
        return f"groups {mixed[:5]} mix true clusters outside the {band:g} band"
    return None


def check_nearest_center(coords, labels, center_idx, rtol: float = 1e-9):
    """Each point carries the label of its nearest center.  When the two
    nearest centers are equidistant to within ``rtol`` (distances rounded
    differently here and in the package) either label is accepted."""
    coords = np.asarray(coords)
    labels = np.asarray(labels)
    center_idx = np.asarray(center_idx)
    if center_idx.size == 1:
        bad = labels != labels[center_idx[0]]
    else:
        dist, near = cKDTree(coords[center_idx]).query(coords, k=2)
        first = labels[center_idx[near[:, 0]]]
        second = labels[center_idx[near[:, 1]]]
        tie = dist[:, 1] - dist[:, 0] <= rtol * dist[:, 1]
        bad = (labels != first) & ~(tie & (labels == second))
    if bad.any():
        return f"{int(bad.sum())} points differ from their nearest center's label"
    return None


def epsilon_rule(center_coords) -> float:
    """The largest nearest-neighbour distance among the centers."""
    dist, _ = cKDTree(center_coords).query(center_coords, k=2)
    return float(dist[:, 1].max())


def check_epsilon(eps_used: float, center_coords, rtol: float = 1e-12):
    want = epsilon_rule(center_coords)
    if not abs(eps_used - want) <= rtol * want:
        return f"eps {eps_used!r} differs from the recomputed rule {want!r}"
    return None


def check_rate(name: str, rate: float, bound: float):
    if not rate <= bound:
        return f"{name} misclustering {rate:.4f} exceeds {bound}"
    return None
