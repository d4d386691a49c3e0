"""Evaluation metrics: MSFI, estimated modality importance, Kendall tau-b,
IoU against localization masks, and Friedman/Nemenyi method comparisons.

All operations are pure functions of their numeric inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("msfi", "mi_corr", "iou")


@dataclass(frozen=True)
class MetricRecord:
    """One scored (sample, method, metric) cell."""

    sample_id: str
    method: str
    metric: str
    value: float

    def __post_init__(self):
        if self.metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {self.metric!r}")
        v = float(self.value)
        if not np.isfinite(v):
            raise ValueError(f"non-finite value for {self.metric}")
        if self.metric in ("msfi", "iou") and not 0.0 <= v <= 1.0:
            raise ValueError(f"{self.metric} must lie in [0,1], got {v}")
        if self.metric == "mi_corr" and not -1.0 <= v <= 1.0:
            raise ValueError(f"mi_corr must lie in [-1,1], got {v}")
        object.__setattr__(self, "value", v)


def estimated_mi(smap):
    """Per-modality sum of positive saliency values."""
    data = smap.data
    flat = data.reshape(data.shape[0], -1)
    return np.maximum(flat, 0.0).sum(axis=1)


def kendall_tau_b(a, b):
    """Kendall's tau-b over all pairs; 0 when either ranking is fully tied.

    Pairs tied in both vectors count in neither tie term; a zero denominator
    (for example an all-tied vector) returns 0 by documented convention.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"vectors must share one length, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("tau-b needs finite values")
    i, j = np.triu_indices(n, k=1)
    da = np.sign(a[i] - a[j])
    db = np.sign(b[i] - b[j])
    prod = da * db
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    ties_a_only = int(np.count_nonzero((da == 0) & (db != 0)))
    ties_b_only = int(np.count_nonzero((db == 0) & (da != 0)))
    denom = np.sqrt(
        float(concordant + discordant + ties_a_only)
        * float(concordant + discordant + ties_b_only)
    )
    if denom == 0.0:
        return 0.0
    return float((concordant - discordant) / denom)


def msfi(smap, masks, phi):
    """Modality-weighted fraction of positive saliency mass inside the masks.

    For each modality, ratio = positive mass inside the mask over total
    positive mass (0 when the modality has no positive mass); the result is
    the phi-weighted mean of the ratios, 0 when phi sums to 0. phi may be the
    normalized importance or any positive rescaling of it; the result is the
    same either way up to rounding, within 1e-15 relative.
    """
    if smap.data.shape != masks.data.shape:
        raise ValueError(
            f"saliency shape {smap.data.shape} does not match mask shape "
            f"{masks.data.shape}"
        )
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (smap.data.shape[0],):
        raise ValueError("phi must have one weight per modality")
    if not np.isfinite(phi).all() or (phi < 0).any():
        raise ValueError("phi must be finite and nonnegative")
    # one float64 copy of the map: its positive part, then only what lies inside
    positive = smap.data.astype(np.float64)
    np.maximum(positive, 0.0, out=positive)
    m = smap.data.shape[0]
    flat_pos = positive.reshape(m, -1)
    flat_mask = masks.data.reshape(m, -1)
    totals = flat_pos.sum(axis=1)
    flat_pos[~flat_mask] = 0.0
    inside = flat_pos.sum(axis=1)
    ratios = np.divide(inside, totals, out=np.zeros(m), where=totals > 0)
    phi_sum = phi.sum()
    if phi_sum <= 0:
        return 0.0
    return float(np.dot(phi, ratios) / phi_sum)


def iou(smap, masks, threshold=0.5):
    """Jaccard index of the thresholded map against the masks, all modalities jointly.

    Requires a postprocessed map (values in [0,1]); both-empty yields 1.0.
    """
    if not smap.postprocessed:
        raise ValueError("iou requires a postprocessed saliency map")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0,1)")
    if smap.data.shape != masks.data.shape:
        raise ValueError("saliency and mask shapes differ")
    predicted = smap.data >= threshold
    actual = masks.data
    union = int(np.count_nonzero(predicted | actual))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(predicted & actual)) / union


def _mean_ranks(scores):
    """(N, mean rank per method); methods are ranked within each sample, ties averaged."""
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("scores must be 2-D (samples x methods)")
    if not np.isfinite(values).all():
        raise ValueError("score matrix must be complete")
    n, k = values.shape
    if n < 2 or k < 2:
        raise ValueError(f"need at least 2 samples and 2 methods, got {values.shape}")
    # rank = 1 + (values below) + (other values equal) / 2, which is exact in
    # float64 and equals the average rank of a tie group
    below = (values[:, None, :] < values[:, :, None]).sum(axis=2)
    equal = (values[:, None, :] == values[:, :, None]).sum(axis=2)
    return n, (below + (equal + 1) / 2).mean(axis=0)


_LOG_MAX = math.log(sys.float_info.max)


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution for integer df.

    With h = x/2 and a = df/2 this is the regularized gamma Q(a, h): the sum
    of h^j e^(-h) / Gamma(j+1) over j = 0, 1, ..., a-1 for even df, and
    erfc(sqrt(h)) plus the same sum over j = 1/2, 3/2, ..., a-1 for odd df.
    Each term is exp of its logarithm, so e^(-h) does not underflow before
    the sum does. In the upper tail (h > a), where h^a e^(-h) / Gamma(a) is
    below 1 / (largest float), the tail is 0.0, as `scipy.special.chdtrc`
    gives it; in the lower tail the same factor only means Q is 1.0, which
    the sum gives.
    """
    if not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df}")
    if df < 1:
        raise ValueError("df must be positive")
    if x <= 0:
        return 1.0
    a, h = df / 2.0, x / 2.0
    log_h = math.log(h)
    if h > a and a * log_h - h - math.lgamma(a) < -_LOG_MAX:
        return 0.0
    terms = [math.erfc(math.sqrt(h))] if df % 2 else []
    j = (df % 2) / 2.0
    while j < a:
        terms.append(math.exp(j * log_h - h - math.lgamma(j + 1.0)))
        j += 1.0
    return math.fsum(terms)


def friedman(scores):
    """Friedman chi-square over a complete samples-by-methods matrix.

    Methods are ranked within each sample (ties get average ranks); the
    statistic is 12N/(k(k+1)) * sum(Rbar_j^2) - 3N(k+1) with k-1 degrees of
    freedom and a chi-square upper-tail p-value.
    """
    n, mean_ranks = _mean_ranks(scores)
    k = len(mean_ranks)
    chi2 = 12.0 * n / (k * (k + 1)) * float(np.sum(mean_ranks**2)) - 3.0 * n * (k + 1)
    df = k - 1
    return chi2, df, chi2_sf(chi2, df)


# Two-tailed studentized range q_0.05 at infinite df divided by sqrt(2),
# indexed by the number of compared methods k = 2..20.
_NEMENYI_Q05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
    9: 3.102, 10: 3.164, 11: 3.219, 12: 3.268, 13: 3.313, 14: 3.354,
    15: 3.391, 16: 3.426, 17: 3.458, 18: 3.489, 19: 3.517, 20: 3.544,
}


@dataclass(frozen=True, eq=False)
class NemenyiResult:
    critical_difference: float
    mean_ranks: np.ndarray
    significant: np.ndarray  # boolean (k, k); diagonal False


def nemenyi(scores):
    """Post-hoc Nemenyi test at alpha=0.05: pairs differ when their mean-rank gap reaches CD.

    CD = q_0.05(k) * sqrt(k(k+1)/(6N)); the boundary is closed (>= CD is
    significant). q_0.05 is tabulated for k in [2, 20].
    """
    n, mean_ranks = _mean_ranks(scores)
    k = len(mean_ranks)
    if k not in _NEMENYI_Q05:
        raise ValueError(f"k={k} outside tabulated range [2, 20]")
    cd = _NEMENYI_Q05[k] * np.sqrt(k * (k + 1) / (6.0 * n))
    gaps = np.abs(mean_ranks[:, None] - mean_ranks[None, :])
    significant = gaps >= cd
    np.fill_diagonal(significant, False)
    return NemenyiResult(float(cd), mean_ranks, significant)
