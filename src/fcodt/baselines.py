"""The comparison learners as public functions. Each is one call of
``tree.fit_method``: the growth loop with the settings ``tree.METHODS``
names. ``ridge_odt`` keeps the ridge projections but neither
concatenates nor fits residuals; ``cart`` runs the axis-parallel search."""

from __future__ import annotations

from enum import Enum

from .datasets import Dataset
from .tree import ObliqueTreeModel, SplitCriteria, fit_method


class BaselineKind(Enum):
    RIDGE_ODT = "ridge_odt"
    CART = "cart"


def fit_ridge_odt(data: Dataset, lam: float,
                  criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """Oblique tree without feature concatenation or residual fitting:
    ridge projections choose split directions, leaves store plain means."""
    return fit_method("ridge_odt", data, lam, criteria)


def fit_cart(data: Dataset, criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """Axis-parallel regression tree: each node scans every feature column
    for the best threshold by the decrease around the child means. Ties
    break toward the lowest feature index, then the smallest threshold.
    Stored projections are standard basis vectors with zero bias, so the
    model predicts like any oblique tree; it records lambda 0."""
    return fit_method("cart", data, 0.0, criteria)


def fit_baseline(kind: BaselineKind, data: Dataset, lam: float,
                 criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """The ``kind`` baseline (lam is not used by ``cart``)."""
    if not isinstance(kind, BaselineKind):
        raise ValueError(f"unknown baseline kind {kind!r}")
    return fit_method(kind.value, data, lam, criteria)
