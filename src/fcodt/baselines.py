"""Comparison learners: the oblique tree's growth loop with other split
searches (``tree._split_nodes``). ``ridge_odt`` keeps the ridge
projections but neither concatenates nor fits residuals; ``cart`` runs
the axis-parallel search."""

from __future__ import annotations

from enum import Enum

from .datasets import Dataset
from .tree import ObliqueTreeModel, SplitCriteria, _grow, _grow_one, fit_fc_odt, fit_fc_odt_many


class BaselineKind(Enum):
    RIDGE_ODT = "ridge_odt"
    CART = "cart"


def fit_ridge_odt(data: Dataset, lam: float,
                  criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """Oblique tree without feature concatenation or residual fitting:
    ridge projections choose split directions, leaves store plain means."""
    return fit_fc_odt(data, lam, criteria, concatenate=False, residual_path=False)


def fit_ridge_odt_many(jobs, criteria: SplitCriteria | None = None) -> list:
    """``fit_ridge_odt`` for each (data, lam) in the iterable ``jobs``,
    grown together (see ``fit_fc_odt_many``); each entry is the model or
    the exception its fit raised."""
    return fit_fc_odt_many(jobs, criteria, concatenate=False, residual_path=False)


def fit_cart(data: Dataset, criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    """Axis-parallel regression tree: each node scans every feature column
    for the best threshold by the decrease around the child means. Ties
    break toward the lowest feature index, then the smallest threshold.
    Stored projections are standard basis vectors with zero bias, so the
    model predicts like any oblique tree; it records lambda 0."""
    return _grow_one(data, 0.0, criteria, False, "axis")


def fit_cart_many(jobs, criteria: SplitCriteria | None = None) -> list:
    """``fit_cart`` for each (data, lam) in the iterable ``jobs`` (lam is
    not used), grown together; each entry is the model or the exception
    its fit raised."""
    return _grow(((data, 0.0) for data, _ in jobs), criteria, False, "axis")


def fit_baseline(kind: BaselineKind, data: Dataset, lam: float,
                 criteria: SplitCriteria | None = None) -> ObliqueTreeModel:
    if kind is BaselineKind.RIDGE_ODT:
        return fit_ridge_odt(data, lam, criteria)
    if kind is BaselineKind.CART:
        return fit_cart(data, criteria)
    raise ValueError(f"unknown baseline kind {kind!r}")
