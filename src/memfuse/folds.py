"""Group-aware folds: the one fold primitive of the nested CV.

Folds partition *groups* (participants), never rows, so one person's
responses always travel together. Assignment is a seeded shuffle of the
sorted group ids followed by round-robin dealing, which keeps fold sizes
within one group of each other. `group_splits` splits a table's groups for
the outer, inner and stacking folds; `check_disjoint` keeps the sides apart.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ._checks import is_count

__all__ = ["assign_group_folds", "check_disjoint", "check_fold_count", "group_splits"]


def check_fold_count(k: int) -> None:
    """Raise unless k, a Python or numpy integer and not a bool, is at least 1."""
    if not is_count(k, 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")


def check_disjoint(train_groups: Sequence | None, test_groups: Sequence | None, where: str) -> None:
    """Raise, also under `python -O`, if a group is on both sides; a side of None has none."""
    if train_groups is None or test_groups is None:
        return
    leaked = set(train_groups) & set(test_groups)
    if leaked:
        raise RuntimeError(f"{where} share groups {sorted(leaked, key=str)}")


def assign_group_folds(
    group_ids: Sequence[Hashable], k: int, seed: int
) -> dict[Hashable, int]:
    """Deterministically assign each distinct group id to one of k folds."""
    distinct = sorted(set(group_ids), key=str)
    check_fold_count(k)
    if k > len(distinct):
        raise ValueError(f"k={k} exceeds number of groups ({len(distinct)})")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(distinct))
    return {distinct[int(idx)]: pos % k for pos, idx in enumerate(order)}


def group_splits(
    groups: Sequence[Hashable], k: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train_rows, test_rows) of each of k folds over the rows' `groups`.

    Every row is tested in exactly one fold, and a group's rows share a fold.
    Each split's consumer checks its two sides with `check_disjoint`.
    """
    if groups is None:
        raise ValueError("no groups to split: build the table with each sample's group")
    assignment = assign_group_folds(groups, k, seed)
    labels = np.array([assignment[g] for g in groups])
    return [(np.flatnonzero(labels != fold), np.flatnonzero(labels == fold)) for fold in range(k)]
