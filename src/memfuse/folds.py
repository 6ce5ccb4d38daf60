"""Group-aware folds: the one fold primitive of the nested CV.

Folds partition *groups* (participants), never rows, so one person's
responses always travel together. Assignment is a seeded shuffle of the
sorted group ids followed by round-robin dealing, which keeps fold sizes
within one group of each other. The outer, inner and stacking folds all come
from `group_splits`.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ._checks import is_count

__all__ = ["assign_group_folds", "check_fold_count", "group_splits"]


def check_fold_count(k: int) -> None:
    """Raise unless k, a Python or numpy integer and not a bool, is at least 1."""
    if not is_count(k, 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")


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

    Every row is tested in exactly one fold. A group on both sides of a split
    would leak a participant into its own test block, so it raises, also
    under `python -O`.
    """
    assignment = assign_group_folds(groups, k, seed)
    labels = np.array([assignment[g] for g in groups])
    splits = []
    for fold in range(k):
        in_test = labels == fold
        train_rows, test_rows = np.flatnonzero(~in_test), np.flatnonzero(in_test)
        leaked = {groups[r] for r in train_rows} & {groups[r] for r in test_rows}
        if leaked:
            raise RuntimeError(f"fold {fold} leaks groups {sorted(leaked, key=str)}")
        splits.append((train_rows, test_rows))
    return splits
