"""Locations the benchmark reads and writes, all inside the checkout.

The benchmark always measures the `memfuse` source tree beside it, never an
installed copy: `use_checkout_src` puts `src/` first on `sys.path` and fails
when the tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA_DIR = BENCH_DIR / "_data"  # generated inputs, one directory per seed
OUT_DIR = BENCH_DIR / "_out"    # BENCH_<workload>.json results and traces


class MissingSourceError(RuntimeError):
    """The checkout holds no `src/memfuse` to measure."""


def use_checkout_src() -> None:
    if not (SRC / "memfuse" / "__init__.py").is_file():
        raise MissingSourceError(f"no memfuse source tree at {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
