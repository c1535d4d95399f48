"""Resource limits and run options for the classification engine."""

from __future__ import annotations

import os
from typing import NamedTuple


class EngineConfig(NamedTuple):
    """Caps for the optional exhaustive searches.

    max_class_size bounds the conjugacy-class size for which full subrack
    enumeration may run; max_subracks bounds how many maximal subracks the
    enumeration may emit; symmetry_reduction dedupes subracks under the
    centralizer action; jobs is the worker count for table runs.
    """

    max_class_size: int = 20000
    max_subracks: int = 4000
    symmetry_reduction: bool = True
    jobs: int = 1


def positive_cap(name: str, value) -> int:
    """value as an integer of at least 1, or ValueError naming the cap."""
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("%s must be a positive integer, got %r" % (name, value))
    return cap


def from_env(base: EngineConfig = EngineConfig()) -> EngineConfig:
    """Apply NICHOLS_MAX_CLASS_SIZE / NICHOLS_MAX_SUBRACKS overrides; a value
    that is not a positive integer raises ValueError."""
    out = base
    size = os.environ.get("NICHOLS_MAX_CLASS_SIZE")
    if size is not None:
        out = out._replace(
            max_class_size=positive_cap("NICHOLS_MAX_CLASS_SIZE", size))
    count = os.environ.get("NICHOLS_MAX_SUBRACKS")
    if count is not None:
        out = out._replace(
            max_subracks=positive_cap("NICHOLS_MAX_SUBRACKS", count))
    return out
