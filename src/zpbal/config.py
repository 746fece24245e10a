"""Shared budget/seed configuration for enumeration sweeps, and the status a
sweep ends in."""

from __future__ import annotations

EXACT = "EXACT"  # at most `enumeration_cap` elements: the sweep reaches the whole span
LOWER_BOUND = "LOWER_BOUND"  # beyond the cap: the span found may be a proper subspace


class SweepConfig:
    """Budget knobs for exhaustive and sampled sweeps; immutable.

    enumeration_cap: largest carrier size an exhaustive sweep may visit.
    stall_rounds: consecutive non-enlarging random samples before giving up.
    seed: root of all pseudo-randomness; recorded in emitted artifacts.
    """

    __slots__ = ("enumeration_cap", "stall_rounds", "seed")

    def __init__(self, enumeration_cap: int = 6561, stall_rounds: int = 64, seed: int = 0):
        if enumeration_cap < 1 or stall_rounds < 1:
            raise ValueError("caps must be positive")
        object.__setattr__(self, "enumeration_cap", enumeration_cap)
        object.__setattr__(self, "stall_rounds", stall_rounds)
        object.__setattr__(self, "seed", seed)

    def __setattr__(self, name, value):
        raise AttributeError(f"SweepConfig is immutable: cannot set {name!r}")


DEFAULT_CONFIG = SweepConfig()
