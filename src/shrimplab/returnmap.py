"""Configuration of the double-round first-return map.

With k local steps before the first excursion and m before the second, the
return map for a starting point near the first landing region is

    k >= m:  T2 o T0^m o T1 o T0^k   (start near the T2-side landing point)
    k <  m:  T1 o T0^k o T2 o T0^m   (start near the T1-side landing point)

The two orderings are mirror images under swapping (k, T1) with (m, T2).
The composition itself is rescale._stages, in cross coordinates and for the
oriented (k >= m) configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldError
from .global_map import GlobalMapTaylor
from .local import LocalNormalForm

@dataclass(frozen=True)
class ReturnMapConfig:
    """Local form, the two excursion maps, and the pass counts (k, m)."""

    local: LocalNormalForm
    t1: GlobalMapTaylor
    t2: GlobalMapTaylor
    k: int
    m: int

    def __post_init__(self):
        for name in ("k", "m"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"{name} must be >= 1")
        want = self.local.x_dim
        for name, g in (("t1", self.t1), ("t2", self.t2)):
            if g.x_dim != want:
                raise ValueError(
                    f"{name} has x-dimension {g.x_dim}, local form needs {want}"
                )

    def swapped(self) -> "ReturnMapConfig":
        """Mirror configuration: exchange the roles of the two excursions."""
        return ReturnMapConfig(self.local, self.t2, self.t1, self.m, self.k)

