"""Planners for the modulus intervals that realize prescribed linear gains.

The linear coefficient of the rescaled return map is C * lam^m * gamma^k.
To make it sweep an interval [-s, s] (or [1/s, s]) while (k, m) grow, one
tunes either the saddle modulus theta = -ln(lam)/ln|gamma| or, for a
saddle-focus, the rotation angle phi.  Each planner returns, per target
amplitude s_j, the pass counts (k_j, m_j), the tuned-parameter interval I_j,
and (saddle-focus) the winding integer n_j.  Interval widths shrink to zero,
so the tuned parameter stays pinned at its nominal value in the limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FieldError, NumericalError


@dataclass(frozen=True)
class PlanEntry:
    j: int
    k: int
    m: int
    s: float
    lo: float
    hi: float
    ends: tuple  # the two solved endpoints, before widening to the nominal value
    n: int | None = None

    @property
    def diam(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SequencePlan:
    kind: str
    nominal: float
    entries: tuple = field(default_factory=tuple)
    skipped: tuple = field(default_factory=tuple)

    def diams(self):
        return [e.diam for e in self.entries]


def _require_expanding(gamma: float):
    if not (math.isfinite(gamma) and abs(gamma) > 1.0):
        raise FieldError("gamma", "gamma must be finite with |gamma| > 1")


def plan_modulus_sequence(
    theta0: float,
    gamma: float,
    s_values,
    m_values=None,
) -> SequencePlan:
    """Saddle planner: intervals of theta over which lam^m*|gamma|^k sweeps
    [1/s_j, s_j].

    Entry j takes k = round(theta0 * m); its theta endpoints are
    k/m -+ ln(s)/(m ln|gamma|), and the interval I_j is extended to contain
    theta0.  Entries with no admissible k >= m are skipped with a diagnostic.
    """
    if not (math.isfinite(theta0) and theta0 > 1.0):
        raise FieldError("theta0", "theta0 must be finite and exceed 1")
    _require_expanding(gamma)
    lg = math.log(abs(gamma))
    entries, skipped = [], []
    for j, s in enumerate(s_values, start=1):
        if s <= 1.0:
            skipped.append((j, f"s={s} not > 1"))
            continue
        m = int(m_values[j - 1]) if m_values is not None else j * j
        if not math.isfinite(theta0 * m):
            raise FieldError("theta0", f"theta0 * m = {theta0} * {m} overflows a double")
        k = round(theta0 * m)
        if k < m:
            skipped.append((j, f"no k >= m={m} at ratio {theta0}"))
            continue
        half = math.log(s) / (m * lg)
        t1 = k / m - half
        t2 = k / m + half
        lo = min(t1, theta0)
        hi = max(t2, theta0)
        entries.append(PlanEntry(j=j, k=k, m=m, s=float(s), lo=lo, hi=hi, ends=(t1, t2)))
    return SequencePlan(
        kind="saddle", nominal=theta0, entries=tuple(entries), skipped=tuple(skipped)
    )


def modulus_endpoint_gains(entry: PlanEntry, gamma: float):
    """Gains |gamma|^(k - m*theta) at the two sweep endpoints of the entry.

    By construction these are {s, 1/s} as a set.
    """
    g = lambda t: abs(gamma) ** (entry.k - entry.m * t)
    return g(entry.ends[0]), g(entry.ends[1])


def plan_rotation_sequence(
    phi0: float,
    lam: float,
    gamma: float,
    s_values,
    m_values=None,
    amplitude: float = 1.0,
    nu: float = 0.0,
    growth: float = 2.0,
    max_k_boost: int = 200,
) -> SequencePlan:
    """Saddle-focus planner: intervals of phi over which the coefficient
    amplitude*cos(m*phi - nu)*lam^m*gamma^k sweeps [-s_j, s_j].

    For each entry, k_j >= m_j is raised until the arccos argument
    s_j/(amplitude*lam^m*gamma^k) drops below 1/growth; entries where no
    such k exists within the boost budget are skipped.  Raises
    NumericalError when the gain overflows a double before that.
    """
    if not 0.0 < phi0 < math.pi:
        raise FieldError("phi0", "phi0 must lie in (0, pi)")
    _require_expanding(gamma)
    if not 0.0 < lam * abs(gamma) < 1.0:
        raise FieldError(
            "lambda", "lambda * |gamma| must lie in (0, 1) for a dissipative saddle-focus"
        )
    entries, skipped = [], []
    last_k = 0
    for j, s in enumerate(s_values, start=1):
        if s <= 0.0:
            skipped.append((j, f"s={s} not positive"))
            continue
        m = int(m_values[j - 1]) if m_values is not None else 10 * j
        target = 1.0 / (growth * max(j, 1))
        k = None
        arg = None
        for boost in range(max_k_boost):
            cand = max(m, last_k + 1) + boost
            try:
                gain = amplitude * lam**m * gamma**cand
            except OverflowError:
                raise NumericalError(
                    f"gain lam^m*gamma^k overflows a double at m={m}, k={cand} "
                    f"(entry {j})"
                ) from None
            if gain > 0.0 and s / gain <= target:
                k = cand
                arg = s / gain
                break
        if arg is None:
            skipped.append((j, f"s={s} unreachable with m={m}"))
            continue
        last_k = k
        n = round((m * phi0 - nu - 0.5 * math.pi) / (2.0 * math.pi))
        acos = math.acos(arg)
        phi1 = (acos + nu + 2.0 * math.pi * n) / m
        phi2 = (math.pi - acos + nu + 2.0 * math.pi * n) / m
        lo = min(phi1, phi2, phi0)
        hi = max(phi1, phi2, phi0)
        entries.append(
            PlanEntry(j=j, k=k, m=m, s=float(s), lo=lo, hi=hi, ends=(phi1, phi2), n=n)
        )
    return SequencePlan(
        kind="saddle_focus", nominal=phi0, entries=tuple(entries), skipped=tuple(skipped)
    )


def rotation_endpoint_coefficients(
    entry: PlanEntry,
    lam: float,
    gamma: float,
    amplitude: float = 1.0,
    nu: float = 0.0,
):
    """Back-substituted coefficient amplitude*cos(m*phi - nu)*lam^m*gamma^k at
    the two solved phi endpoints, by construction +s and -s, and the arccos
    argument s/(amplitude*lam^m*gamma^k) they were solved from."""
    m, k = entry.m, entry.k
    gain = amplitude * lam**m * gamma**k
    c = lambda phi: amplitude * math.cos(m * phi - nu) * lam**m * gamma**k
    return c(entry.ends[0]), c(entry.ends[1]), entry.s / gain
