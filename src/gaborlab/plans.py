"""Block plans of the frame construction, in plain Python floats and ints.

A plan pairs an exponent p > 2 with K block sizes N_1..N_K that satisfy the
strict admissibility condition

    sum_k N_k^(1 - p/2) < (2 K_p)^(-p/2),      K_p = p - 1,  p > 2,

which makes the certified contraction constant

    q = K_p * (sum_k N_k^(1 - p/2))^(2/p)

less than 1/2.  plan_blocks searches the least geometric plan and
plan_from_sizes checks a given one.  Nothing here imports numpy: a command
parses --p with Exponent and searches or checks its plan first, so a refused
plan exits before any array code is loaded.  grids and the package re-export
Exponent.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .errors import InfeasiblePlan

MAX_LEAD_SIZE = 10**6


class _Frozen:
    """A value set once in __init__, compared and hashed by the fields that
    _compared names and shown by all of them, as a frozen dataclass is (the
    dataclasses module imports inspect, which plans leaves unloaded)."""

    _compared: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Exponent(_Frozen):
    """An L^p exponent p > 1 together with its conjugate p' = p/(p-1)."""

    _compared = ("p",)

    def __init__(self, p: float):
        vars(self)["p"] = p
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"exponent must be finite with p > 1, got {self.p}")

    @property
    def conjugate(self) -> float:
        return self.p / (self.p - 1.0)


def unconditionality_bound(p: Exponent) -> float:
    """The Haar sign-flip constant K_p = max(p-1, 1/(p-1)); block plans read it.

    For p > 2 the maximum is p - 1 exactly, the K_p of the certified
    contraction constant q.
    """
    return max(p.p - 1.0, 1.0 / (p.p - 1.0))


class BlockPlan(_Frozen):
    """Admissible block sizes N_1..N_K for an exponent p > 2.

    The strict admissibility condition is enforced by default; degenerate
    demonstration plans (a single size-one block has no error pairs at all,
    yet no size list summing to at least 1 can satisfy the condition) may
    be built with require_condition=False, forfeiting the q < 1 guarantee.
    Plans compare by p and sizes.
    """

    _compared = ("p", "sizes")

    def __init__(self, p: Exponent, sizes: Tuple[int, ...], require_condition: bool = True):
        vars(self).update(p=p, sizes=sizes, require_condition=require_condition)
        if self.p.p <= 2.0:
            raise InfeasiblePlan("block plans require p > 2")
        if not self.sizes or any(n <= 0 for n in self.sizes):
            raise ValueError("sizes must be positive integers")
        if self.require_condition and not self.condition_holds(self.p, self.sizes):
            raise InfeasiblePlan(
                f"sizes {self.sizes} violate the strict block condition at p={self.p.p}"
            )

    @staticmethod
    def condition_holds(p: Exponent, sizes: Sequence[int]) -> bool:
        bound = (2.0 * unconditionality_bound(p)) ** (-p.p / 2.0)
        return _block_sum(p, sizes) < bound

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def block_sum(self) -> float:
        return _block_sum(self.p, self.sizes)

    @property
    def contraction(self) -> float:
        """The certified contraction constant q = K_p * (sum N_k^(1-p/2))^(2/p)."""
        return unconditionality_bound(self.p) * self.block_sum ** (2.0 / self.p.p)

    def block_of_index(self) -> List[int]:
        """Block number of each point index 0..total-1 (consecutive runs)."""
        return [k for k, n in enumerate(self.sizes) for _ in range(n)]

    def to_json(self) -> dict:
        return {"p": self.p.p, "sizes": list(self.sizes)}


def _block_sum(p: Exponent, sizes: Sequence[int]) -> float:
    return sum(n ** (1.0 - p.p / 2.0) for n in sizes)


def plan_blocks(p: Exponent, num_blocks: int, growth: float = 2.0) -> BlockPlan:
    """Smallest geometric plan: N_k = ceil(N_1 * growth^(k-1)), N_1 minimal.

    The strict block condition is monotone in N_1: every ceil(N_1 growth^k)
    is nondecreasing in N_1, and n^(1 - p/2) decreases in n for p > 2.  So
    the least N_1 is found by bisection over [1, 10^6], after checking that
    N_1 = 10^6 satisfies the condition at all.  Raises InfeasiblePlan if it
    does not, or if p <= 2 (the condition's exponent 1 - p/2 is then
    nonnegative and the sum cannot be made small).
    """
    if p.p <= 2.0:
        raise InfeasiblePlan("no admissible plan exists for p <= 2")
    if num_blocks <= 0:
        raise ValueError("need at least one block")
    if growth < 2.0:
        raise ValueError("growth must be at least 2")

    def sizes(lead: int) -> Tuple[int, ...]:
        return tuple(math.ceil(lead * growth**k) for k in range(num_blocks))

    if not BlockPlan.condition_holds(p, sizes(MAX_LEAD_SIZE)):
        raise InfeasiblePlan(f"no leading size up to {MAX_LEAD_SIZE} satisfies the condition")
    lo, hi = 1, MAX_LEAD_SIZE  # the condition holds at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if BlockPlan.condition_holds(p, sizes(mid)):
            hi = mid
        else:
            lo = mid + 1
    return BlockPlan(p, sizes(lo))


def plan_from_sizes(p: Exponent, sizes: Sequence[int]) -> BlockPlan:
    """Plan with explicitly given block sizes (validated).  Each size must be
    an int: a float is refused, not truncated, and so is a bool."""
    if not all(type(n) is int for n in sizes):
        raise ValueError(f"block sizes {sizes} are not all integers")
    return BlockPlan(p, tuple(sizes))
