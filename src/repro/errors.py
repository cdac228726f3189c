"""Typed resource-exhaustion errors shared across the whole stack.

Every engine in this reproduction runs under a *cooperative* resource
envelope (see :mod:`repro.limits`): the BDD kernel checks its budgets at node
allocations and GC safe points, the fixed-point evaluators bound their outer
iterations, and the explicit baselines bound their state-space exploration.
When a budget is exhausted they all raise a subclass of
:class:`ResourceExhausted`, which carries the consumed-vs-budget context so
callers (the batch layer, the CLI, a future service frontend) can classify
the failure as *resource* rather than *crash* and render a precise message.

The hierarchy deliberately lives at the package root with no imports, so
every layer — ``bdd``, ``fixedpoint``, ``baselines``, ``parallel``,
``frontends`` — can raise and catch these without dependency cycles.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

__all__ = [
    "ResourceExhausted",
    "AnalysisTimeout",
    "NodeBudgetExceeded",
    "ExplorationBudgetExceeded",
    "RecursionDepthExceeded",
    "NodeSlotsExhausted",
    "VariableLimitExceeded",
]

Number = Union[int, float]


class ResourceExhausted(Exception):
    """A query exceeded its resource envelope (deadline, nodes, iterations).

    Attributes
    ----------
    resource:
        Which budget was exhausted (``"wall-clock"``, ``"bdd-nodes"``,
        ``"iterations"``, ``"path-edges"``, ...).
    consumed:
        How much of the resource was consumed when the limit tripped.
    budget:
        The configured budget.

    The manager/session is left in a *releasable* state when this is raised:
    no cache or node-table invariant is broken, retained interpretations are
    untouched, and ``close()`` still returns the manager to its baseline.
    """

    #: Default resource tag; subclasses override it.
    resource: str = "resource"

    def __init__(
        self,
        message: str,
        *,
        resource: Optional[str] = None,
        consumed: Optional[Number] = None,
        budget: Optional[Number] = None,
    ) -> None:
        super().__init__(message)
        if resource is not None:
            self.resource = resource
        self.consumed = consumed
        self.budget = budget

    def detail(self) -> Dict[str, object]:
        """A JSON-friendly record of the exhaustion (for shard reports)."""
        return {
            "type": type(self).__name__,
            "resource": self.resource,
            "consumed": self.consumed,
            "budget": self.budget,
        }


class AnalysisTimeout(ResourceExhausted):
    """The wall-clock deadline of a query expired (checked at checkpoints)."""

    resource = "wall-clock"

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        consumed: Optional[Number] = None,
        budget: Optional[Number] = None,
    ) -> None:
        if message is None:
            consumed_text = f"{consumed:.3f}s" if consumed is not None else "?"
            budget_text = f"{budget:.3f}s" if budget is not None else "?"
            message = f"analysis deadline exceeded: {consumed_text} elapsed of a {budget_text} budget"
        super().__init__(message, consumed=consumed, budget=budget)


class NodeBudgetExceeded(ResourceExhausted):
    """The BDD manager's live-node budget was exceeded.

    Raised at allocation checkpoints and at GC safe points (after a sweep
    failed to bring the live count back under budget), so a bad variable
    order or an adversarial program cannot grow the node table without
    bound.
    """

    resource = "bdd-nodes"

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        consumed: Optional[Number] = None,
        budget: Optional[Number] = None,
    ) -> None:
        if message is None:
            message = (
                f"BDD node budget exceeded: {consumed} live nodes over a budget of {budget}"
            )
        super().__init__(message, consumed=consumed, budget=budget)


class ExplorationBudgetExceeded(ResourceExhausted):
    """An explicit-state baseline exceeded its state-space budget.

    Replaces the bare ``MemoryError`` the baselines used to raise, so the
    batch layer classifies a blown-up explicit exploration as ``resource``
    rather than ``crashed``.  ``resource`` names the bounded quantity
    (``"path-edges"`` for Bebop, ``"transitions"`` for Moped,
    ``"configurations"`` for the explicit concurrent engine).
    """


class RecursionDepthExceeded(ResourceExhausted):
    """A BDD kernel recursion overran the interpreter's recursion limit.

    The manager derives the limit from its variable count (see
    :mod:`repro.bdd.manager`), so this trips only where that limit is capped
    (CPython 3.10) or was lowered by someone else.  The analysis session
    turns the raw ``RecursionError`` into this type.
    """

    resource = "recursion-depth"


class NodeSlotsExhausted(ResourceExhausted):
    """The BDD node table ran out of packed-key node slots (``2**23``).

    Raised before the new node is stored, so the manager stays releasable.
    """

    resource = "bdd-slots"

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        consumed: Optional[Number] = None,
        budget: Optional[Number] = None,
    ) -> None:
        if message is None:
            message = (
                f"BDD node table supports at most {budget} node slots "
                "(packed-key bound)"
            )
        super().__init__(message, consumed=consumed, budget=budget)


class VariableLimitExceeded(ResourceExhausted):
    """The BDD manager ran out of packed-key variable levels (``2**15 - 1``).

    Raised by ``add_var`` before the variable is declared, so the manager
    stays releasable.
    """

    resource = "bdd-vars"

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        consumed: Optional[Number] = None,
        budget: Optional[Number] = None,
    ) -> None:
        if message is None:
            message = (
                f"BDD manager supports at most {budget} variables "
                "(packed-key bound)"
            )
        super().__init__(message, consumed=consumed, budget=budget)
