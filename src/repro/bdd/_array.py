"""Import alias for ``repro.bdd._array`` users; the node store is :class:`repro.bdd.BddManager`."""

from .manager import BddManager as ArrayBddManager  # noqa: F401
