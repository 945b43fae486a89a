"""Exception types shared across the package."""


class TreebedError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolated(TreebedError):
    """An operation was called on inputs outside its contract."""


class Disconnected(TreebedError):
    """Operation requires a connected graph."""


class Infeasible(TreebedError):
    """Requested parameters admit no object (e.g. degree-bounded tree)."""


class OverlappingComponents(TreebedError):
    """A component collection was expected to be pairwise disjoint."""


class EmbedNotFound(TreebedError):
    """A constructive embedding procedure failed at a named stage.

    Not a proof of non-containment; only the exhaustive oracle proves those.
    """

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        self.detail = detail
        super().__init__(f"embedding failed at stage {stage!r}" + (f": {detail}" if detail else ""))


class InternalInvariantError(TreebedError):
    """A certified bound failed to re-check; indicates a bug, not bad input."""
