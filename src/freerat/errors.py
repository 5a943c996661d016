"""Exceptions shared across the package."""


class GaveUp(RuntimeError):
    """A computation stopped without an answer: a search reached its budget
    or depth cap, or a construction met no element it can use.

    The input may still have one; a larger limit or another construction
    might find it.  Other
    ``RuntimeError``s are internal consistency checks that failed."""
