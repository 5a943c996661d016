"""Exceptions shared across the package."""


class GaveUp(RuntimeError):
    """A search stopped at its budget, window or depth cap without an answer.

    The input may still have one; a larger limit might find it.  Other
    ``RuntimeError``s are internal consistency checks that failed."""
