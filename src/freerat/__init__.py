"""Rational subsets, positivity and verbal sets in free groups and free
products of cyclic groups, with an automated refuter for candidate rational
descriptions of verbal sets."""
