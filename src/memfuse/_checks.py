"""The one rule for a count: a field, argument or file value that counts things."""

import numbers


def is_count(value, minimum: int = 0) -> bool:
    """True for a Python or numpy integer, not a bool, of at least `minimum`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum
