"""The common base class of clusterlab's typed errors, and the int check
that raises them."""


class ClusterlabError(ValueError):
    """Input that clusterlab cannot work with: a malformed surface or
    crossing sequence, an out-of-range mutation index, mismatched ranks."""


def check_ints(values, what, error):
    """Raise `error` on a value that is not an int, a bool included: dict
    lookups would treat 1.0 and True as 1."""
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise error(f"{what} must be an int, not {bad!r}")


__all__ = ["ClusterlabError", "check_ints"]
