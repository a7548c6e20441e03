"""The common base class of clusterlab's typed errors."""


class ClusterlabError(ValueError):
    """Input that clusterlab cannot work with: a malformed surface or
    crossing sequence, an out-of-range mutation index, mismatched ranks."""


__all__ = ["ClusterlabError"]
