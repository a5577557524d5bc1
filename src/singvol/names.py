"""The catalog's names: what ``catalog list`` prints, and how names are read.

Nothing here builds a graph, so listing the names, or resolving a named
cone, loads neither ``catalog`` nor ``graph``; ``catalog`` binds all three.
"""

from .errors import DomainError, MalformedInputError


def catalog_entries() -> dict:
    """Everything `catalog list` prints: fixed names plus name patterns."""
    return {
        "graphs": {
            "fixed": ["E6", "E7", "E8"],  # catalog._GRAPH_FIXED's keys
            "patterns": [
                "A<n>            chain of n (-2)-curves",
                "D<n>            forked chain, n >= 4",
                "cusp-<L>        cycle of L rational (-3)-curves, L >= 3",
                "simple-elliptic-<d>  one elliptic (-d)-curve",
                "cone-g<g>-d<d>  one genus-g curve of self-intersection -d",
            ],
        },
        "cones": {
            "fixed": ["elliptic-cone", "paper-ruled-surface"],  # cone._CONE_FIXED's keys
            "patterns": [
                "cone-g<g>-d<d>  polarized cone over a genus-g degree-d curve",
                "elliptic-cone-<d>  cone over an elliptic curve of degree d",
            ],
        },
    }


def name_number(digits: str) -> int:
    """A name's decimal parameter; one longer than the 4,300 digits ``int``
    parses is too large."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"catalog number of {len(digits)} digits is too large",
                          reason="too-large") from None


def build_named(name: str, build, match) -> object:
    """``build(match)`` for the catalog name ``name``. A name that matches a
    pattern but carries out-of-range parameters is still a bad name, not a
    bad computation."""
    try:
        return build(match)
    except DomainError as exc:
        if exc.reason == "too-large":  # a valid name, beyond the size limit
            raise
        raise MalformedInputError(
            f"catalog name {name!r} has invalid parameters: {exc}"
        ) from exc
