"""The catalog's name table: what ``catalog list`` prints.

It names graphs and cones without building any, so listing them loads
neither ``catalog`` nor ``graph``; ``catalog`` binds it as well.
"""


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
