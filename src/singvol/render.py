"""The canonical JSON writer every report goes through.

It needs only ``json`` and ``errors``, so a command that prints a report
without computing one (``catalog list``) loads no graph, rational or digest
code; ``io`` re-exports :func:`to_json` for everything else.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DomainError


def to_json(doc: Any) -> str:
    """Canonical rendering: sorted keys, two-space indentation, ASCII only,
    trailing newline.

    The output is byte-identical to ``json.dumps(doc, indent=2,
    sort_keys=True, ensure_ascii=True) + "\n"``, which never uses the C
    encoder with an indent; this writer does less per value, and quotes a
    ``str`` element or key in place rather than through a recursive call.
    It renders dicts (str, int, bool or None keys), lists, tuples, str, int,
    bool and None, and raises ``TypeError`` on anything else, as ``json`` does.
    Identical documents always produce identical bytes, which is what the
    reproducibility contract of the reports rests on.
    """
    return _render(doc, "\n") + "\n"


_quote = json.encoder.encode_basestring_ascii


def _render(doc: Any, newline: str) -> str:
    """``doc`` as ``json.dumps`` indents it, ``newline`` the line break plus
    the indentation of the line it starts on."""
    if isinstance(doc, str):
        return _quote(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        try:
            return int.__repr__(doc)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise DomainError("an integer result has too many digits to print",
                              reason="too-large") from None
    inner = newline + "  "
    sep = "," + inner
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        body = sep.join([(_quote(k) if type(k) is str else _key(k)) + ": "
                         + (_quote(v) if type(v) is str else _render(v, inner))
                         for k, v in sorted(doc.items())])
        return "{" + inner + body + newline + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        body = sep.join([_quote(x) if type(x) is str else _render(x, inner) for x in doc])
        return "[" + inner + body + newline + "]"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _key(key: Any) -> str:
    """A dict key as ``json`` writes it: strings quoted, the rest as text."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, int):
        return _quote(_render(key, ""))
    raise TypeError(f"keys must be str, int, bool or None, not {type(key).__name__}")
