"""JSON documents: field checks, digests and reading files.

The document formats are strict: unknown fields are rejected, rationals are
integers or ``"p/q"`` strings, and re-serializing a parsed document gives
a canonical form (used for the report input digests). Keeping the schema
this rigid is what makes reports byte-identical across runs. The canonical
writer itself is ``render.to_json``, re-exported here as ``to_json``.

This module is a leaf (it imports ``errors`` and ``render``): ``graph``,
``tower`` and ``cone`` parse their formats with the field checks below, and
each binds its codec here too when imported (``graph_from_doc``,
``tower_from_doc``, ``tower_to_doc``, ``cone_from_doc``). ``catalog`` and
``cone`` resolve their catalog names with :func:`by_name`. ``digest`` takes
SHA-256 from the built-in ``_sha256`` (``_sha2`` from Python 3.12), as
``hashlib`` does without OpenSSL.

Import rule: library modules import at module level only. A module object
may outlive a fresh import of the package (perfbench re-imports it while its
loop keeps the old modules), and a call-time import would hand it the new
import's classes, failing ``isinstance`` against its own. Only ``cli``
command bodies and the package's ``__getattr__`` import at call time, and
``cone.dcc_scan``, which imports ``envelope`` at call time and passes it
only graphs it builds itself. ``tests/test_imports.py`` checks this rule.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # its name from Python 3.12
    except ImportError:
        from hashlib import sha256

from .errors import DomainError, MalformedInputError
from .render import to_json


def require_mapping(doc: Any, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise MalformedInputError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def take(doc: Any, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``doc`` as a dict, checked to be a mapping (:func:`require_mapping`)
    with every ``required`` field and no field outside ``optional``."""
    unknown = set(require_mapping(doc, what)) - set(required) - set(optional)
    if unknown:
        raise MalformedInputError(
            f"{what} has unknown field(s): {', '.join(sorted(map(str, unknown)))}",
            reason="unknown-field",
        )
    missing = [f for f in required if f not in doc]
    if missing:
        raise MalformedInputError(f"{what} is missing field(s): {', '.join(missing)}")
    return dict(doc)


def require_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} must be an integer, got {value!r}")
    return value


# -- catalog names -------------------------------------------------------------


def name_number(digits: str) -> int:
    """A catalog name's decimal parameter; one longer than the 4,300 digits
    ``int`` parses is too large."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"catalog number of {len(digits)} digits is too large",
                          reason="too-large") from None


def by_name(name: str, fixed: Mapping, patterns: tuple, kind: str) -> Any:
    """The catalog ``kind`` (graph or cone) called ``name``: ``fixed[name]()``,
    or ``build(match)`` of the first ``(pattern, build)`` that matches. A name
    that matches a pattern but carries out-of-range parameters is still a bad
    name, not a bad computation: whichever error class its builder raises, the
    refusal reads ``catalog name ... has invalid parameters``, unless too large."""
    if name in fixed:
        return fixed[name]()
    for pattern, build in patterns:
        if match := pattern.match(name):
            try:
                return build(match)
            except (DomainError, MalformedInputError) as exc:
                if exc.reason == "too-large":  # a valid name, beyond the size limit
                    raise
                raise MalformedInputError(
                    f"catalog name {name!r} has invalid parameters: {exc}"
                ) from exc
    raise MalformedInputError(f"unknown catalog {kind} {name!r}", reason="unknown-catalog-name")


# -- digests and files ---------------------------------------------------------


def digest(doc: Any) -> str:
    """Short content digest of a document's canonical form."""
    return sha256(to_json(doc).encode("ascii")).hexdigest()[:16]


def load_json(path: str) -> Any:
    """Parse a JSON file; every read or decode failure is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise MalformedInputError(f"no such file: {path}", reason="missing-file") from exc
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}", reason="unreadable-file") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8: {exc}", reason="invalid-encoding") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"invalid JSON in {path}: {exc}", reason="invalid-json") from exc
    except ValueError:
        # json parses integer literals with int(), which refuses more digits
        # than sys.get_int_max_str_digits() (4,300 by default)
        raise DomainError(f"JSON in {path} has an integer literal too long to parse",
                          reason="too-large") from None
    except RecursionError as exc:
        raise MalformedInputError(f"JSON in {path} is nested too deeply",
                                  reason="too-deeply-nested") from exc
