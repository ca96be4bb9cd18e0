"""Exact-rational JSON helpers.

All numeric payloads cross the JSON boundary as strings "p" or "p/q" so that
nothing is ever rounded. Integers stay plain ("3", "-2"); proper fractions
carry a slash ("3/4").
"""

from __future__ import annotations

import json
from fractions import Fraction


class InputError(ValueError):
  """Malformed manifest / JSON payload. CLI maps this to exit code 2."""


class WitnessError(Exception):
  """A checked property failed; ``payload`` is the replayable evidence.

  The payload is also the attribute named by ``key`` (``exc.witness``, or
  ``exc.certificate``), and reports carry it under that key.  CLI maps this
  to exit code 1.
  """

  key = "witness"
  message = "a checked property failed"

  def __init__(self, payload):
    super().__init__(self.message)
    self.payload = payload
    setattr(self, self.key, payload)


def manifest_int(value, name: str, minimum: int | None = None) -> int:
  """A count read from a manifest: a JSON integer (not a bool, not a float)
  of at least ``minimum``.  Anything else is an ``InputError``."""
  if (isinstance(value, bool) or not isinstance(value, int)
      or minimum is not None and value < minimum):
    raise InputError(f"bad {name} {value!r}")
  return value


def fraction_to_str(num, denom: int = 1) -> str:
  """The exact rational num/denom as "p" or "p/q" in lowest terms."""
  return str(Fraction(num, denom))


def fraction_from_str(text) -> Fraction:
  if type(text) is int:
    return Fraction(text)
  if not isinstance(text, str):
    raise InputError(f"expected rational string, got {text!r}")
  try:
    return Fraction(text)
  except (ValueError, ZeroDivisionError) as exc:
    raise InputError(f"bad rational literal {text!r}") from exc


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _encode(obj, pad: str, out: list) -> None:
  """Append the pieces json writes for ``obj`` with ``sort_keys=True`` and
  ``indent=2``, for an object at indent ``pad``, to ``out``, strings quoted
  by json's C encoder.  Pieces are joined once, so no nesting level copies
  the text below it.  Dicts with string keys, lists, tuples, strings, ints,
  floats, bools and None are written; a key that is not a string, or any
  other value, raises ``TypeError``."""
  kind = type(obj)
  if kind is str:
    out.append(_quote(obj))
  elif kind is int:
    out.append(int.__repr__(obj))
  elif obj is None or kind is bool:
    out.append(_CONSTANTS[obj])
  elif kind is float:
    out.append(json.dumps(obj))  # NaN, Infinity and -0.0 as json spells them
  elif kind is dict:
    inner = pad + "  "
    out.append("{")
    for i, key in enumerate(sorted(obj)):
      out.append((",\n" if i else "\n") + inner + _quote(key) + ": ")
      _encode(obj[key], inner, out)
    out.append("\n" + pad + "}" if obj else "}")
  elif kind is list or kind is tuple:
    inner = pad + "  "
    out.append("[")
    try:  # a list of strings is quoted in one pass
      if obj:
        out.append("\n" + inner + (",\n" + inner).join(map(_quote, obj)))
    except TypeError:
      for i, item in enumerate(obj):
        out.append((",\n" if i else "\n") + inner)
        _encode(item, inner, out)
    out.append("\n" + pad + "]" if obj else "]")
  else:
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dump_json(obj, path=None) -> str:
  """Serialize deterministically: the bytes ``json.dumps`` writes with
  ``sort_keys=True`` and ``indent=2``, and a newline, spelled by ``_encode``
  (``json.dumps`` takes its pure-Python encoder once given an indent)."""
  out = []
  _encode(obj, "", out)
  out.append("\n")
  text = "".join(out)
  if path is not None:
    with open(path, "w") as fh:
      fh.write(text)
  return text


def load_json(path):
  try:
    with open(path) as fh:
      return json.load(fh)
  except (OSError, json.JSONDecodeError) as exc:
    raise InputError(f"cannot read JSON from {path}: {exc}") from exc
