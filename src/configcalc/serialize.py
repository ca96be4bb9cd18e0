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


def fraction_to_str(value: Fraction | int) -> str:
  return str(Fraction(value))


def fraction_from_str(text) -> Fraction:
  if isinstance(text, int):
    return Fraction(text)
  if not isinstance(text, str):
    raise InputError(f"expected rational string, got {text!r}")
  try:
    return Fraction(text)
  except (ValueError, ZeroDivisionError) as exc:
    raise InputError(f"bad rational literal {text!r}") from exc


def dump_json(obj, path=None) -> str:
  """Serialize deterministically (sorted keys, 2-space indent, newline)."""
  text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
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
