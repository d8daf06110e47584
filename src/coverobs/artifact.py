"""The one JSON convention of every file the package reads or writes.

Files are written with sorted keys, a two-space indent and a final newline,
so equal documents give equal bytes.  A file that cannot be read, decoded
or converted raises its format's own error, as one line naming the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FilePath = str | Path

# what reading a file or converting its values can raise; AttributeError
# comes of a list or a number where a JSON object belongs
READ_ERRORS = (OSError, ValueError, TypeError, KeyError, IndexError, OverflowError, AttributeError)


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool, so a
    count, an id or a seed given as a float is refused, not truncated."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def write_json(path: FilePath, doc: dict, manifest_hash: str | None = None) -> None:
    if manifest_hash is not None:
        doc = {**doc, "manifest_hash": manifest_hash}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: FilePath, error: type[Exception], parse):
    """``parse`` of the document in ``path``, with every failure an ``error``."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise error(f"{path}: missing required keys: {exc}") from exc
    except OSError as exc:  # its own message would name the file again
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except (error, *READ_ERRORS) as exc:
        raise error(f"{path}: {exc}") from exc
