"""The one JSON convention of every file the package reads or writes.

Files are written with sorted keys, a two-space indent and a final newline,
so equal documents give equal bytes.  A file that cannot be read, decoded
or converted raises its format's own error, as one line naming the file.

It owns the spelling of block keys too: plant ``A``/``B``/``C``, design
``Hbar``/``P`` and controller ``K`` are written by :func:`save_blocks` and
read by :func:`load_blocks`, which takes a key only as written (``"01"``,
``" 1"``, ``"1_0"`` and ``"1.0"`` are refused), so no two keys name one
block.  Loaders pass what they read to the constructors unconverted, which
check it with :func:`is_int` and :func:`is_finite`.
"""

from __future__ import annotations

import json
import re
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


def is_finite(value) -> bool:
    """Whether ``value`` is a finite Python or numpy number: not a bool, a
    string, NaN or an infinity."""
    return is_int(value) or isinstance(value, (float, np.floating)) and abs(value) < np.inf


def save_blocks(blocks: dict) -> dict:
    """``blocks`` as a JSON object of nested lists, block 3 under ``"3"`` and
    block (3, 7) under ``"3,7"``."""
    return {
        ",".join(map(str, key)) if isinstance(key, tuple) else str(key): np.asarray(blk).tolist()
        for key, blk in blocks.items()
    }


def load_blocks(section: dict, label: str, pairs: bool = False) -> dict:
    """The blocks of the JSON object ``section`` that :func:`save_blocks`
    wrote, under agent numbers, or (i, j) pairs of them if ``pairs``.  A key
    spelt any other way, or an entry not a finite number (``"-1"``, ``true``),
    raises ``ValueError`` naming it by ``label``: ``"K block ({},{})"``."""
    form = "([1-9][0-9]*),([1-9][0-9]*)" if pairs else "([1-9][0-9]*)"
    blocks = {}
    for text, blk in section.items():
        match = re.fullmatch(form, text)
        if match is None:
            what = 'a pair of agent numbers, as in "3,7"' if pairs else 'an agent number, as in "3"'
            raise ValueError(f"{label.split()[0]} key {text!r} is not {what}")
        key = tuple(map(int, match.groups()))
        if not all(map(is_finite, np.ravel(np.array(blk, dtype=object)))):
            raise ValueError(f"{label.format(*key)} has entries that are not finite numbers")
        blocks[key if pairs else key[0]] = blk
    return blocks


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
