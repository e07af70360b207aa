"""Whole-file writes: the one way kdr persists a file."""

import itertools
import json
import os
import threading
from collections.abc import Iterable
from contextlib import suppress
from pathlib import Path

from .errors import IoFailure


def write_file(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Replace `path` with the UTF-8 `text`, creating its directory.

    The text goes to `.<name>.<pid>.<thread id>.tmp` beside `path`, then
    os.replace swaps it in, so a crashed process leaves the old file whole.
    There is no fsync: power loss is not covered. The mode follows the
    umask, as with open(). `text` may come in pieces, written as they come,
    so a large file is never held as one string. OSError -> IoFailure.
    """
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:  # gone after the replace; removed after any failure
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def write_json(path: str | os.PathLike, document) -> None:
    """write_file of `document` as indented JSON plus a trailing newline."""
    pieces = json.JSONEncoder(indent=2, ensure_ascii=False).iterencode(document)
    write_file(path, itertools.chain(pieces, ["\n"]))
