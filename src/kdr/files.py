"""The one way kdr persists or loads a file: writes replace the whole file
(a log only appends), and every error names the file (and the line, for
malformed JSON)."""

import itertools
import json
import os
import threading
from collections.abc import Iterable, Iterator
from contextlib import suppress
from json.encoder import encode_basestring
from pathlib import Path

from .errors import CorruptRecord, IoFailure, SchemaViolation


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


def write_json(path: str | os.PathLike, document, digest=None) -> None:
    """write_file of json.dumps(document, indent=2, ensure_ascii=False) plus a
    trailing newline. The items of the containers in the top three levels are
    written one at a time, so a large document is never held whole as text.
    A hashlib `digest`, when given, is fed the UTF-8 of that text as it goes."""
    pieces = itertools.chain(_json_pieces(document, "", 3), ["\n"])
    if digest is not None:
        pieces = (digest.update(piece.encode()) or piece for piece in pieces)
    write_file(path, pieces)


def _json_pieces(value, indent: str, levels: int) -> Iterator[str]:
    """_json_text of `value` at `indent` in pieces, one per item of a
    container down `levels` levels of containers."""
    if not (levels and isinstance(value, (dict, list, tuple)) and value):
        yield _json_text(value, indent, set())
        return
    if isinstance(value, dict):
        items = ((_json_key(k) + ": ", v) for k, v in value.items())
        opening, closing = "{", "}"
    else:
        items = (("", v) for v in value)
        opening, closing = "[", "]"
    inner = indent + "  "
    separator = opening + "\n" + inner
    for prefix, item in items:
        yield separator + prefix
        yield from _json_pieces(item, inner, levels - 1)
        separator = ",\n" + inner
    yield "\n" + indent + closing


def _json_text(value, indent: str, path: set[int]) -> str:
    """json.dumps(value, indent=2, ensure_ascii=False) for a value nested at
    `indent`, joined from one flat list of pieces per container: the stdlib
    yields a token at a time when it indents, at several times the cost.
    `path` holds the ids of the containers `value` is in, so a document that
    contains itself raises the stdlib's ValueError."""
    if isinstance(value, str):
        return encode_basestring(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # None, a bool or a number; TypeError for anything else
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    if id(value) in path:
        raise ValueError("Circular reference detected")
    path.add(id(value))
    inner = indent + "  "
    parts = []
    # str items, the most common, are encoded inline: a call costs more
    if isinstance(value, dict):
        for k, v in value.items():
            parts += (",\n", inner, encode_basestring(k) if isinstance(k, str) else _json_key(k),
                      ": ", encode_basestring(v) if isinstance(v, str)
                      else _json_text(v, inner, path))
        parts[0], closing = "{\n", "}"  # the first separator opens the container
    else:
        for v in value:
            parts += (",\n", inner,
                      encode_basestring(v) if isinstance(v, str) else _json_text(v, inner, path))
        parts[0], closing = "[\n", "]"
    path.remove(id(value))
    parts += ("\n", indent, closing)
    return "".join(parts)


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: a str as it is, a number, bool or
    None as its JSON text, in quotes."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def append_text(path: str | os.PathLike, text: str) -> None:
    """Append the UTF-8 `text` to `path`, creating the file but not its
    directory; for logs, which grow and are never replaced. OSError -> IoFailure."""
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot append to {path}: {exc}") from exc


def make_dir(path: str | os.PathLike, what: str) -> None:
    """Create directory `path` and its parents, so a bad location fails before any work."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {what} {path}: {exc}") from exc


def read_text(path: str | os.PathLike) -> str:
    """The UTF-8 text of `path`, with CRLF and a lone CR read as LF, as text
    mode reads them; OSError or a bad byte -> IoFailure naming it. Decoding
    the bytes whole is quicker than reading through a text-mode file."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_json(text: str, path, line_number: int | None = None):
    """The JSON document in `text`, read from `path`; CorruptRecord naming the
    path and line if it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptRecord(exc.msg, line_number or exc.lineno, path) from exc


def read_json(path: str | os.PathLike):
    """The JSON document in `path`."""
    return parse_json(read_text(path), path)


def read_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, object]]:
    """(1-based line number, row) for each non-blank line, parsed as it is reached."""
    for n, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            yield n, parse_json(line, path, n)


def check_keys(document, what: str, required=(), allowed=None) -> dict:
    """`document` if it is a JSON object with every `required` key and, when
    `allowed` is given, no other key; SchemaViolation naming `what` if not."""
    if not isinstance(document, dict):
        raise SchemaViolation(f"{what} must be a JSON object, got {type(document).__name__}")
    missing = [key for key in required if key not in document]
    if missing:
        raise SchemaViolation(f"{what} lacks {missing}")
    if allowed is not None:
        unknown = document.keys() - allowed
        if unknown:
            raise SchemaViolation(f"unknown {what} keys: {sorted(unknown)}")
    return document
