"""tokenize against the rule it implements, written as three regex steps."""

from __future__ import annotations

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from kdr.textindex import tokenize


def rule(text: str) -> list[str]:
    """Split camel humps, lowercase, keep each run of [a-z0-9]."""
    return re.findall("[a-z0-9]+", re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", text).lower())


ASCII = (string.ascii_letters + string.digits + string.punctuation + string.whitespace
         + "\x0b\x1c\x00\x7f")
# lowercase to ASCII (Kelvin sign), to two characters (dotted capital I), or
# stay non-ASCII; U+0085 is whitespace to str.split but not to the rule
OTHER = "\u0130\u212a\u00c9\u00df\u0085\u00e9"
PIECES = st.sampled_from(["camelCase", "HTTPServer", "x1Y", "snake_case", "aB", "9Z", "a\u212a"])


@given(st.lists(st.text(alphabet=ASCII) | PIECES, max_size=8))
@settings(max_examples=400, deadline=None)
def test_ascii_text_follows_the_rule(parts):
    text = "".join(parts)
    assert tokenize(text) == rule(text)


@given(st.lists(st.text(alphabet=ASCII + OTHER) | PIECES, max_size=8))
@settings(max_examples=400, deadline=None)
def test_mixed_text_follows_the_rule(parts):
    text = "".join(parts)
    assert tokenize(text) == rule(text)


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_any_text_follows_the_rule(text):
    assert tokenize(text) == rule(text)


def test_examples():
    assert tokenize("parseHTTPResponse_v2 x") == ["parse", "httpresponse", "v2", "x"]
    assert tokenize("a\u212a b") == ["ak", "b"]  # the Kelvin sign is no hump; it lowers to k
    assert tokenize("\u0130stanbul") == ["i", "stanbul"]  # dotted I lowers to i + U+0307
    assert tokenize("") == []
