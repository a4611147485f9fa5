"""Fuzzed CLI input ends in a documented exit code, never a traceback.

Exit codes 1 and 3 come with exactly one stderr line.  Word documents stay
at three strands and six letters, and the examples are derandomized, so the
whole file runs in seconds.
"""

import contextlib
import io
import json
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidfloer.cli import main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

TOKENS = st.one_of(
    st.builds(lambda i, inv: f"s{i}" + "'" * inv, st.integers(-1, 5), st.booleans()),
    st.text(max_size=4),
)
HEADERS = st.one_of(st.builds("n={}".format, st.integers(-1, 4)), st.text(max_size=4))
BRAID_TEXT = st.builds(
    lambda head, sep, toks: head + sep + " ".join(toks),
    HEADERS,
    st.sampled_from([";", "; ", "", " "]),
    st.lists(TOKENS, max_size=6),
)

WORD_DOCS = st.builds(
    lambda letters, free: {
        "relative": {"word": {"text": "n=3; " + " ".join(letters), "free": free}}
    },
    st.lists(st.sampled_from(["s1", "s2", "s1'", "s2'"]), max_size=6),
    st.one_of(
        st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True),
        st.lists(st.integers(-1, 3), max_size=3),
    ),
).map(json.dumps)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["relative", "word", "text", "free", "cyclic", "label"]),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)
MALFORMED = st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=20))


def _main(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def _assert_contract(code, err):
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    if code in (1, 3):
        assert len(err.splitlines()) == 1, err


@FUZZ
@given(BRAID_TEXT)
@example("-n=3; s1")  # argparse reads it as an option
def test_normalform_text_fuzz(text):
    code, err = _main(["normalform", "--text", text])
    _assert_contract(code, err)
    assert code in (0, 1), err  # normalform judges no class


@FUZZ
@given(WORD_DOCS, st.booleans())
def test_homology_word_document_fuzz(document, period_check):
    argv = ["homology", "--input", "-"] + ([] if period_check else ["--no-period-check"])
    _assert_contract(*_main(argv, document))


@FUZZ
@given(MALFORMED)
def test_homology_malformed_document_fuzz(document):
    _assert_contract(*_main(["homology", "--input", "-"], document))
