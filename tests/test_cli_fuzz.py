"""Fuzzed CLI input ends in a documented exit code, never a traceback.

Exit codes 1 and 3 come with exactly one stderr line, and a document whose
field is missing or of the wrong shape is refused by naming that field.  Word
documents stay at three strands and six letters, and the examples are
derandomized, so the whole file runs in seconds.
"""

import contextlib
import io
import json
import sys

import pytest
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
@given(WORD_DOCS)
def test_homology_word_document_fuzz(document):
    code, err = _main(["homology", "--input", "-"], document)
    _assert_contract(code, err)
    bad = [k for k in json.loads(document)["relative"]["word"]["free"] if not 0 <= k <= 2]
    if bad:
        assert code == 1 and f"free mark {bad[0]} " in err, err


@FUZZ
@given(MALFORMED)
def test_homology_malformed_document_fuzz(document):
    _assert_contract(*_main(["homology", "--input", "-"], document))


MISSING = object()
NOT_A_LIST = st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3), st.booleans())
NOT_A_PAIR = st.one_of(
    NOT_A_LIST,
    st.lists(st.integers(-3, 3), max_size=4).filter(lambda v: len(v) != 2),
    st.lists(st.one_of(st.text(max_size=2), st.floats(0.5, 2.5), st.none()),
             min_size=2, max_size=2),
)
CONSTANT = {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, -0.4]]}
VALID_DOCUMENTS = {
    "word": ("homology", {"relative": {"word": {"text": "n=3; s2 s1 s2", "free": [1]}}}),
    "cyclic": ("homology", {"relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}}}),
    "constant": ("maslov", {"maslov": {"family": CONSTANT}}),
    "rotation": ("maslov", {"maslov": {"family": {"kind": "rotation", "k": 1}}}),
    "maslov": ("maslov", {"maslov": {"family": CONSTANT, "tau": 1.0}}),
    "annulus": ("maslov", {"maslov": {"family": {"kind": "annulus"}}}),
    "forcing": ("forcing", {"relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}},
                            "period_cap": 5}),
    "flow": ("flow", {"relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}},
                      "flow": {"horizon": 2.0}}),
    "normalform": ("normalform", {"text": "n=3; s1"}),
    "braid": ("normalform", {"braid": {"text": "n=3; s1"}}),
}
NOT_A_NUMBER = st.one_of(st.none(), st.text(alphabet="abc", max_size=2), st.lists(st.integers()))
NOT_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
NOT_AN_INTEGER = st.one_of(NOT_A_NUMBER, NOT_FINITE,
                           st.floats(-5, 5).filter(lambda x: not x.is_integer()))
RADIUS = st.fractions(0, 1).filter(lambda r: 0 < r < 1).map(str)
OUT_OF_RANGE = st.one_of(st.fractions(max_value=0).map(str), st.fractions(min_value=1).map(str),
                         st.floats(max_value=0), st.floats(min_value=1))
# (block, field, wrong values): each leaves the named field missing or malformed
BROKEN_FIELDS = st.one_of(
    st.tuples(st.just("word"), st.just("free"), st.one_of(st.just(MISSING), NOT_A_LIST)),
    st.tuples(st.just("word"), st.just("text"),
              st.one_of(st.just(MISSING), st.none(), st.integers(), st.lists(st.integers()))),
    st.tuples(st.just("cyclic"), st.sampled_from(["inner", "outer"]),
              st.one_of(st.just(MISSING), NOT_A_PAIR)),
    st.tuples(st.just("cyclic"), st.just("ell"), st.one_of(st.just(MISSING), NOT_AN_INTEGER)),
    st.tuples(st.just("cyclic"), st.just("phases"),
              st.one_of(st.lists(st.one_of(NOT_FINITE, st.floats(0, 1)), min_size=1).filter(
                  lambda ps: any(p != p or abs(p) == float("inf") for p in ps)),
                        st.lists(st.floats(0, 1), max_size=5).filter(lambda ps: len(ps) != 3))),
    st.tuples(st.just("cyclic"), st.just("radii"),
              st.one_of(st.none(), st.integers(), st.lists(st.text(alphabet="abc"), min_size=1),
                        st.lists(RADIUS, max_size=2).flatmap(lambda ok: st.lists(
                            OUT_OF_RANGE, min_size=1, max_size=2).map(lambda bad: ok + bad)),
                        st.lists(RADIUS, max_size=5).filter(lambda rs: len(rs) != 3))),
    st.tuples(st.just("constant"), st.just("matrix"),
              st.one_of(st.just(MISSING), NOT_A_NUMBER, st.just([["a"]]))),
    st.tuples(st.just("rotation"), st.sampled_from(["k", "n"]), NOT_AN_INTEGER),
    st.tuples(st.just("annulus"), st.sampled_from(["eps", "delta"]),
              st.one_of(NOT_A_NUMBER, NOT_FINITE)),
    st.tuples(st.just("maslov"), st.sampled_from(["tau", "b"]), NOT_A_NUMBER),
    st.tuples(st.just("maslov"), st.just("sigma"),
              st.one_of(st.integers(), st.text(max_size=3),
                        st.lists(st.one_of(st.integers(0, 1), st.booleans(), st.floats(0, 1)),
                                 min_size=1, max_size=3).filter(
                            lambda ks: any(type(k) is not int for k in ks)),
                        # integers, but more than the family's one strand
                        st.lists(st.integers(0, 2), min_size=2, max_size=3))),
    st.tuples(st.just("forcing"), st.just("period_cap"), NOT_AN_INTEGER),
    st.tuples(st.just("flow"), st.just("horizon"), st.one_of(NOT_A_NUMBER, NOT_FINITE)),
    st.tuples(st.just("normalform"), st.just("text"),
              st.one_of(st.just(MISSING), st.none(), st.integers(), st.lists(st.integers()))),
    st.tuples(st.just("braid"), st.just("braid"),
              st.one_of(st.none(), st.integers(), st.text(max_size=5), st.lists(st.integers()))),
)


def _break(block, field, value):
    command, document = VALID_DOCUMENTS[block]
    document = json.loads(json.dumps(document))
    if block in ("forcing", "normalform", "braid"):  # fields of the document itself
        inner = document
    elif block == "flow":
        inner = document["flow"]
    elif block == "maslov":
        inner = document["maslov"]
    elif block in ("constant", "rotation", "annulus"):
        inner = document["maslov"]["family"]
    else:
        inner = document["relative"][block]
    if value is MISSING:
        del inner[field]
    else:
        inner[field] = value
    return command, json.dumps(document)


@FUZZ
@given(BROKEN_FIELDS)
@example(("word", "free", MISSING))
@example(("word", "free", 0))
@example(("cyclic", "inner", [1]))
@example(("constant", "matrix", MISSING))
@example(("constant", "matrix", "ab"))
@example(("constant", "matrix", []))  # was "K(t) must be 0x0"
@example(("constant", "matrix", [0]))  # was "dimension must be even (2n)"
@example(("cyclic", "radii", ["a"]))
@example(("cyclic", "radii", ["-1/5", "2/5", "9/10"]))  # ran as if -1/5 were a radius
@example(("cyclic", "radii", ["1/5", "2/5", "3/2"]))  # refused only after every sampling
@example(("cyclic", "radii", ["1/5", "2/5"]))  # was "not enough values to unpack"
@example(("cyclic", "radii", ["1/5", "2/5", "1/2", "9/10"]))  # was "too many values to unpack"
@example(("cyclic", "phases", [0.1]))  # was "tuple index out of range"
@example(("maslov", "sigma", [0, 1.0]))  # died in numpy indexing
@example(("maslov", "sigma", [True, False]))  # passed as a permutation of 0..1
@example(("maslov", "sigma", [0, 1]))  # was "permutation size does not match the family"
@example(("rotation", "k", "x"))
@example(("maslov", "tau", "x"))
@example(("maslov", "b", "x"))
@example(("cyclic", "phases", [float("nan"), 0.03, 0.41]))
@example(("annulus", "eps", float("nan")))
@example(("annulus", "delta", float("nan")))
@example(("cyclic", "ell", 1.5))
@example(("rotation", "k", 1.5))
@example(("rotation", "n", 1.5))
@example(("forcing", "period_cap", 1.5))
@example(("forcing", "period_cap", "x"))
@example(("flow", "horizon", "x"))
@example(("flow", "horizon", float("nan")))
@example(("normalform", "text", MISSING))  # {}
@example(("braid", "braid", "n=3; s1"))  # {"braid": "n=3; s1"}
@example(("normalform", "text", 5))  # {"text": 5}
def test_malformed_field_is_named(broken):
    command, document = _break(*broken)
    code, err = _main([command, "--input", "-"], document)
    _assert_contract(code, err)
    assert code == 1 and repr(broken[1]) in err, err


TABLE = {"kind": "table", "times": [0, 1], "matrices": [[[1, 0], [0, 0.4]], [[0.5, 0], [0, 1]]]}
FAMILIES = {"constant": {"kind": "constant", "matrix": [[3.0, 0.5], [0.5, 2.0]]}, "table": TABLE,
            "rotation": {"kind": "rotation", "k": 1}, "annulus": {"kind": "annulus"}}


@FUZZ
@given(st.sampled_from(sorted(FAMILIES)), st.floats(-1e6, 0),
       st.one_of(st.none(), st.floats(-1, 1)))
@example("constant", -1.0, 0.5)  # exited 0 with a payload
@example("table", -1.0, 0.5)  # exited 0 with a payload
@example("rotation", 0.0, None)  # was "float division by zero"
@example("constant", 0.0, None)  # was "need a < b"
@example("annulus", -1.0, None)  # was "need a < b"
def test_non_positive_tau_is_refused_by_name(kind, tau, b):
    block = {"family": FAMILIES[kind], "tau": tau}
    if b is not None:
        block["b"] = b
    code, err = _main(["maslov", "--input", "-"], json.dumps({"maslov": block}))
    _assert_contract(code, err)
    assert code == 1 and err == f"error: tau is {tau}, not a positive number\n", err


@pytest.mark.parametrize("block, key", [("cyclic", "ell"), ("rotation", "k"), ("rotation", "n")])
def test_integral_values_still_run(block, key):
    """1, 1.0 and "1" are the same integer field and run alike."""
    runs = [_main([VALID_DOCUMENTS[block][0], "--input", "-"], _break(block, key, value)[1])
            for value in (1, 1.0, "1")]
    assert runs[0][0] in (0, 3) and runs[1:] == runs[:1] * 2, runs
