import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidfloer import pipeline
from braidfloer.cli import (
    JobSpec,
    format_braid_text,
    main,
    parse_braid_text,
    run,
)
from braidfloer.errors import BraidInputError
from braidfloer.maslov import DRIFT_BOUND
from braidfloer.words import exponent_sum

FIG3_TEXT = "n=5; s4' s3 s1 s3 s2' s1 s2 s3' s4' s1 s2 s3 s4' s1 s2'"


def test_parse_basic():
    w = parse_braid_text("n=3; s1 s2'")
    assert w.strands == 3
    assert w.letters == ((1, 1), (2, -1))
    assert parse_braid_text("n=2;").letters == ()


def test_parse_round_trip_byte_identical():
    for text in ("n=3; s1 s2'", "n=2;", FIG3_TEXT):
        assert format_braid_text(parse_braid_text(text)) == text


def test_parse_figure_word():
    assert exponent_sum(parse_braid_text(FIG3_TEXT)) == 3


def test_parse_errors_report_position():
    with pytest.raises(BraidInputError) as err:
        parse_braid_text("n=3; s1 x2")
    assert "position 1" in str(err.value)
    with pytest.raises(BraidInputError) as err:
        parse_braid_text("n=3; s7")
    assert "out of range" in str(err.value)
    with pytest.raises(BraidInputError):
        parse_braid_text("s1 s2")


def test_normalform_job():
    env = run(JobSpec("normalform", {"text": "n=2; s1'"}))
    assert env.payload["infimum"] == -1
    assert env.payload["g"] == 1
    assert env.payload["positive_word"] == "n=2; s1"


def test_homology_job_and_cache(tmp_path):
    doc = {"relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}}}
    job = JobSpec("homology", doc, cache_dir=str(tmp_path))
    env1 = run(job)
    assert env1.payload["betti"] == {"2": 1, "3": 1}
    assert env1.payload["poincare"] == "t^2 + t^3"
    assert env1.payload["provenance"] == "conjecture-shifted"
    env2 = run(job)
    assert env1.to_json() == env2.to_json()
    # determinism with the cache off
    env3 = run(JobSpec("homology", doc))
    assert env3.payload == env1.payload


def test_properness_job_improper_exit_code(capsys):
    doc = {"relative": {"cyclic": {"inner": [2, 1], "outer": [1, 2], "ell": 1}}}
    code = main(["properness", "--inner", "2", "1", "--outer", "1", "2", "--ell", "1"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)["payload"]
    assert payload["proper"] is False
    assert payload["witness"] is not None


def test_homology_cli_main(capsys, tmp_path):
    code = main(
        ["homology", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1",
         "--cache-dir", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["betti"] == {"2": 1, "3": 1}
    assert len(list(tmp_path.iterdir())) == 1  # one cache entry per job


def test_maslov_job_rotation():
    doc = {"maslov": {"family": {"kind": "rotation", "k": 2, "n": 1}, "tau": 1.0, "b": 0.999}}
    env = run(JobSpec("maslov", doc))
    assert env.payload["twice_value"] == 6  # 2k - 1/2 - 1/2 short of the loop


# (kernel_dimension, signature, endpoint, time) of each crossing, as the
# RK4 integrator reported them before constant families took the closed form
MASLOV_ENVELOPES = [
    (
        {"family": {"kind": "rotation", "k": 2, "n": 1}, "tau": 1.0, "b": 0.999},
        6,
        [(2, 2, True, 0.0), (2, 2, False, 0.5000000000001233)],
    ),
    (
        {"family": {"kind": "constant", "matrix": [[3.0, 0.5], [0.5, 4.0]]}, "tau": 7.0},
        14,
        [(2, 2, True, 0.0), (2, 2, False, 1.8329935428230169),
         (2, 2, False, 3.6659870856460035), (2, 2, False, 5.498980628468778)],
    ),
]


@pytest.mark.parametrize(
    "maslov, twice, crossings", MASLOV_ENVELOPES, ids=["rotation", "constant"]
)
def test_maslov_envelope_pinned(maslov, twice, crossings):
    payload = run(JobSpec("maslov", {"maslov": maslov})).payload
    assert payload["twice_value"] == twice
    assert payload["value"] == twice / 2
    assert payload["drift"] < DRIFT_BOUND
    got = payload["crossings"]
    assert [(c["kernel_dimension"], c["signature"], c["endpoint"]) for c in got] == [
        c[:3] for c in crossings
    ]
    assert all(abs(c["time"] - ref[3]) < 1e-9 for c, ref in zip(got, crossings))


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, 2.0], [0.0, 1.0]], "error: K(t) is not symmetric"),
        ([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]], "error: K(t) must be 2x2"),
        ([1.0, 2.0], "error: constant family field 'matrix' must be a list of rows of numbers"),
    ],
    ids=["nonsymmetric", "nonsquare", "vector"],
)
def test_maslov_malformed_constant_matrix(capsys, monkeypatch, matrix, message):
    doc = {"maslov": {"family": {"kind": "constant", "matrix": matrix}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["maslov", "--input", "-"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "family, message",
    [
        ({"kind": "table", "times": [0, 1],
          "matrices": [[[math.nan, 0], [0, 1]], [[1, 0], [0, 1]]]},
         "error: matrices[0][0, 0] is nan, not a finite number"),
        ({"kind": "constant", "matrix": [[1.0, 0.0], [0.0, math.nan]]},
         "error: matrix[1, 1] is nan, not a finite number"),
    ],
    ids=["table", "constant"],
)
def test_maslov_nan_family_refused(capsys, monkeypatch, family, message):
    # NaN fails no tolerance test, so it is refused when the family is built
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"maslov": {"family": family}})))
    code = main(["maslov", "--input", "-"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_maslov_degenerate_exit_code(capsys):
    code = main(["maslov", "--input", "-"]) if False else None
    # endpoint degeneracy: closed rotation loop
    import io
    import sys

    doc = {"maslov": {"family": {"kind": "rotation", "k": 1, "n": 1}, "tau": 1.0}}
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        code = main(["maslov", "--input", "-"])
    finally:
        sys.stdin = stdin
    assert code == 3


def test_forcing_job():
    doc = {
        "relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}},
        "period_cap": 5,
    }
    env = run(JobSpec("forcing", doc))
    assert env.payload["generic_lower_bound"] == 2
    assert {"ell": 1, "period": 1} in env.payload["forced_orbits"]


def test_flow_job():
    doc = {
        "relative": {"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}},
        "flow": {"horizon": 2.0},
    }
    env = run(JobSpec("flow", doc))
    trace = env.payload["trace"]
    values = [c for _, c in trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert len(env.payload["stationary"]) >= 2
    assert json.loads(env.to_json())["payload"] == env.payload  # plain JSON values


def test_unknown_command_rejected():
    with pytest.raises(BraidInputError):
        JobSpec("frobnicate", {})


def test_usage_error_exit_code(capsys):
    code = main(["homology", "--period", "abc"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: argument --period: invalid int value: 'abc'"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["normalform", "--text", "n=3; s1", "--output"],
        ["flow", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1", "--trace-csv"],
    ],
)
def test_unwritable_output_exit_code(capsys, tmp_path, argv):
    code = main(argv + [str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("mark", [3, "a", -1])
def test_free_mark_outside_the_strands_exit_code(capsys, monkeypatch, mark):
    doc = {"relative": {"word": {"text": "n=3; s1 s2 s2 s1", "free": [mark]}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["homology", "--input", "-"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [f"error: free mark {mark!r} is not a strand index in 0..2"]


def test_word_class_refused_at_the_cell_cap(capsys, monkeypatch):
    # the period-d homology coreduces 909,792 cells before the d+1 pair passes
    # the cap; its first round frees under 1/64 of them and later rounds ramp up
    doc = {"relative": {"word": {"text": "n=3; s2' s1 s2' s2 s1 s2", "free": [1]}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["homology", "--input", "-"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: index pair exceeds 1500000 cells; the class is beyond this build's desk scale"
    ]


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """A fresh `import braidfloer.cli` loads scipy.sparse, but not the scipy
    modules that only the flow fit (interpolate, and through it optimize and
    special) or the Maslov paths (linalg) once needed."""
    heavy = ["scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.linalg"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys, braidfloer.cli; print([m for m in {heavy!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# a symmetric table whose last sample is not: every K(t) is checked, so RK4
# meets the asymmetric half at once instead of halving its step 22 times
TABLE_ASYMMETRIC_LAST = {"kind": "table", "times": [0, 0.5, 1],
                         "matrices": [[[1, 0], [0, 0.4]], [[1, 0], [0, 0.4]], [[1, 0.3], [0, 0.4]]]}
TABLE_RAGGED = {"kind": "table", "times": [0, 0.5, 1],
                "matrices": [[[1, 0], [0, 0.4]], [[1, 0], [0, 0.4]], [[1, 0, 0], [0, 0.4, 0]]]}


@pytest.mark.parametrize(
    "family, message",
    [
        (TABLE_ASYMMETRIC_LAST, "error: K(t) is not symmetric"),
        (TABLE_RAGGED, "error: matrices[2] has shape (2, 3), matrices[0] has shape (2, 2)"),
    ],
    ids=["asymmetric-last-sample", "ragged"],
)
def test_maslov_malformed_table_refused_quickly(capsys, monkeypatch, family, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"maslov": {"family": family}})))
    start = time.perf_counter()
    code = main(["maslov", "--input", "-"])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_maslov_annulus_family(capsys, monkeypatch):
    doc = {"maslov": {"family": {"kind": "annulus", "eps": 0.1}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["maslov", "--input", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["morse_index"] for c in payload["critical_points"]] == [1, 0]
    assert payload["cz_indices"] == [0, 1]


def test_maslov_annulus_without_eps_is_degenerate(capsys, monkeypatch):
    doc = {"maslov": {"family": {"kind": "annulus", "eps": 0}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["maslov", "--input", "-"]) == 3
    assert capsys.readouterr().err.startswith("degenerate input: ")


def test_flow_trace_csv(capsys, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["flow", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1",
                 "--trace-csv", str(out)])
    assert code == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    rows = out.read_text().splitlines()
    assert rows == ["s,crossings"] + [f"{s},{c}" for s, c in trace]


def test_forcing_honours_the_period_options(capsys, monkeypatch):
    periods = []
    homology_at = pipeline._homology_at

    def counted(rb):
        periods.append(rb.period)
        return homology_at(rb)

    monkeypatch.setattr(pipeline, "_homology_at", counted)
    code = main(["forcing", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1",
                 "--period", "5", "--no-period-check"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["generic_lower_bound"] == 2
    assert periods == [5]


@pytest.mark.parametrize("period", [5, 6])
@pytest.mark.parametrize(
    "relative, betti",
    [
        ({"cyclic": {"inner": [1, 2], "outer": [2, 1], "ell": 1}}, {"2": 1, "3": 1}),
        ({"word": {"text": "n=3; s2 s1 s2", "free": [1]}}, {"1": 1}),
    ],
    ids=["cyclic", "word"],
)
def test_homology_at_a_chosen_period(capsys, monkeypatch, relative, betti, period):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"relative": relative})))
    assert main(["homology", "--input", "-", "--period", str(period)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["betti"], payload["period"]) == (betti, period)
