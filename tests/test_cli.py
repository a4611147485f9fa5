import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from braidfloer import homology, pipeline
from braidfloer.cli import (
    JobSpec,
    format_braid_text,
    main,
    parse_braid_text,
    run,
)
from braidfloer.errors import BraidInputError, StabilizationError
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


def test_maslov_degenerate_exit_code(monkeypatch):
    # endpoint degeneracy: closed rotation loop
    doc = {"maslov": {"family": {"kind": "rotation", "k": 1, "n": 1}, "tau": 1.0}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["maslov", "--input", "-"]) == 3


def test_maslov_degenerate_start_reported_before_the_end(capsys, monkeypatch):
    # K = diag(1, 0) fixes (0, 1): the form at t = 0 is refused before t = tau is checked
    doc = {"maslov": {"family": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 0.0]]}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["maslov", "--input", "-"]) == 3
    assert capsys.readouterr().err.startswith(
        "degenerate input: degenerate crossing form at t=0.0")


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


FLOW_STATIONARY = [
    [-0.27719180227665496, -0.3312866441451341, -0.3535071093418824, 0.46423842251463254],
    [-0.3187156213458235, -0.07783043241660349, 0.1957405747666917, 0.36664725260674286],
    [-0.23947026002341606, 0.3521643288626378, -0.32511367456425416, -0.3382114621117337],
    [-0.26980990040964836, 0.24664498317872166, 0.09916869891371538, -0.1388745278346449],
    [-0.3813674884029859, 0.2054064480508131, 0.3291583840504356, 0.3509114819631646],
    [0.15807007859245276, -0.12768254541942237, -0.3807633593171294, 0.38739937855285467],
    [0.06864606137688857, 0.2771478246167077, -0.34227352530389343, -0.19306621140759891],
    [0.3259721715175009, 0.23030378653554023, -0.44652800503218115, 0.3661253004803864],
]


def test_flow_payload_pinned(capsys):
    # cyclic[1/2,1,2/1] at seed 0: the crossing trace as (crossings, entries)
    # runs, and the stationary braids in the order the search keeps them
    assert main(["flow", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1",
                 "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    runs = [(c, len(list(group))) for c, group in itertools.groupby(c for _, c in payload["trace"])]
    assert runs == [(17, 10), (15, 3), (13, 8), (11, 11), (9, 226)]
    assert (payload["steps"], payload["converged"]) == (257, True)
    got = [s["values"] for s in payload["stationary"]]
    assert len(got) == len(FLOW_STATIONARY)
    assert max(abs(a - b) for u, v in zip(got, FLOW_STATIONARY) for a, b in zip(u, v)) < 1e-9


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
    # one Garside factor per slot interval still needs period 7 here: its
    # pair has 178,972 cells, and the period-8 pair passes the cap
    doc = {"relative": {"word": {"text": "n=3; s2 s2 s2 s2 s1 s2' s1", "free": [1]}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["homology", "--input", "-"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: index pair exceeds 1500000 cells; the class is beyond this build's desk scale"
    ]


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """A fresh `import braidfloer.cli` loads scipy.sparse, but not the scipy
    modules that only the flow fit (interpolate, and through it optimize and
    special) or the Maslov paths (linalg) once needed; nor does a fresh
    process that runs a constant-family Maslov job."""
    heavy = ["scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.linalg"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    maslov = {"maslov": {"family": {"kind": "constant", "matrix": [[1.0, 0.0], [0.0, -0.4]]}}}
    for job in ("", f"cli.run(cli.JobSpec('maslov', {maslov!r})); "):
        code = (f"import sys, braidfloer.cli as cli; {job}"
                f"print([m for m in {heavy!r} if m in sys.modules])")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]", job


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
        ({"kind": "table", "times": [0, 1], "matrices": [1, 2]},
         "error: matrices[0] must be a square 2-D array of numbers"),
        ({"kind": "table", "times": [0, 1], "matrices": [[[1, 0], [0, 1]], [[1, 0], [0]]]},
         "error: matrices[1] must be a square 2-D array of numbers"),
        ({"kind": "table", "times": [0, 1], "matrices": [[[1, 0, 0], [0, 1, 0]]] * 2},
         "error: matrices[0] must be a square 2-D array of numbers"),
        ({"kind": "table", "times": [[0], [1]], "matrices": [[[1, 0], [0, 1]]] * 2},
         "error: times must be a list of numbers"),
        ({"kind": "table", "times": [0, 1], "matrices": 5},
         "error: table family field 'matrices' must be a list of matrices"),
    ],
    ids=["asymmetric-last-sample", "ragged", "scalar-samples", "ragged-sample", "nonsquare",
         "nested-times", "matrices-not-a-list"],
)
def test_maslov_malformed_table_refused_quickly(capsys, monkeypatch, family, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"maslov": {"family": family}})))
    start = time.perf_counter()
    code = main(["maslov", "--input", "-"])
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("times", [[0, 0, 1], [1, 0.5, 0]], ids=["repeated", "decreasing"])
def test_maslov_table_times_not_increasing(times):
    # a repeated time gives a 0/0 interpolation weight whose NaN passes every
    # tolerance test, so an unrefused table refines forever; the subprocess
    # timeout turns such a hang into a failure instead of a stalled suite
    doc = {"maslov": {"family": {"kind": "table", "times": times,
                                 "matrices": [[[1, 0], [0, 0.4]]] * 3}}}
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "braidfloer.cli", "maslov", "--input", "-"],
                         input=json.dumps(doc), env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr.splitlines() == ["error: times must be strictly increasing"]


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


def test_annulus_parity_check_survives_optimize():
    # under python -O a bare assert is stripped: an odd doubled index must
    # still be a failed built-in check, exit 4
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    doc = {"maslov": {"family": {"kind": "annulus", "eps": 0.1}}}
    code = ("import sys; from braidfloer import cli, maslov; "
            "maslov.permuted_cz_index = lambda *a, **k: maslov.MaslovIndex(1); "
            "sys.exit(cli.main(['maslov', '--input', '-']))")
    run = subprocess.run([sys.executable, "-O", "-c", code], input=json.dumps(doc),
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                         timeout=60)
    assert (run.returncode, run.stdout) == (4, "")
    assert run.stderr.splitlines() == [
        "internal check failed: half-integer index 0.5 at a critical point"]


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
                 "--period", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["generic_lower_bound"] == 2
    assert periods == [5, 6]


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


@pytest.mark.parametrize("error", [AssertionError, StabilizationError])
def test_failed_builtin_check_exit_code(capsys, monkeypatch, error):
    # a defect of the program is not a refusal of the input: exit 4, not 1
    def broken(bnd):
        raise error("boundary of boundary is nonzero")

    monkeypatch.setattr(homology, "_check_boundary_squared", broken)
    code = main(["homology", "--inner", "1", "2", "--outer", "2", "1", "--ell", "1"])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == [
        "internal check failed: boundary of boundary is nonzero"]


# the table document whose RK4 path took 27 s at tau = 5 and never answered at
# tau = 10; the tau = 10 crossings were checked with DOP853 and Brent's method
FOUND_TABLE = {"kind": "table", "times": [0, 1],
               "matrices": [[[1, 0], [0, 0.4]], [[0.5, 0], [0, 1]]]}


@pytest.mark.parametrize("tau, twice, times", [
    (5.0, 2, []), (7.0, 2, []), (10.0, 6, [8.437850686936107, 9.17648251325165])])
def test_maslov_table_with_a_knot_answers_quickly(tau, twice, times):
    start = time.perf_counter()
    payload = run(JobSpec("maslov", {"maslov": {"family": FOUND_TABLE, "tau": tau}})).payload
    assert time.perf_counter() - start < 1.0
    assert payload["twice_value"] == twice
    got = [c["time"] for c in payload["crossings"] if not c["endpoint"]]
    assert len(got) == len(times) and all(abs(t - r) < 1e-9 for t, r in zip(got, times))


def test_maslov_step_cap_refused_quickly(capsys, monkeypatch):
    doc = {"maslov": {"family": {"kind": "constant", "matrix": [[1.0, 0.2], [0.2, 0.7]]},
                      "tau": 1e6}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    code = main(["maslov", "--input", "-"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: tau = 1000000.0 needs more than 1048576 steps"]


def test_maslov_b_past_tau_refused(capsys, monkeypatch):
    doc = {"maslov": {"family": FOUND_TABLE, "tau": 2.0, "b": 2.5}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["maslov", "--input", "-"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: need 0 <= a < b <= tau = 2.0, got a=0.0, b=2.5"]
