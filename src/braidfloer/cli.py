"""Command-line interface, braid-text parsing, and result envelopes.

Commands: homology, normalform, maslov, flow, properness, forcing.  Inputs
come as a JSON document (file or inline flags); outputs are deterministic
JSON envelopes.  Exit codes: 0 success, 2 improper class, 3 degeneracy
errors, 4 a failed built-in check, 1 anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import pipeline
from .complex import enumerate_component
from .errors import (
    AmbiguousDiagramError,
    BraidInputError,
    DegenerateCrossingError,
    ImproperClassError,
    MonotonicityViolationError,
    StabilizationError,
    StationaryDegenerateError,
)
from .flow import evolve, find_stationary, fitted_recurrence
from .garside import factor_letters, left_normal_form, pad_normal_form
from .maslov import (
    annulus_hamiltonian,
    constant_family,
    integrate_path,
    permuted_cz_index,
    rotation_family,
    sampled_family,
)
from .words import BraidWord, StrandPermutation, exponent_sum

CACHE_ENV = "BRAIDFLOER_CACHE_DIR"
COMMANDS = ("homology", "normalform", "maslov", "flow", "properness", "forcing")

_TOKEN = re.compile(r"^s(\d+)(')?$")


def parse_braid_text(text: str) -> BraidWord:
    """Parse `n=<strands>; s1 s2' ...`; a trailing apostrophe inverts."""
    head, _, body = text.partition(";")
    head = head.strip()
    if not head.startswith("n="):
        raise BraidInputError(f"missing strand header in {text!r}")
    try:
        strands = int(head[2:])
    except ValueError:
        raise BraidInputError(f"bad strand count in {head!r}") from None
    letters = []
    for pos, tok in enumerate(body.split()):
        m = _TOKEN.match(tok)
        if not m:
            raise BraidInputError(f"unknown token {tok!r} at position {pos}")
        idx = int(m.group(1))
        if not 1 <= idx <= strands - 1:
            raise BraidInputError(f"generator index {idx} out of range at position {pos}")
        letters.append((idx, -1 if m.group(2) else 1))
    return BraidWord(strands, tuple(letters))


def format_braid_text(w: BraidWord) -> str:
    toks = [f"s{i}" + ("'" if s < 0 else "") for i, s in w.letters]
    return f"n={w.strands};" + (" " + " ".join(toks) if toks else "")


@dataclass(frozen=True)
class JobSpec:
    command: str
    document: dict
    period: int | None = None
    cache_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise BraidInputError(f"unknown command {self.command!r}")


@dataclass
class ResultEnvelope:
    job: str
    version: str
    provenance: list[str]
    payload: dict
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _job_hash(job: JobSpec) -> str:
    doc = {
        "command": job.command,
        "document": job.document,
        "period": job.period,
        "seed": job.seed,
        "version": pipeline.TOOL_VERSION,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


_REQUIRED = object()


def _field(block, key: str, where: str, valid=None, expected: str = "", convert=None,
           default=_REQUIRED):
    """block[key], refusing with a message that names the field.

    The block must be a JSON object.  An absent field gives `default`, and is
    refused when there is none.  The value must pass `valid`, when given, and
    is returned through `convert`, when given; `expected` describes a value
    that passes both.
    """
    if not isinstance(block, dict):
        raise BraidInputError(f"{where} must be a JSON object")
    if key not in block:
        if default is _REQUIRED:
            raise BraidInputError(f"{where} has no {key!r} field")
        return default
    value = block[key]
    try:
        if valid is not None and not valid(value):
            raise ValueError
        return value if convert is None else convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise BraidInputError(f"{where} field {key!r} must be {expected}") from None


def _finite_float(value) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise ValueError
    return x


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError  # int() would truncate it
    return int(value)


def _radius(value) -> Fraction:
    r = Fraction(str(value))
    if not 0 < r < 1:
        raise ValueError
    return r


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)


def _relative_spec(doc: dict) -> pipeline.RelativeBraidSpec:
    if not isinstance(doc, dict):
        raise BraidInputError("input document must be a JSON object")
    rel = doc.get("relative", doc)
    if not isinstance(rel, dict):
        raise BraidInputError("'relative' must be a JSON object")
    if "cyclic" in rel:
        c = rel["cyclic"]
        inner, outer = (
            tuple(_field(c, key, "cyclic block", _is_pair, "a pair of integers [n, m]"))
            for key in ("inner", "outer")
        )
        ell = _field(c, "ell", "cyclic block", expected="an integer", convert=_integer)
        kwargs = {
            key: _field(c, key, "cyclic block", lambda v: isinstance(v, list) and len(v) == 3,
                        f"a list of three {what}", lambda vs: tuple(map(convert, vs)))
            for key, what, convert in (("radii", "fractions strictly between 0 and 1", _radius),
                                       ("phases", "finite numbers", _finite_float))
            if key in c
        }
        return pipeline.cyclic_spec(inner, outer, ell, label=c.get("label", ""), **kwargs)
    if "word" in rel:
        w = rel["word"]
        text = _field(w, "text", "word block", lambda v: isinstance(v, str), "a string")
        free = _field(
            w, "free", "word block", lambda v: isinstance(v, list), "a list of strand indices"
        )
        return pipeline.word_spec(parse_braid_text(text), free, label=w.get("label", ""))
    raise BraidInputError("relative braid document needs a 'cyclic' or 'word' block")


def _geometric_relative(doc: dict):
    """DiscreteRelativeBraid for the properness and flow commands."""
    rb, _, _ = pipeline.realize(_relative_spec(doc), None)
    return rb


def _maslov_payload(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise BraidInputError("input document must be a JSON object")
    m = doc.get("maslov", doc)
    if not isinstance(m, dict):
        raise BraidInputError("'maslov' must be a JSON object")
    fam_doc = m.get("family", {})
    if not isinstance(fam_doc, dict):
        raise BraidInputError("maslov block field 'family' must be a JSON object")
    kind = fam_doc.get("kind", "constant")
    tau = _field(m, "tau", "maslov block", expected="a finite number", convert=_finite_float,
                 default=1.0)
    if kind == "rotation":
        k, n = (_field(fam_doc, key, "rotation family", expected="an integer", convert=_integer,
                       default=1) for key in ("k", "n"))
        fam = rotation_family(k, n, tau)
    elif kind == "constant":
        fam = constant_family(_field(
            fam_doc, "matrix", "constant family",
            lambda v: v and isinstance(v, list) and all(isinstance(r, list) and r for r in v),
            "a list of rows of numbers", lambda v: np.asarray(v, dtype=float),
        ))
    elif kind == "table":
        matrices = _field(fam_doc, "matrices", "table family", lambda v: isinstance(v, list),
                          "a list of matrices")
        fam = sampled_family(_field(fam_doc, "times", "table family"), matrices)
    elif kind == "annulus":
        eps, delta = (_field(fam_doc, key, "annulus family", expected="a finite number",
                             convert=_finite_float, default=0.1) for key in ("eps", "delta"))
        model = annulus_hamiltonian(eps=eps, delta=delta, outward=bool(fam_doc.get("outward", True)))
        if model.degenerate:
            raise DegenerateCrossingError("annulus model has a degenerate circle of equilibria")
        return {
            "critical_points": [
                {
                    "action": c.action,
                    "angle": c.angle,
                    "hessian": c.hessian.tolist(),
                    "morse_index": c.morse_index,
                }
                for c in model.critical_points
            ],
            "cz_indices": model.cz_indices(tau),
        }
    else:
        raise BraidInputError(f"unknown family kind {kind!r}")
    sigma = _field(m, "sigma", "maslov block", lambda v: v is None or isinstance(v, list)
                   and len(v) in (0, fam.strands) and all(type(k) is int for k in v),
                   f"a list of strand indices of length {fam.strands}", default=None)
    perm = StrandPermutation(tuple(sigma)) if sigma else None
    path = integrate_path(fam, tau)
    b = _field(m, "b", "maslov block", expected="a finite number", convert=_finite_float,
               default=None)
    idx = permuted_cz_index(path, perm, b=b)
    return {
        "twice_value": idx.twice_value,
        "value": idx.twice_value / 2,
        "drift": path.drift,
        "crossings": [
            {
                "time": r.time,
                "kernel_dimension": r.kernel_dimension,
                "signature": r.signature,
                "endpoint": r.endpoint,
            }
            for r in idx.crossings
        ],
    }


def run(job: JobSpec) -> ResultEnvelope:
    """Dispatch a job; deterministic for identical inputs and versions."""
    cache_dir = job.cache_dir or os.environ.get(CACHE_ENV)
    job_key = _job_hash(job)
    if cache_dir:
        cached = Path(cache_dir) / f"job-{job_key}.json"
        if cached.exists():
            return ResultEnvelope(**json.loads(cached.read_text()))

    warnings: list[str] = []
    provenance: list[str] = []
    doc = job.document
    if job.command == "normalform":
        block = _field(doc, "braid", "normalform document", lambda v: isinstance(v, dict),
                       "a JSON object", default=doc)
        where = "braid block" if block is not doc else "normalform document"
        w = parse_braid_text(_field(block, "text", where, lambda v: isinstance(v, str), "a string"))
        nf = left_normal_form(w)
        pad = pad_normal_form(nf, exponent_sum(w))
        payload = {
            "input": format_braid_text(w),
            "strands": w.strands,
            "exponent_sum": exponent_sum(w),
            "infimum": nf.infimum,
            "canonical_length": len(nf.factors),
            "factors": [factor_letters(f) for f in nf.factors],
            "g": pad.g,
            "positive_word": format_braid_text(pad.positive_word),
        }
    elif job.command == "homology":
        spec = _relative_spec(doc)
        result = pipeline.braid_floer_homology(spec, period=job.period)
        payload = result.payload()
        provenance.append(result.betti.provenance)
        warnings.append(
            "degree identification with the Floer invariant is conjecture-mediated"
        )
    elif job.command == "properness":
        rb = _geometric_relative(doc)
        comp = enumerate_component(rb)
        payload = {
            "proper": comp.proper,
            "crossing_number": comp.crossing_number,
            "witness": comp.collapse_witness,
        }
    elif job.command == "forcing":
        spec = _relative_spec(doc)
        period_cap = _field(doc, "period_cap", "forcing document", expected="an integer",
                            convert=_integer, default=12)
        result = pipeline.braid_floer_homology(spec, period=job.period)
        payload = pipeline.forcing_report(spec, result=result, period_cap=period_cap)
        provenance.append("conjecture-shifted")
    elif job.command == "flow":
        rb = _geometric_relative(doc)
        fdoc = doc.get("flow", {})
        horizon = _field(fdoc, "horizon", "flow block", expected="a finite number",
                         convert=_finite_float, default=20.0)
        recurrence = fitted_recurrence(rb.skeleton)
        state = evolve(rb, recurrence, horizon=horizon)
        payload = {
            "trace": [[s, c] for s, c in state.trace],
            "converged": state.converged,
            "steps": state.steps_accepted,
        }
        if fdoc.get("stationary", True):
            sols, warns = find_stationary(
                rb, recurrence, rng=random.Random(job.seed)
            )
            warnings.extend(warns)
            payload["stationary"] = [
                {"values": [float(v) for v in u], "residual": r} for u, r in sols
            ]
    elif job.command == "maslov":
        payload = _maslov_payload(doc)
    else:  # pragma: no cover - guarded by JobSpec
        raise BraidInputError(job.command)

    env = ResultEnvelope(job_key, pipeline.TOOL_VERSION, provenance, payload, warnings)
    if cache_dir:
        path = Path(cache_dir)
        path.mkdir(parents=True, exist_ok=True)
        tmp = path / f".job-{job_key}.tmp"
        tmp.write_text(env.to_json())
        tmp.replace(path / f"job-{job_key}.json")
    return env


def _csv_trace(trace, stream) -> None:
    stream.write("s,crossings\n")
    for s, c in trace:
        stream.write(f"{s},{c}\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise, so `main` reports them like any other bad input."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="braidfloer",
        description="Braid Floer homology of relative braid classes on the disc.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="JSON input document (path or '-')")
    parser.add_argument("--text", help="braid text for normalform, e.g. \"n=3; s1 s2'\"")
    parser.add_argument("--inner", nargs=2, type=int, metavar=("N", "M"))
    parser.add_argument("--outer", nargs=2, type=int, metavar=("N", "M"))
    parser.add_argument("--ell", type=int)
    parser.add_argument("--period", type=int, default=None)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="print the full envelope")
    parser.add_argument("--output", help="write the envelope JSON to a file")
    parser.add_argument("--trace-csv", help="write the flow trace as CSV")

    try:
        args = parser.parse_args(argv)
        if args.input:
            raw = sys.stdin.read() if args.input == "-" else Path(args.input).read_text()
            document = json.loads(raw)
        else:
            document = {}
            if args.text:
                document["braid"] = {"text": args.text}
                document["text"] = args.text
            if args.inner and args.outer and args.ell is not None:
                document["relative"] = {
                    "cyclic": {"inner": args.inner, "outer": args.outer, "ell": args.ell}
                }
        job = JobSpec(args.command, document, args.period, args.cache_dir, args.seed)
        env = run(job)
        if env.payload.get("proper") is False:
            print(env.to_json())
            return 2
        out = env.to_json() if args.json else json.dumps(env.payload, sort_keys=True, indent=2)
        if args.output:
            Path(args.output).write_text(out + "\n")
        if args.trace_csv and "trace" in env.payload:
            with open(args.trace_csv, "w") as fh:
                _csv_trace(env.payload["trace"], fh)
    except ImproperClassError as exc:
        print(f"improper class: {exc}", file=sys.stderr)
        if exc.witness:
            print(json.dumps({"witness": exc.witness}, sort_keys=True), file=sys.stderr)
        return 2
    except (DegenerateCrossingError, StationaryDegenerateError, AmbiguousDiagramError) as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, StabilizationError, MonotonicityViolationError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(out)
    for w in env.warnings:
        print(f"note: {w}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
