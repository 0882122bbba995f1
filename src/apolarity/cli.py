"""Command-line front end.

Subcommands: hf, jordan, jdt, ann, classify, predict, verify, chain.  Input
is a dual generator (full Perazzo parameters or an explicit polynomial), an
ideal, and optionally a linear form; output is a versioned result record as
human-readable text, JSON, or TSV.  Exit codes: 0 success, 1 input error or
output pipe closed by the reader, 2 mathematical mismatch found by verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exactlinalg import FieldSpec, GF_DEFAULT
from .polyring import LinearForm, Polynomial, VariableSet
from .apolar import (
    annihilator_basis,
    hf_stats,
    model_from_dual,
    model_from_ideal,
)
from .jordan import Partition, dominance_compare, rank_profile
from .perazzo import (
    PerazzoParams,
    a_bounds,
    chain_partitions,
    classify_linear_form,
    full_perazzo_form,
    perazzo_dim,
    perazzo_hf,
    predicted_jordan,
    verify_full_perazzo,
)

RECORD_VERSION = "1"


class CliInputError(Exception):
    """Malformed input; rendered as a diagnostic naming the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


# ---------------------------------------------------------------------------
# input parsing


def parse_field(text: str) -> FieldSpec:
    text = text.strip().lower()
    if text in ("q", "qq", "rationals"):
        return FieldSpec.rationals()
    if text.startswith("gfp:"):
        try:
            p = int(text[4:])
        except ValueError:
            raise CliInputError(f"field: bad modulus in {text!r}")
        try:
            return FieldSpec.prime_field(p)
        except ValueError as e:
            raise CliInputError(f"field: {e}")
    raise CliInputError(f"field: expected 'gfp:P' or 'q', got {text!r}")


def parse_perazzo(text: str) -> PerazzoParams:
    vals = {}
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        try:
            key, val = chunk.split("=")
            vals[key.strip()] = int(val)
        except ValueError:
            raise CliInputError(f"perazzo: bad assignment {chunk!r}")
    if set(vals) != {"m", "d"}:
        raise CliInputError("perazzo: expected exactly m=<int>,d=<int>")
    try:
        return PerazzoParams(vals["m"], vals["d"])
    except ValueError as e:
        raise CliInputError(f"perazzo: {e}")


def _split_top_level(text: str, sep: str = ","):
    """Split on sep outside brackets, so a[2,0]=1,b1=2 keeps its keys whole."""
    chunks, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    chunks.append("".join(cur))
    return [c.strip() for c in chunks if c.strip()]


def _parse_scalar(text: str, field: FieldSpec):
    try:
        return field.normalize(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"bad scalar {text!r}")


def parse_linear_form_kv(text: str, field: FieldSpec) -> LinearForm:
    """Key-value syntax: a[2,0]=1,b1=-2 with fraction or integer values;
    '0' is the zero form, as ``str(LinearForm())`` writes it."""
    if text.strip() == "0":
        return LinearForm()
    a, b = {}, {}
    for chunk in _split_top_level(text):
        if "=" not in chunk:
            raise CliInputError(f"ell: bad assignment {chunk!r}")
        key, val = chunk.split("=", 1)
        key = key.strip()
        c = _parse_scalar(val, field)
        if key.startswith("a[") and key.endswith("]"):
            try:
                idx = tuple(int(x) for x in key[2:-1].split(","))
            except ValueError:
                raise CliInputError(f"ell: bad x-index {key!r}")
            a[idx] = c
        elif key.startswith("b"):
            try:
                b[int(key[1:])] = c
            except ValueError:
                raise CliInputError(f"ell: bad y-index {key!r}")
        else:
            raise CliInputError(f"ell: unknown coefficient key {key!r}")
    return LinearForm(a, b)


def _tokenize_poly(text: str):
    """Yield (sign, term-string) chunks of a +/- separated expression."""
    terms, cur, depth, sign = [], [], 0, 1
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and any(c.strip() for c in cur):
            terms.append((sign, "".join(cur)))
            cur = []
            sign = 1 if ch == "+" else -1
        elif ch in "+-" and depth == 0:
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur.append(ch)
    if any(c.strip() for c in cur):
        terms.append((sign, "".join(cur)))
    return terms


def _parse_term(term: str):
    """Split into (coefficient string or None, [(name, exponent), ...])."""
    coeff = None
    factors = []
    for fac in _split_top_level(term, "*"):
        if "^" in fac:
            base, _, exp = fac.rpartition("^")
            try:
                exp = int(exp)
            except ValueError:
                raise CliInputError(f"bad exponent in {fac!r}")
        else:
            base, exp = fac, 1
        base = base.strip()
        if not base:
            raise CliInputError(f"empty factor in term {term!r}")
        if base[0].isdigit() or base[0] in "+-" or "/" in base:
            if coeff is not None:
                raise CliInputError(f"two coefficients in term {term!r}")
            if exp != 1:
                raise CliInputError(f"exponent on a plain coefficient in {term!r}")
            coeff = base
        else:
            factors.append((base, exp))
    return coeff, factors


def parse_polynomial(text: str, field: FieldSpec, varset: VariableSet | None = None,
                     side: str = "r") -> Polynomial:
    """Parse e.g. 'X[2,0]*Y1^2 + 3*Y2^2' or 'x^3 - 2*x*y^2'.

    Variable names are case-insensitive; with no variable set given, a
    generic one is built from the names present (sorted)."""
    parsed = []
    names = set()
    for sign, term in _tokenize_poly(text):
        coeff, factors = _parse_term(term)
        parsed.append((sign, coeff, factors))
        names.update(name.lower() for name, _ in factors)
    if varset is None:
        if not names:
            raise CliInputError(f"no variables found in {text!r}")
        varset = VariableSet.generic(sorted(names))
    pos = {n.lower(): i for i, n in enumerate(varset.names)}
    poly = Polynomial.zero(varset, side, field)
    for sign, coeff, factors in parsed:
        c = field.normalize(Fraction(sign)) if coeff is None else _parse_scalar(coeff, field)
        if sign < 0 and coeff is not None:
            c = field.neg(c)
        mono = [0] * varset.nvars
        for name, exp in factors:
            key = name.lower()
            if key not in pos:
                raise CliInputError(f"unknown variable {name!r}")
            mono[pos[key]] += exp
        poly = poly + Polynomial.monomial(varset, side, field, tuple(mono), c)
    return poly


def parse_partition(text: str) -> Partition:
    try:
        return Partition(int(x) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError as e:
        raise CliInputError(f"partition: {e}")


# ---------------------------------------------------------------------------
# serialization


def _scalar_str(v) -> str:
    return str(v)


def _linear_form_dict(lf: LinearForm) -> dict:
    return {
        "a": {"[" + ",".join(map(str, u)) + "]": _scalar_str(c) for u, c in sorted(lf.a.items(), reverse=True)},
        "b": {str(j): _scalar_str(c) for j, c in sorted(lf.b.items())},
    }


def _partition_dict(p: Partition) -> dict:
    return {"parts": list(p.parts), "exponents": p.exponent_str()}


def _jdt_dict(jdt) -> dict:
    pairs = sorted(jdt.entries.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    return {
        "pairs": [[p, nu, mult] for (p, nu), mult in pairs],
        "notation": str(jdt),
    }


def _hv_dict(h, codim=None) -> dict:
    stats = hf_stats(h, codim)
    out = {
        "entries": list(h.entries),
        "sperner": stats.sperner,
        "unimodal": stats.unimodal,
        "symmetric": stats.symmetric,
    }
    if stats.compressed is not None:
        out["compressed"] = stats.compressed
    return out


def _flatten_record(record):
    out = []

    def rec(obj, path):
        if isinstance(obj, dict):
            for k in sorted(obj):
                rec(obj[k], path + [str(k)])
        elif isinstance(obj, (list, tuple)):
            out.append((".".join(path), json.dumps(obj, sort_keys=True)))
        else:
            out.append((".".join(path), obj))

    rec(record, [])
    return out


def render_record(record: dict, out_format: str | None) -> str:
    if out_format == "json":
        return json.dumps(record, sort_keys=True, separators=(",", ":"))
    flat = _flatten_record(record)
    if out_format == "tsv":
        return "\n".join(f"{k}\t{v}" for k, v in flat)
    width = max((len(k) for k, _ in flat), default=0)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in flat)


# ---------------------------------------------------------------------------
# job assembly


def _load_spec_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliInputError(f"spec: cannot read {path!r}: {e}")
    except json.JSONDecodeError as e:
        raise CliInputError(f"spec: invalid JSON in {path!r}: {e}")
    if not isinstance(doc, dict):
        raise CliInputError("spec: top level must be an object")
    return doc


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _spec_value(key, val, kind):
    """A spec file value, checked to be a JSON string or integer."""
    if not (_is_int(val) if kind is int else isinstance(val, kind)):
        expected = "an integer" if kind is int else "a string"
        raise CliInputError(f"{key}: expected {expected} in the spec, got {json.dumps(val)}")
    return val


def _merge_spec(args):
    """Apply --spec file values wherever the flag was not given."""
    if not args.spec:
        return
    doc = _load_spec_file(args.spec)
    str_keys = ("field", "perazzo", "dual_generator", "ideal", "ell", "mode",
                "partition", "record")
    int_keys = ("bound", "degree", "samples", "seed")
    for key in str_keys + int_keys:
        if doc.get(key) is not None and getattr(args, key, None) in (None, False):
            val = doc[key]
            if key == "perazzo" and isinstance(val, dict):
                val = f"m={val.get('m')},d={val.get('d')}"
            if key == "ideal":
                if isinstance(val, dict):
                    if "bound" in val and getattr(args, "bound", None) is None:
                        args.bound = _spec_value("bound", val["bound"], int)
                    val = val.get("gens", "")
                if isinstance(val, list):
                    val = ", ".join(_spec_value(key, g, str) for g in val)
            setattr(args, key, _spec_value(key, val, int if key in int_keys else str))


def _resolve_source(args, field):
    """Build (model, varset, perazzo_params_or_None, source_echo)."""
    sources = [s for s in ("perazzo", "dual_generator", "ideal") if getattr(args, s, None)]
    if len(sources) != 1:
        raise CliInputError(
            "source: give exactly one of --perazzo, --dual-generator, --ideal"
        )
    if args.perazzo:
        params = parse_perazzo(args.perazzo)
        big_f = full_perazzo_form(params, field)
        model = model_from_dual(big_f)
        echo = {"perazzo": {"m": params.m, "d": params.d}}
        return model, model.varset, params, echo
    if args.dual_generator:
        big_f = parse_polynomial(args.dual_generator, field, side="s")
        try:
            model = model_from_dual(big_f)
        except ValueError as e:
            raise CliInputError(f"dual-generator: {e}")
        return model, model.varset, None, {"dual_generator": str(big_f)}
    gens_text = _split_top_level(args.ideal)
    if not gens_text:
        raise CliInputError("ideal: no generators given")
    probe = parse_polynomial(" + ".join(gens_text), field, side="r")
    varset = probe.varset
    gens = [parse_polynomial(g, field, varset=varset, side="r") for g in gens_text]
    bound = args.bound
    if bound is None:
        top = max(g.homogeneous_degree() for g in gens if not g.is_zero())
        bound = top * len(varset.names) + 1  # crude but safe Artinian horizon
    try:
        model = model_from_ideal(gens, bound)
    except ValueError as e:
        raise CliInputError(f"ideal: {e}")
    echo = {"ideal": {"gens": [str(g) for g in gens], "bound": bound}}
    return model, varset, None, echo


def _resolve_ell(args, field, varset, params):
    if not getattr(args, "ell", None):
        raise CliInputError("ell: this command needs --ell")
    text = args.ell.strip()
    if "=" in text:
        if params is None and varset.mode != VariableSet.PERAZZO:
            raise CliInputError("ell: key-value syntax needs a full Perazzo source")
        return parse_linear_form_kv(text, field)
    poly = parse_polynomial(text, field, varset=varset, side="r")
    if poly.is_zero() or poly.homogeneous_degree() != 1:
        raise CliInputError("ell: expected a nonzero linear form")
    return poly


def _ell_echo(ell):
    if isinstance(ell, LinearForm):
        return _linear_form_dict(ell)
    return str(ell)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hf(args, field):
    model, varset, params, echo = _resolve_source(args, field)
    payload = {"h_vector": _hv_dict(model.hvector, codim=varset.nvars)}
    payload["dimension"] = model.dim()
    if params is not None:
        closed = perazzo_hf(params)
        payload["closed_form"] = {
            "entries": list(closed.entries),
            "dimension": perazzo_dim(params),
            "matches": closed == model.hvector and perazzo_dim(params) == model.dim(),
        }
    return 0, echo, payload


def _cmd_jordan(args, field, with_jdt):
    model, varset, params, echo = _resolve_source(args, field)
    ell = _resolve_ell(args, field, varset, params)
    echo = dict(echo)
    echo["ell"] = _ell_echo(ell)
    profile = rank_profile(model, ell)
    payload = {"jordan": {"partition": _partition_dict(profile.jordan_type())}}
    if with_jdt:
        payload["jordan"]["degree_type"] = _jdt_dict(profile.jordan_degree_type())
    return 0, echo, payload


def _cmd_ann(args, field):
    model, varset, params, echo = _resolve_source(args, field)
    if args.degree is None:
        raise CliInputError("ann: needs --degree")
    if model.source != "dual":
        raise CliInputError("ann: annihilator bases need a dual-generator source")
    try:
        basis = annihilator_basis(model.dual_generator, args.degree)
    except ValueError as e:
        raise CliInputError(f"ann: {e}")
    payload = {
        "annihilator": {
            "degree": basis.degree,
            "count": len(basis.generators),
            "generators": [str(g) for g in basis.generators],
        }
    }
    return 0, echo, payload


def _require_params(args):
    if not args.perazzo:
        raise CliInputError("this command needs --perazzo m=..,d=..")
    return parse_perazzo(args.perazzo)


def _cmd_classify(args, field):
    params = _require_params(args)
    ell = _resolve_ell(args, field, params.varset(), params)
    case = classify_linear_form(ell, params)
    echo = {"perazzo": {"m": params.m, "d": params.d}, "ell": _ell_echo(ell)}
    payload = {
        "classification": {
            "case": case.tag,
            "witness_k": case.witness_k,
            "literal_match": case.literal_match,
        }
    }
    return 0, echo, payload


def _cmd_predict(args, field):
    params = _require_params(args)
    ell = _resolve_ell(args, field, params.varset(), params)
    case = classify_linear_form(ell, params)
    pred = predicted_jordan(case, params, ell, field)
    echo = {"perazzo": {"m": params.m, "d": params.d}, "ell": _ell_echo(ell)}
    payload = {
        "classification": {
            "case": case.tag,
            "witness_k": case.witness_k,
            "literal_match": case.literal_match,
        },
        "prediction": {"partition": _partition_dict(pred.partition)},
    }
    if pred.jdt is not None:
        payload["prediction"]["degree_type"] = _jdt_dict(pred.jdt)
    if pred.a is not None:
        payload["prediction"]["two_string_count"] = pred.a
    return 0, echo, payload


def _cmd_verify(args, field):
    params = _require_params(args)
    mode = args.mode or "sample"
    samples = args.samples if args.samples is not None else 100
    seed = args.seed if args.seed is not None else 0
    try:
        report = verify_full_perazzo(params, field, sample_count=samples, seed=seed, mode=mode)
    except ValueError as e:
        raise CliInputError(f"verify: {e}")
    echo = {
        "perazzo": {"m": params.m, "d": params.d},
        "mode": mode,
        "samples": samples if mode == "sample" else None,
        "seed": seed if mode == "sample" else None,
    }
    mismatched = [
        {
            "index": s.index,
            "bucket": s.bucket,
            "ell": _linear_form_dict(s.ell),
            "case": s.case_tag,
            "predicted": s.predicted.partition.exponent_str(),
            "computed": s.computed_type.exponent_str(),
        }
        for s in report.samples
        if s.match is False
    ]
    payload = {"report": dict(report.summary)}
    payload["report"]["mismatches"] = mismatched
    code = 2 if report.mismatch_count else 0
    return code, echo, payload


def _cmd_chain(args, field):
    params = _require_params(args)
    endpoints = chain_partitions(params)
    a_min, a_max = a_bounds(params)
    dim = perazzo_dim(params)
    payload = {
        "chain": {
            "a_min": a_min,
            "a_max": a_max,
            "dimension": dim,
            "bottom": _partition_dict(endpoints["bottom"]),
            "top_two_string": _partition_dict(endpoints["top_two_string"]),
            "case_i": _partition_dict(endpoints["case_i"]),
            "case_ii": _partition_dict(endpoints["case_ii"]),
        }
    }
    echo = {"perazzo": {"m": params.m, "d": params.d}}
    ptn = None
    if getattr(args, "record", None):
        doc = _load_spec_file(args.record)
        parts = None
        for section in ("jordan", "prediction"):
            node = doc
            for key in ("payload", section, "partition", "parts"):
                node = node.get(key) if isinstance(node, dict) else None
            parts = parts or node
        if not isinstance(parts, list) or not all(map(_is_int, parts)):
            raise CliInputError("record: no partition found in the result record")
        ptn = Partition(parts)
        echo["record"] = args.record
    elif getattr(args, "partition", None):
        ptn = parse_partition(args.partition)
    if ptn is not None:
        echo["partition"] = list(ptn.parts)
        if ptn.total() != dim:
            raise CliInputError(
                f"partition: sums to {ptn.total()}, expected the dimension {dim}"
            )
        member = ptn in (endpoints["case_i"], endpoints["case_ii"])
        if not member and all(p <= 2 for p in ptn.parts):
            a = sum(1 for p in ptn.parts if p == 2)
            member = a_min <= a <= a_max
        payload["membership"] = {
            "member": member,
            "vs_case_ii": dominance_compare(ptn, endpoints["case_ii"]),
            "vs_case_i": dominance_compare(ptn, endpoints["case_i"]),
            "vs_bottom": dominance_compare(ptn, endpoints["bottom"]),
        }
    return 0, echo, payload


# ---------------------------------------------------------------------------
# driver


def build_parser() -> _Parser:
    parser = _Parser(prog="apolarity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("hf", "Hilbert function and its statistics"),
        ("jordan", "Jordan type of a linear form"),
        ("jdt", "Jordan degree type of a linear form"),
        ("ann", "annihilator basis in one degree"),
        ("classify", "case classification of a linear form"),
        ("predict", "closed-form Jordan prediction for a linear form"),
        ("verify", "prediction-vs-computation verification report"),
        ("chain", "dominance chain endpoints and membership"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", default=None, help="gfp:P or q (default gfp:32003)")
        p.add_argument("--out", choices=["json", "tsv"], default=None)
        p.add_argument("--spec", default=None, help="JSON file with job fields")
        p.add_argument("--perazzo", default=None, help="m=<int>,d=<int>")
        if name in ("hf", "jordan", "jdt", "ann"):
            p.add_argument("--dual-generator", dest="dual_generator", default=None)
            p.add_argument("--ideal", default=None, help="comma-separated generators")
            p.add_argument("--bound", type=int, default=None)
        if name in ("jordan", "jdt", "classify", "predict"):
            p.add_argument("--ell", default=None)
        if name == "ann":
            p.add_argument("--degree", type=int, default=None)
        if name == "verify":
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--mode", choices=["sample", "enumerate"], default=None)
        if name == "chain":
            p.add_argument("--partition", default=None)
            p.add_argument("--record", default=None)
    return parser


def run_command(argv):
    """Parse and execute; returns (exit_code, result_record, out_format)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_spec(args)
    field = parse_field(args.field) if args.field else GF_DEFAULT
    handlers = {
        "hf": lambda: _cmd_hf(args, field),
        "jordan": lambda: _cmd_jordan(args, field, with_jdt=False),
        "jdt": lambda: _cmd_jordan(args, field, with_jdt=True),
        "ann": lambda: _cmd_ann(args, field),
        "classify": lambda: _cmd_classify(args, field),
        "predict": lambda: _cmd_predict(args, field),
        "verify": lambda: _cmd_verify(args, field),
        "chain": lambda: _cmd_chain(args, field),
    }
    try:
        code, echo, payload = handlers[args.command]()
    except ValueError as e:
        # the library signals contract violations (bad degrees, zero forms,
        # characteristic trouble) with ValueError: report as input errors
        raise CliInputError(str(e))
    record = {
        "version": RECORD_VERSION,
        "job": {"command": args.command, "field": repr(field), **echo},
        "payload": payload,
    }
    return code, record, args.out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, record, out = run_command(argv)
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        print(render_record(record, out))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (e.g. `| head`); point stdout at devnull so
        # the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
