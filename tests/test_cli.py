import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import apolarity
from apolarity.cli import (
    CliInputError,
    main,
    parse_linear_form_kv,
    parse_polynomial,
    render_record,
    run_command,
)
from apolarity.exactlinalg import FieldSpec
from apolarity.perazzo import PerazzoParams
from apolarity.polyring import LinearForm, Polynomial, VariableSet


def run(argv):
    return run_command(argv)


def test_jordan_command_golden():
    code, record, _ = run(["jordan", "--perazzo", "m=2,d=3", "--ell", "b1=1"])
    assert code == 0
    p = record["payload"]["jordan"]["partition"]
    assert p["parts"] == [3, 3, 2, 2, 1, 1]
    assert p["exponents"] == "(3^2,2^2,1^2)"
    assert record["job"]["perazzo"] == {"m": 2, "d": 3}
    assert record["version"] == "1"


def test_jdt_command_golden():
    code, record, _ = run(
        ["jdt", "--perazzo", "m=2,d=3", "--ell", "a[2,0]=1,b1=1"]
    )
    assert code == 0
    jd = record["payload"]["jordan"]["degree_type"]
    assert jd["notation"] == "4_0,2_1^3,1_1,1_2"
    assert jd["pairs"] == [[4, 0, 1], [2, 1, 3], [1, 1, 1], [1, 2, 1]]


def test_hf_command_golden():
    code, record, _ = run(["hf", "--perazzo", "m=3,d=4"])
    assert code == 0
    hv = record["payload"]["h_vector"]
    assert hv["entries"] == [1, 13, 12, 13, 1]
    assert hv["unimodal"] is False and hv["symmetric"] is True
    assert record["payload"]["closed_form"]["matches"] is True
    assert record["payload"]["dimension"] == 40


def test_hf_explicit_dual_generator():
    code, record, _ = run(["hf", "--dual-generator", "Y1^4 + Y2^4"])
    assert code == 0
    assert record["payload"]["h_vector"]["entries"] == [1, 2, 2, 2, 1]


def test_jordan_ideal_source():
    code, record, _ = run(
        ["jordan", "--ideal", "x^3, x*y^2, y^3", "--bound", "4", "--ell", "x+y"]
    )
    assert code == 0
    assert record["payload"]["jordan"]["partition"]["parts"] == [4, 2, 1]


def test_ann_command():
    code, record, _ = run(["ann", "--perazzo", "m=2,d=3", "--degree", "2"])
    assert code == 0
    ann = record["payload"]["annihilator"]
    assert ann["count"] == 10 and len(ann["generators"]) == 10


def test_classify_and_predict():
    code, record, _ = run(
        ["classify", "--perazzo", "m=2,d=3", "--ell", "a[1,1]=1,b1=1,b2=1"]
    )
    assert code == 0
    cls = record["payload"]["classification"]
    assert cls["case"] == "CASE_I" and cls["literal_match"] is False

    code, record, _ = run(
        ["predict", "--perazzo", "m=2,d=3", "--ell", "a[2,0]=1,a[0,2]=1"]
    )
    assert code == 0
    assert record["payload"]["classification"]["case"] == "CASE_III"
    pred = record["payload"]["prediction"]
    assert pred["partition"]["exponents"] == "(2^4,1^4)"
    assert pred["two_string_count"] == 4


def test_verify_enumerate_gf7():
    # the full census shows the four chain types; the matched-pair closed
    # form fails exactly on its degeneration locus, so the harness reports
    # those 288 forms as mismatches and signals exit code 2
    code, record, _ = run(
        ["verify", "--perazzo", "m=2,d=3", "--field", "gfp:7", "--mode", "enumerate"]
    )
    rep = record["payload"]["report"]
    assert rep["distinct_types"] == [
        "(2^3,1^6)",
        "(2^4,1^4)",
        "(3^2,2^2,1^2)",
        "(4,2^3,1^2)",
    ]
    assert rep["max_is_case_ii_prediction"] is True
    assert rep["mismatch_count"] == 288
    assert code == 2
    assert all(m["case"] == "CASE_II" for m in rep["mismatches"])


def test_verify_sampled_exit_zero():
    code, record, _ = run(
        ["verify", "--perazzo", "m=2,d=3", "--samples", "20", "--seed", "1"]
    )
    assert code == 0
    assert record["payload"]["report"]["mismatch_count"] == 0


def test_chain_command_and_membership():
    code, record, _ = run(["chain", "--perazzo", "m=2,d=3"])
    assert code == 0
    chain = record["payload"]["chain"]
    assert chain["a_min"] == 3 and chain["a_max"] == 4
    assert chain["bottom"]["exponents"] == "(2^3,1^6)"
    assert chain["case_ii"]["exponents"] == "(4,2^3,1^2)"

    code, record, _ = run(
        ["chain", "--perazzo", "m=2,d=3", "--partition", "4,2,2,2,1,1"]
    )
    member = record["payload"]["membership"]
    assert member["member"] is True
    assert member["vs_case_ii"] == "equal"
    assert member["vs_case_i"] == "greater"

    code, record, _ = run(["chain", "--perazzo", "m=2,d=3", "--partition", "3,3,3,2,1"])
    assert record["payload"]["membership"]["member"] is False


def test_chain_roundtrip_via_record(tmp_path):
    code, record, _ = run(["jordan", "--perazzo", "m=2,d=3", "--ell", "b1=1,b2=2"])
    path = tmp_path / "record.json"
    path.write_text(render_record(record, "json"))
    code1, rec1, _ = run(["chain", "--perazzo", "m=2,d=3", "--record", str(path)])
    parts = record["payload"]["jordan"]["partition"]["parts"]
    code2, rec2, _ = run(["chain", "--perazzo", "m=2,d=3", "--partition", ",".join(map(str, parts))])
    assert code1 == code2 == 0
    assert rec1["payload"]["membership"] == rec2["payload"]["membership"]


def test_json_output_byte_identical():
    _, rec1, _ = run(["verify", "--perazzo", "m=2,d=3", "--samples", "10", "--seed", "3"])
    _, rec2, _ = run(["verify", "--perazzo", "m=2,d=3", "--samples", "10", "--seed", "3"])
    assert render_record(rec1, "json") == render_record(rec2, "json")


def test_render_formats():
    _, record, _ = run(["hf", "--perazzo", "m=2,d=3"])
    as_json = render_record(record, "json")
    json.loads(as_json)
    tsv = render_record(record, "tsv")
    assert "payload.h_vector.entries\t[1, 5, 5, 1]" in tsv
    text = render_record(record, None)
    assert "payload.h_vector.sperner" in text


def test_field_flag():
    code, record, _ = run(["hf", "--perazzo", "m=2,d=3", "--field", "q"])
    assert code == 0 and record["job"]["field"] == "QQ"
    code, record, _ = run(["hf", "--perazzo", "m=2,d=3", "--field", "gfp:101"])
    assert record["job"]["field"] == "GF(101)"


def test_spec_file(tmp_path):
    doc = {"perazzo": {"m": 2, "d": 3}, "ell": "b1=1", "field": "gfp:101"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, record, _ = run(["jordan", "--spec", str(path)])
    assert code == 0
    assert record["job"]["field"] == "GF(101)"
    assert record["payload"]["jordan"]["partition"]["parts"] == [3, 3, 2, 2, 1, 1]


@pytest.mark.parametrize("argv,doc,field", [
    (["jdt", "--ell", "x+y"], {"ideal": {"gens": ["x^2", "y^2"], "bound": "abc"}}, "bound"),
    (["verify"], {"perazzo": "m=2,d=3", "samples": "abc"}, "samples"),
    (["verify"], {"perazzo": "m=2,d=3", "samples": True}, "samples"),
    (["classify"], {"perazzo": "m=2,d=3", "ell": 5}, "ell"),
    (["ann"], {"dual_generator": "X^2*Y", "degree": "2"}, "degree"),
    (["chain", "--perazzo", "m=2,d=3", "--record"], {"payload": []}, "record"),
], ids=["ideal-bound-str", "samples-str", "samples-bool", "ell-int", "degree-str", "payload-list"])
def test_json_values_of_the_wrong_type_are_input_errors(tmp_path, capsys, argv, doc, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = argv + [str(path)] if argv[-1] == "--record" else argv + ["--spec", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def _expect_input_error(argv, fragment):
    with pytest.raises(CliInputError) as err:
        run_command(argv)
    assert fragment in str(err.value)


def test_input_errors_name_the_field():
    _expect_input_error(["hf", "--field", "gfp:6", "--perazzo", "m=2,d=3"], "field")
    _expect_input_error(["hf", "--perazzo", "m=2"], "perazzo")
    _expect_input_error(["hf"], "source")
    _expect_input_error(
        ["hf", "--perazzo", "m=2,d=3", "--ideal", "x^2"], "source"
    )
    _expect_input_error(["jordan", "--perazzo", "m=2,d=3"], "ell")
    _expect_input_error(
        ["jordan", "--perazzo", "m=2,d=3", "--ell", "c3=1"], "ell"
    )
    _expect_input_error(
        ["jordan", "--perazzo", "m=2,d=3", "--ell", "a[3,0]=1"], "x-variable"
    )
    _expect_input_error(["ann", "--perazzo", "m=2,d=3"], "ann")
    _expect_input_error(
        ["chain", "--perazzo", "m=2,d=3", "--partition", "2,1"], "partition"
    )
    _expect_input_error(
        ["hf", "--ideal", "x^2 + y", "--bound", "4"], "ideal"
    )


def test_ideal_default_bound():
    code, record, _ = run(["jordan", "--ideal", "x^2, y^2", "--ell", "x+y"])
    assert code == 0
    assert record["payload"]["jordan"]["partition"]["parts"] == [3, 1]


def test_main_exit_codes(capsys):
    assert main(["hf", "--perazzo", "m=2,d=3"]) == 0
    out = capsys.readouterr().out
    assert "payload.h_vector.entries" in out
    assert main(["hf", "--perazzo", "m=0,d=3"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["nonsense"]) == 1


def test_closed_output_pipe_ends_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    src = str(Path(apolarity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "apolarity.cli", "hf", "--perazzo", "m=2,d=3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


_FIELDS = [FieldSpec.rationals(), FieldSpec.prime_field(32003), FieldSpec.prime_field(7)]
_GENERIC_NAMES = ["x", "y", "z", "w", "u1", "v2", "tt"]


def _scalars(field):
    if field.characteristic():
        return st.integers(0, field.modulus - 1)
    return st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50)


@st.composite
def _polynomials(draw):
    field = draw(st.sampled_from(_FIELDS))
    if draw(st.booleans()):
        vs = PerazzoParams(draw(st.integers(2, 3)), draw(st.integers(3, 4))).varset()
    else:
        vs = VariableSet.generic(
            draw(st.lists(st.sampled_from(_GENERIC_NAMES), min_size=1, max_size=4, unique=True))
        )
    monos = st.tuples(*[st.integers(0, 3)] * vs.nvars)
    terms = draw(st.dictionaries(monos, _scalars(field), max_size=5))
    return Polynomial(vs, draw(st.sampled_from("rs")), field, terms)


@st.composite
def _linear_forms(draw):
    field = draw(st.sampled_from(_FIELDS))
    params = PerazzoParams(draw(st.integers(2, 3)), draw(st.integers(3, 4)))
    a = draw(st.dictionaries(st.sampled_from(params.x_index_set()), _scalars(field)))
    b = draw(st.dictionaries(st.integers(1, params.m), _scalars(field)))
    return field, LinearForm(a, b)


@given(_polynomials())
@settings(max_examples=200, deadline=None)
def test_polynomial_text_roundtrip(P):
    assert parse_polynomial(str(P), P.field, varset=P.varset, side=P.side) == P


@given(_linear_forms())
@settings(max_examples=200, deadline=None)
def test_linear_form_text_roundtrip(field_and_form):
    field, lf = field_and_form
    assert parse_linear_form_kv(str(lf), field) == lf
