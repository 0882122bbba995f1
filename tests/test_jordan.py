import random

import pytest
from hypothesis import given, strategies as st

from apolarity.exactlinalg import rank_rows
from apolarity.polyring import LinearForm, Polynomial, VariableSet
from apolarity.apolar import model_from_dual, model_from_ideal, mult_matrix
from apolarity.perazzo import PerazzoParams, full_perazzo_form
from apolarity.jordan import (
    JordanDegreeType,
    JordanString,
    Partition,
    _check_strings,
    _PowerMaps,
    conjugate_partition,
    dominance_compare,
    jordan_degree_type,
    jordan_strings,
    jordan_type,
    lefschetz_check,
    rank_profile,
    strings_degree_type,
)
from conftest import GF, QQ, make_ex24_model


def jdt(pairs):
    return JordanDegreeType(pairs)


def test_partition_basics():
    p = Partition([2, 4, 1, 2])
    assert p.parts == (4, 2, 2, 1)
    assert p.total() == 9
    assert p.exponent_str() == "(4,2^2,1)"
    assert Partition([4, 2, 2, 2, 1, 1]).exponent_str() == "(4,2^3,1^2)"
    with pytest.raises(ValueError):
        Partition([3, 0])


def test_conjugate_goldens():
    assert conjugate_partition(Partition([5, 5, 1, 1])) == (4, 2, 2, 2, 2)
    assert conjugate_partition(Partition([1])) == (1,)
    assert conjugate_partition(Partition([])) == ()


@given(st.lists(st.integers(1, 9), min_size=0, max_size=8))
def test_conjugate_involution(parts):
    p = Partition(parts)
    assert conjugate_partition(conjugate_partition(p)) == p


def test_dominance_goldens():
    assert dominance_compare((4, 2, 2, 2, 1, 1), (3, 3, 2, 2, 1, 1)) == "greater"
    assert dominance_compare((3, 3, 2, 2, 1, 1), (4, 2, 2, 2, 1, 1)) == "less"
    assert dominance_compare((4, 1, 1), (3, 3)) == "incomparable"
    assert dominance_compare((3, 1), (3, 1)) == "equal"
    with pytest.raises(ValueError):
        dominance_compare((2, 1), (2, 2))


def _partitions_of(n):
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


PARTITIONS_OF_8 = _partitions_of(8)


@given(st.sampled_from(PARTITIONS_OF_8), st.sampled_from(PARTITIONS_OF_8))
def test_dominance_antisymmetric(p, q):
    verdict = dominance_compare(p, q)
    flipped = dominance_compare(q, p)
    expected = {"greater": "less", "less": "greater", "equal": "equal",
                "incomparable": "incomparable"}[verdict]
    assert flipped == expected
    if verdict == "equal":
        assert Partition(p) == Partition(q)


@given(
    st.sampled_from(PARTITIONS_OF_8),
    st.sampled_from(PARTITIONS_OF_8),
    st.sampled_from(PARTITIONS_OF_8),
)
def test_dominance_transitive(p, q, r):
    if dominance_compare(p, q) in ("greater", "equal") and dominance_compare(
        q, r
    ) in ("greater", "equal"):
        assert dominance_compare(p, r) in ("greater", "equal")


def test_jdt_type_and_beads():
    j = jdt([(4, 0), (2, 1), (1, 2)])
    assert j.partition() == (4, 2, 1)
    assert j.bead_counts() == (1, 2, 3, 1)
    assert str(j) == "4_0,2_1,1_2"


# -- rank profiles -----------------------------------------------------------


def test_rank_profile_ex24(ex24_model, ex24_ell):
    prof = rank_profile(ex24_model, ex24_ell)
    assert prof.r(0, 3) == 1  # ell^3 = 3 x^2 y != 0
    assert prof.r(1, 2) == 1  # x ell^2 and y ell^2 are proportional
    assert prof.r(3, 1) == 0  # nothing above the socle
    assert prof.r(0, 0) == 1 and prof.r(1, 0) == 2
    assert prof.r(-1, 2) == 0
    # monotone in k, bounded by the h-vector
    h = ex24_model.hvector
    for i in range(4):
        for k in range(4 - i):
            assert prof.r(i, k) >= prof.r(i, k + 1)
            if i + k <= 3:
                assert prof.r(i, k) <= min(h[i], h[i + k])


def test_jordan_type_ex24(ex24_model, ex24_ell):
    assert jordan_type(ex24_model, ex24_ell) == (4, 2, 1)
    assert jordan_degree_type(ex24_model, ex24_ell) == jdt([(4, 0), (2, 1), (1, 2)])


def test_jordan_type_toy_goldens(toy_model):
    cases = [
        (LinearForm(b={1: 1}), (3, 3, 2, 2, 1, 1)),
        (LinearForm(b={1: 1, 2: 1}), (3, 3, 2, 2, 1, 1)),
        (LinearForm(a={(2, 0): 1}, b={1: 1}), (4, 2, 2, 2, 1, 1)),
        (LinearForm(a={(2, 0): 1}), (2, 2, 2, 1, 1, 1, 1, 1, 1)),
        (LinearForm(a={(2, 0): 1, (0, 2): 1}), (2, 2, 2, 2, 1, 1, 1, 1)),
    ]
    for ell, expected in cases:
        assert jordan_type(toy_model, ell) == expected


def test_jdt_toy_goldens(toy_model):
    assert jordan_degree_type(toy_model, LinearForm(b={1: 1})) == jdt(
        [(3, 0), (3, 1), (2, 1), (2, 1), (1, 1), (1, 2)]
    )
    assert jordan_degree_type(toy_model, LinearForm(a={(2, 0): 1}, b={1: 1})) == jdt(
        [(4, 0), (2, 1), (2, 1), (2, 1), (1, 1), (1, 2)]
    )
    # two-string family: degrees recovered beyond the displayed values, with
    # bead counts matching the h-vector (1,5,5,1)
    j1 = jordan_degree_type(toy_model, LinearForm(a={(2, 0): 1, (0, 2): 1}))
    assert j1 == jdt([(2, 0), (2, 1), (2, 1), (2, 2), (1, 1), (1, 1), (1, 2), (1, 2)])
    j2 = jordan_degree_type(toy_model, LinearForm(a={(2, 0): 1}))
    assert j2 == jdt([(2, 0), (2, 1), (2, 2)] + [(1, 1)] * 3 + [(1, 2)] * 3)
    for j in (j1, j2):
        assert j.bead_counts() == (1, 5, 5, 1)


def test_jdt_rendering():
    j = jdt([(4, 0), (2, 1), (2, 1), (2, 1), (1, 1), (1, 2)])
    assert str(j) == "4_0,2_1^3,1_1,1_2"


# -- strings ------------------------------------------------------------------


def test_strings_ex24(ex24_model, ex24_ell):
    strings = jordan_strings(ex24_model, ex24_ell)
    assert sorted((s.length, s.start_degree) for s in strings) == [
        (1, 2),
        (2, 1),
        (4, 0),
    ]
    # the length-2 string head sits in degree 1 and its second bead dies
    (two,) = [s for s in strings if s.length == 2]
    assert two.start_degree == 1
    from apolarity.apolar import mult_matrix

    last = two.beads[-1]
    step = mult_matrix(ex24_model, ex24_ell, 2, 1)
    image = [sum(a * b for a, b in zip(row, last)) % 32003 for row in step.rows]
    assert all(x == 0 for x in image)


def test_strings_toy_pure_x(toy_model):
    strings = jordan_strings(toy_model, LinearForm(a={(2, 0): 1}))
    lengths = sorted(s.length for s in strings)
    assert lengths == [1] * 6 + [2] * 3


def test_strings_one_dimensional_algebra():
    vs = VariableSet.generic(["x"])
    F = Polynomial.constant(vs, "s", GF, 1)
    model = model_from_dual(F)
    x = Polynomial.variable(vs, "r", GF, 0)
    strings = jordan_strings(model, x)
    assert len(strings) == 1 and strings[0].length == 1 and strings[0].start_degree == 0


def test_strings_match_rank_formula_randomized(toy_model, ex24_model):
    rng = random.Random(17)
    for model in (toy_model, ex24_model):
        nv = model.varset.nvars
        for _ in range(60):
            coeffs = [rng.randrange(32003) for _ in range(nv)]
            if all(c == 0 for c in coeffs):
                continue
            ell = Polynomial(
                model.varset, "r", GF,
                {tuple(1 if i == j else 0 for i in range(nv)): c
                 for j, c in enumerate(coeffs) if c},
            )
            strings = jordan_strings(model, ell)
            assert strings_degree_type(strings) == jordan_degree_type(model, ell)


def test_jordan_sum_and_bead_conservation(toy_model):
    rng = random.Random(23)
    for _ in range(50):
        coeffs = [rng.randrange(32003) for _ in range(5)]
        if all(c == 0 for c in coeffs):
            continue
        ell = Polynomial(
            toy_model.varset, "r", GF,
            {tuple(1 if i == j else 0 for i in range(5)): c
             for j, c in enumerate(coeffs) if c},
        )
        ptn = jordan_type(toy_model, ell)
        j = jordan_degree_type(toy_model, ell)
        assert ptn.total() == toy_model.dim()
        assert j.partition() == ptn
        assert j.bead_counts() == toy_model.hvector.entries


def _random_ell(rng, model):
    """A random nonzero linear form; about half its coefficients are zero."""
    field, nv = model.field, model.varset.nvars
    while True:
        coeffs = [field.normalize(rng.randrange(-5, 6)) if rng.randrange(2) else field.zero()
                  for _ in range(nv)]
        if any(coeffs):
            return Polynomial(
                model.varset, "r", field,
                {tuple(1 if i == j else 0 for i in range(nv)): c
                 for j, c in enumerate(coeffs) if c},
            )


def test_string_heads_are_first_independent_candidates(toy_model, ex24_model):
    # heads of length-p strings in degree i: the first vectors of the
    # ker(ell^p) basis that raise the rank of ker(ell^(p-1)) + ell*ker(ell^(p+1))
    # and of the heads taken before them
    rng = random.Random(29)
    qq_model = model_from_dual(full_perazzo_form(PerazzoParams(2, 3), QQ))
    for model in (toy_model, ex24_model, qq_model):
        d = model.socle_degree
        for _ in range(12):
            ell = _random_ell(rng, model)
            pm = _PowerMaps(model, ell)
            expected = []
            for p in range(d + 1, 0, -1):
                for i in range(d + 1):
                    span = list(pm.kernel(i, p - 1))
                    if i > 0:
                        span += [pm.apply_step(i - 1, w) for w in pm.kernel(i - 1, p + 1)]
                    for v in pm.kernel(i, p):
                        if rank_rows(span + [v], model.field) > rank_rows(span, model.field):
                            span.append(v)
                            expected.append((p, i, v))
            strings = jordan_strings(model, ell)
            assert [(s.length, s.start_degree, s.beads[0]) for s in strings] == expected


def test_check_strings_rejects_altered_families(toy_model):
    ell = LinearForm(a={(2, 0): 1}, b={1: 1})
    pm = _PowerMaps(toy_model, ell)
    strings = jordan_strings(toy_model, ell)
    _check_strings(toy_model, pm, strings)
    long = max(strings, key=lambda s: s.length)
    assert long.length == 4
    rest = [s for s in strings if s is not long]
    # repeated beads: the longest string twice
    with pytest.raises(RuntimeError, match="not independent"):
        _check_strings(toy_model, pm, strings + [long])
    # the head alone as a string, the rest as another: the beads still span,
    # but the head's string runs on past its end, ell*z != 0
    split = [JordanString(0, long.beads[:1]), JordanString(1, long.beads[1:])]
    with pytest.raises(RuntimeError, match="does not terminate"):
        _check_strings(toy_model, pm, rest + split)
    # a dropped string
    with pytest.raises(RuntimeError, match="do not fill"):
        _check_strings(toy_model, pm, rest)


class _RaisingTables:
    """Stands in for a model's coordinate tables and refuses every access."""

    def __getattr__(self, name):
        raise AssertionError(f"coordinate tables read ({name})")

    def __getitem__(self, key):
        raise AssertionError("coordinate tables read")

    def __iter__(self):
        raise AssertionError("coordinate tables read")

    def __len__(self):
        raise AssertionError("coordinate tables read")


def _answers(model, ell):
    profile = rank_profile(model, ell)
    d = model.socle_degree
    return (
        [profile.r(i, k) for i in range(d + 1) for k in range(d + 2)],
        jordan_strings(model, ell),
        [mult_matrix(model, ell, i, k) for i in range(d + 1) for k in range(d + 2 - i)],
    )


def test_multiplication_tensor_is_built_once_per_model():
    # after the first form, every later form reads only the model's tensor
    rng = random.Random(29)
    for build in (
        lambda: model_from_dual(full_perazzo_form(PerazzoParams(2, 3), GF)),
        lambda: make_ex24_model(GF),
    ):
        model, fresh = build(), build()
        nv = model.varset.nvars
        rank_profile(model, Polynomial.variable(model.varset, "r", GF, 0))
        model._coords = _RaisingTables()
        for _ in range(5):
            ell = Polynomial(
                model.varset, "r", GF,
                {tuple(int(i == j) for i in range(nv)): rng.randrange(1, 32003)
                 for j in rng.sample(range(nv), rng.randrange(1, nv + 1))},
            )
            assert _answers(model, ell) == _answers(fresh, ell)


# -- Lefschetz ----------------------------------------------------------------


def test_lefschetz_monomial_complete_intersection():
    vs = VariableSet.generic(["x"])
    x = Polynomial.variable(vs, "r", GF, 0)
    model = model_from_ideal([x**4], bound=4)
    assert model.hvector == (1, 1, 1, 1)
    flags = lefschetz_check(model, x)
    assert flags.weak and flags.strong


def test_lefschetz_toy_case_ii_not_weak(toy_model):
    ell = LinearForm(a={(2, 0): 1}, b={1: 1})
    prof = rank_profile(toy_model, ell)
    assert prof.r(1, 1) == 4  # four strings cross degrees 1 -> 2, less than 5
    flags = lefschetz_check(toy_model, ell)
    assert not flags.weak and not flags.strong


def test_lefschetz_strong_never_on_full_perazzo(toy_model):
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [rng.randrange(32003) for _ in range(5)]
        if all(c == 0 for c in coeffs):
            continue
        ell = Polynomial(
            toy_model.varset, "r", GF,
            {tuple(1 if i == j else 0 for i in range(5)): c
             for j, c in enumerate(coeffs) if c},
        )
        assert not lefschetz_check(toy_model, ell).strong


def test_parts_count_vs_sperner(toy_model, ex24_model):
    # parts count = sperner iff weak Lefschetz, on the corpus
    vs = VariableSet.generic(["x"])
    x = Polynomial.variable(vs, "r", GF, 0)
    ci = model_from_ideal([x**4], bound=4)
    corpus = [
        (ci, x),
        (toy_model, LinearForm(b={1: 1})),
        (toy_model, LinearForm(a={(2, 0): 1}, b={1: 1})),
    ]
    for model, ell in corpus:
        ptn = jordan_type(model, ell)
        flags = lefschetz_check(model, ell)
        assert ptn.total() == model.dim()
        assert len(ptn) >= model.hvector.sperner()
        assert (len(ptn) == model.hvector.sperner()) == flags.weak


def test_zero_ell_rejected(toy_model):
    with pytest.raises(ValueError):
        jordan_type(toy_model, LinearForm())
    with pytest.raises(ValueError):
        rank_profile(toy_model, Polynomial.zero(toy_model.varset, "r", GF))


def test_degree_two_element_rejected(toy_model):
    vs = toy_model.varset
    y1 = Polynomial.variable(vs, "r", GF, 3)
    with pytest.raises(ValueError):
        jordan_type(toy_model, y1 * y1)
