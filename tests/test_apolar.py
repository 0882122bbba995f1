import random
from fractions import Fraction

import pytest

from apolarity.cli import run_command
from apolarity.exactlinalg import FieldSpec, mat_mul_rows, rank_rows
from apolarity.polyring import LinearForm, Polynomial, VariableSet, contract, exponent_tuples
from apolarity.apolar import (
    CharacteristicError,
    HVector,
    NotArtinianError,
    annihilator_basis,
    catalecticant,
    compressed_hf,
    hf_stats,
    hilbert_function,
    model_from_dual,
    model_from_ideal,
    mult_matrix,
    step_matrix_rows,
)
from apolarity.jordan import _PowerMaps
from apolarity.perazzo import PerazzoParams, full_perazzo_form, perazzo_hf
from conftest import GF, QQ, brute_span_dim, make_ex24_model


def test_catalecticant_toy_ranks(toy_form):
    assert catalecticant(toy_form, 0).rank() == 1
    m1 = catalecticant(toy_form, 1)
    assert m1.ncols == 5 and m1.rank() == 5
    m2 = catalecticant(toy_form, 2)
    assert m2.ncols == 15 and m2.rank() == 5
    assert catalecticant(toy_form, 3).rank() == 1
    with pytest.raises(ValueError):
        catalecticant(toy_form, 4)
    with pytest.raises(ValueError):
        catalecticant(toy_form, -1)


def test_catalecticant_bruteforce_oracle():
    # F = Y1^4 + Y2^4 at t = 2: span{y^b o F} = {Y1^2, Y2^2}, dimension 2,
    # certified by exhaustive GF(5)-combination counting
    gf5 = FieldSpec.prime_field(5)
    vs = VariableSet.generic(["y1", "y2"])
    F = Polynomial(vs, "s", gf5, {(4, 0): 1, (0, 4): 1})
    mat = catalecticant(F, 2)
    assert brute_span_dim([mat.column(j) for j in range(mat.ncols)][:3], 5) == 2
    assert mat.rank() == 2


def test_toy_degree2_kernel_and_annihilation(toy_form):
    mat = catalecticant(toy_form, 2)
    kernel = mat.kernel_basis()
    assert len(kernel) == 10  # dim R_2 - h_2 = 15 - 5
    basis = annihilator_basis(toy_form, 2)
    assert len(basis.generators) == 10
    for g in basis.generators:
        assert contract(g, toy_form).is_zero()
    # all six x_i x_j products annihilate
    vs = toy_form.varset
    xs = [Polynomial.variable(vs, "r", GF, i) for i in range(3)]
    count = 0
    for i in range(3):
        for j in range(i, 3):
            if contract(xs[i] * xs[j], toy_form).is_zero():
                count += 1
    assert count == 6


def test_annihilator_degree_zero_empty(toy_form):
    assert annihilator_basis(toy_form, 0).generators == []


def test_hilbert_function_goldens(toy_form):
    assert hilbert_function(toy_form) == (1, 5, 5, 1)
    # Y2^4 inside K[Y1, Y2]: the minimal h-vector (1,1,1,1,1)
    vs = VariableSet.generic(["y1", "y2"])
    F = Polynomial(vs, "s", GF, {(0, 4): 1})
    assert hilbert_function(F) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        hilbert_function(Polynomial.zero(vs, "s", GF))
    with pytest.raises(ValueError):
        hilbert_function(Polynomial(vs, "r", GF, {(0, 4): 1}))


def test_full_perazzo_hf_34():
    F = full_perazzo_form(PerazzoParams(3, 4), GF)
    assert hilbert_function(F) == (1, 13, 12, 13, 1)


def test_model_from_dual_dims(toy_model):
    assert toy_model.dim() == 12
    assert toy_model.hvector == (1, 5, 5, 1)
    # single dual variable, degree 1
    vs = VariableSet.generic(["x"])
    F = Polynomial(vs, "s", GF, {(1,): 1})
    m = model_from_dual(F)
    assert m.hvector == (1, 1)
    # (2,4): total dimension 2*C(5,2) = 20
    m24 = model_from_dual(full_perazzo_form(PerazzoParams(2, 4), GF))
    assert m24.dim() == 20


def test_model_from_dual_degenerate_constant():
    vs = VariableSet.generic(["x"])
    F = Polynomial.constant(vs, "s", GF, 3)
    m = model_from_dual(F)
    assert m.hvector == (1,) and m.socle_degree == 0


def test_model_from_dual_rejects_zero():
    vs = VariableSet.generic(["x"])
    with pytest.raises(ValueError):
        model_from_dual(Polynomial.zero(vs, "s", GF))


def test_model_characteristic_check():
    gf3 = FieldSpec.prime_field(3)
    vs = VariableSet.generic(["y1", "y2"])
    F = Polynomial(vs, "s", gf3, {(3, 0): 1})
    with pytest.raises(CharacteristicError):
        model_from_dual(F)


def test_model_from_ideal_ex24():
    model = make_ex24_model(GF)
    assert model.hvector == (1, 2, 3, 1)
    assert model.dim() == 7
    assert model.socle_degree == 3


def test_model_from_ideal_goldens():
    vs = VariableSet.generic(["x", "y"])
    x = Polynomial.variable(vs, "r", GF, 0)
    y = Polynomial.variable(vs, "r", GF, 1)
    m = model_from_ideal([x, y], bound=2)
    assert m.hvector == (1,)
    m2 = model_from_ideal([x**2, x * y, y**3], bound=4)
    assert m2.hvector == (1, 2, 1)
    with pytest.raises(NotArtinianError):
        model_from_ideal([x**2], bound=5)
    with pytest.raises(NotArtinianError):
        model_from_ideal([x**3, x * y**2, y**3], bound=2)


def test_mult_matrix_goldens(ex24_model, ex24_ell, toy_model):
    # x^2 -> x^2 y, x y -> x^2 y, y^2 -> 0: rank one
    m = mult_matrix(ex24_model, ex24_ell, 2, 1)
    assert m.nrows == 1 and m.ncols == 3 and m.rank() == 1
    # ell = y1 never reaches the socle from degree 0 in three steps
    assert mult_matrix(toy_model, LinearForm(b={1: 1}), 0, 3).rank() == 0
    ident = mult_matrix(toy_model, LinearForm(b={1: 1}), 1, 0)
    assert ident.rows == [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError):
        mult_matrix(toy_model, LinearForm(), 0, 1)
    with pytest.raises(ValueError):
        mult_matrix(toy_model, LinearForm(b={1: 1}), 0, 5)


def test_mult_matrix_composition_law(toy_model):
    rng = random.Random(5)
    vs = toy_model.varset
    for _ in range(25):
        coeffs = [rng.randrange(32003) for _ in range(5)]
        if all(c == 0 for c in coeffs):
            continue
        ell = Polynomial(
            vs, "r", GF,
            {tuple(1 if i == j else 0 for i in range(5)): c for j, c in enumerate(coeffs) if c},
        )
        for i in range(3):
            for k1 in range(0, 3 - i):
                for k2 in range(0, 3 - i - k1 + 1):
                    lhs = mult_matrix(toy_model, ell, i, k1 + k2)
                    rhs = mult_matrix(toy_model, ell, i + k1, k2) @ mult_matrix(toy_model, ell, i, k1)
                    assert lhs == rhs


def test_pairing_rank_symmetry(toy_form):
    F34 = full_perazzo_form(PerazzoParams(3, 4), GF)
    for F in (toy_form, F34):
        d = F.homogeneous_degree()
        for t in range(d + 1):
            assert catalecticant(F, t).rank() == catalecticant(F, d - t).rank()


def test_compressed_hf_goldens():
    assert compressed_hf(2, 4) == (1, 2, 3, 2, 1)
    assert compressed_hf(2, 5) == (1, 2, 3, 3, 2, 1)
    assert compressed_hf(3, 4) == (1, 3, 6, 3, 1)
    assert compressed_hf(1, 3) == (1, 1, 1, 1)


def test_hf_stats_goldens():
    s = hf_stats(HVector((1, 5, 5, 1)))
    assert s.sperner == 5 and s.unimodal and s.symmetric and s.compressed is None
    s34 = hf_stats(HVector((1, 13, 12, 13, 1)))
    assert not s34.unimodal and s34.symmetric and s34.sperner == 13
    s1 = hf_stats(HVector((1,)), codim=1)
    assert s1.sperner == 1 and s1.unimodal and s1.symmetric and s1.compressed
    assert hf_stats(HVector((1, 2, 3, 2, 1)), codim=2).compressed
    assert not hf_stats(HVector((1, 2, 2, 2, 1)), codim=2).compressed


def test_hvector_validation():
    with pytest.raises(ValueError):
        HVector(())
    with pytest.raises(ValueError):
        HVector((1, 0, 1))
    assert HVector((1, 3, 1)).socle_degree() == 2


def test_dual_model_symmetry_and_ends(toy_model):
    h = toy_model.hvector
    assert h.is_symmetric() and h[0] == 1 and h[toy_model.socle_degree] == 1


def test_ideal_from_annihilator_reproduces_dual_h(toy_form, toy_model):
    for F, expected in [
        (toy_form, toy_model.hvector),
        (
            Polynomial(VariableSet.generic(["y1", "y2"]), "s", GF, {(4, 0): 1, (0, 4): 1}),
            HVector((1, 2, 2, 2, 1)),
        ),
    ]:
        d = F.homogeneous_degree()
        gens = []
        for t in range(1, d + 1):
            gens.extend(annihilator_basis(F, t).generators)
        # in degree d+1 the annihilator is all of R_{d+1}
        vs = F.varset
        gens.extend(
            Polynomial.monomial(vs, "r", GF, mono) for mono in vs.monomials(d + 1)
        )
        model = model_from_ideal(gens, bound=d + 1)
        assert model.hvector == expected


def test_rationals_model_matches_prime_field(toy_form):
    vs = VariableSet.perazzo(2, 3)
    Fq = Polynomial(vs, "s", QQ, {m: QQ.normalize(c) for m, c in toy_form.terms.items()})
    assert hilbert_function(Fq) == hilbert_function(toy_form)
    assert model_from_dual(Fq).dim() == 12


def test_rationals_jordan_end_to_end(toy_form):
    # exercise the fraction-free kernel on a QQ dual model and its strings
    from apolarity.jordan import (
        jordan_degree_type,
        jordan_strings,
        jordan_type,
        strings_degree_type,
    )

    vs = VariableSet.perazzo(2, 3)
    Fq = Polynomial(vs, "s", QQ, {m: QQ.normalize(c) for m, c in toy_form.terms.items()})
    model = model_from_dual(Fq)
    cases = [
        (LinearForm(b={1: 1}), (3, 3, 2, 2, 1, 1)),
        (LinearForm(a={(2, 0): 1}, b={1: 1}), (4, 2, 2, 2, 1, 1)),
        # matched-pair pattern on its degeneration locus: ell^3 o F = 0
        (LinearForm(a={(2, 0): 1, (0, 2): -1}, b={1: 1, 2: 1}), (3, 3, 2, 2, 1, 1)),
    ]
    for ell, expected in cases:
        assert jordan_type(model, ell) == expected
        jd = jordan_degree_type(model, ell)
        assert strings_degree_type(jordan_strings(model, ell)) == jd


def _random_sparse_dual(rng, field):
    """1-6 random terms: a generic form in 4 variables, or a sub-sum of a
    full Perazzo form, with random nonzero coefficients."""
    if rng.randrange(2):
        vs = VariableSet.generic(["w", "x", "y", "z"])
        monos = exponent_tuples(4, rng.randrange(0, 5))
    else:
        params = PerazzoParams(*rng.choice([(2, 3), (2, 4), (3, 3)]))
        vs = params.varset()
        monos = list(full_perazzo_form(params, field).terms)
    monos = rng.sample(monos, min(rng.randrange(1, 7), len(monos)))
    terms = {mono: field.normalize(rng.choice([-1, 1]) * rng.randrange(1, 1000)) for mono in monos}
    return Polynomial(vs, "s", field, terms)


def _greedy_tags(mat, monos, field):
    """Monomials of the first independent columns of a dense catalecticant."""
    tags, cols = [], []
    for j, mono in enumerate(monos):
        col = mat.column(j)
        if rank_rows(cols + [col], field) > len(cols):
            cols.append(col)
            tags.append(mono)
    return tuple(tags)


def _is_canonical(x, field):
    """A Fraction over QQ, an int in [0, p) over GF(p)."""
    if field.modulus:
        return type(x) is int and 0 <= x < field.modulus
    return type(x) is Fraction


@pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GF32003"])
def test_sparse_dual_model_matches_dense_oracle(field):
    # the model stores only divisors of F's terms; every monomial, stored or
    # not, must still have coordinates that reproduce its contraction
    rng = random.Random(f"sparse-dual-{field}")
    for _ in range(20):
        F = _random_sparse_dual(rng, field)
        vs, d = F.varset, F.homogeneous_degree()
        model = model_from_dual(F)
        assert model.hvector == [catalecticant(F, t).rank() for t in range(d + 1)]
        assert hilbert_function(F) == model.hvector
        for t in range(d + 1):
            monos = vs.monomials(t)
            tags = model.basis_tags(t)
            assert tags == _greedy_tags(catalecticant(F, t), monos, field)
            images = [contract(Polynomial.monomial(vs, "r", field, tag), F) for tag in tags]
            for gamma in monos:
                coords = model.coords_of_monomial(t, gamma)
                assert len(coords) == model.h(t)
                assert all(_is_canonical(c, field) for c in coords)
                rhs = Polynomial.zero(vs, "s", field)
                for c, image in zip(coords, images):
                    rhs = rhs + image.scale(c)
                lhs = contract(Polynomial.monomial(vs, "r", field, gamma), F)
                assert lhs == rhs
                if lhs.is_zero():
                    assert coords == (field.zero(),) * model.h(t)
            wrong = (t + 1,) + (0,) * (vs.nvars - 1)
            with pytest.raises(KeyError):
                model.coords_of_monomial(t, wrong)


def test_dual_build_never_enumerates_all_monomials(monkeypatch):
    params = PerazzoParams(3, 5)
    F = full_perazzo_form(params, GF)

    def refuse(self, degree):
        raise AssertionError("the dual builder enumerated every monomial")

    monkeypatch.setattr(VariableSet, "monomials", refuse)
    assert model_from_dual(F).hvector == perazzo_hf(params)
    assert hilbert_function(F) == perazzo_hf(params)


@pytest.mark.parametrize("m,d", [(3, 6), (4, 5), (3, 8)])
def test_large_perazzo_dual_models(m, d):
    params = PerazzoParams(m, d)
    assert model_from_dual(full_perazzo_form(params, GF)).hvector == perazzo_hf(params)


def test_jdt_job_at_perazzo_36():
    code, record, _ = run_command(
        ["jdt", "--perazzo", "m=3,d=6", "--ell", "b1=1,b2=2,b3=3"]
    )
    assert code == 0
    beads = [0] * 7
    for length, start, mult in record["payload"]["jordan"]["degree_type"]["pairs"]:
        for i in range(start, start + length):
            beads[i] += mult
    assert beads == list(perazzo_hf(PerazzoParams(3, 6)))


GF7 = FieldSpec.prime_field(7)


def _tensor_oracle_models(rng, field):
    """Dual models of Perazzo (2,3) and (3,4) and of random sparse F in 3-4
    variables, and two ideal models, one with non-monomial relations."""
    models = [model_from_dual(full_perazzo_form(PerazzoParams(m, d), field))
              for m, d in [(2, 3), (3, 4)]]
    for _ in range(4):
        vs = VariableSet.generic(["w", "x", "y", "z"][: rng.randrange(3, 5)])
        monos = rng.sample(exponent_tuples(vs.nvars, rng.randrange(2, 5)), rng.randrange(1, 7))
        F = Polynomial(vs, "s", field, {mono: field.normalize(rng.randrange(1, 7)) for mono in monos})
        models.append(model_from_dual(F))
    models.append(make_ex24_model(field))
    vs = VariableSet.generic(["x", "y", "z"])
    x, y, z = (Polynomial.variable(vs, "r", field, i) for i in range(3))
    models.append(model_from_ideal([x**2 - y * z, y**3, z**3, x * y * z + x * z**2], bound=7))
    return models


def _naive_product(a_rows, b_rows, field, b_ncols):
    out = []
    for arow in a_rows:
        row = []
        for col in range(b_ncols):
            acc = field.zero()
            for a, brow in zip(arow, b_rows):
                acc = field.add(acc, field.mul(a, brow[col]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("field", [QQ, GF, GF7], ids=["QQ", "GF32003", "GF7"])
def test_step_tensor_and_products_match_oracles(field):
    # step_matrix_rows contracts the model's multiplication tensor; the oracle
    # rebuilds each entry from the coordinates of tag + e_pos
    rng = random.Random(f"step-tensor-{field}")
    for model in _tensor_oracle_models(rng, field):
        nvars = model.varset.nvars
        for _ in range(3):
            positions = rng.sample(range(nvars), rng.randrange(1, nvars + 1))
            by_pos = sorted((pos, field.normalize(rng.randrange(1, 7))) for pos in positions)
            for i in range(-1, model.socle_degree + 2):
                expected = [[field.zero()] * model.h(i) for _ in range(model.h(i + 1))]
                # past the socle the target is zero and holds no coordinates
                for j, tag in enumerate(model.basis_tags(i) if model.h(i + 1) else ()):
                    for pos, c in by_pos:
                        succ = tuple(e + (q == pos) for q, e in enumerate(tag))
                        for r, x in enumerate(model.coords_of_monomial(i + 1, succ)):
                            expected[r][j] = field.add(expected[r][j], field.mul(c, x))
                assert step_matrix_rows(model, by_pos, i) == expected
        # one bead step of the string extraction against the dense dot product
        ell = Polynomial(model.varset, "r", field,
                         {tuple(int(q == pos) for q in range(nvars)): c for pos, c in by_pos})
        maps = _PowerMaps(model, ell)
        for i in range(model.socle_degree + 1):
            h = model.h(i)
            vecs = [[field.zero()] * h]
            vecs += [[field.normalize(rng.randrange(1, 7)) if q == j else field.zero() for q in range(h)]
                     for j in range(h)]
            vecs.append([field.normalize(rng.randrange(-3, 4)) * rng.randrange(2) for _ in range(h)])
            for vec in vecs:
                dense = _naive_product(maps.rows(i, 1), [[x] for x in vec], field, 1)
                image = maps.apply_step(i, vec)
                assert image == [row[0] for row in dense]
                assert all(type(x) is type(field.zero()) for x in image)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)]
    shapes += [tuple(rng.randrange(1, 7) for _ in range(3)) for _ in range(20)]
    for n, k, m in shapes:
        a = [[field.normalize(rng.randrange(-3, 4)) * rng.randrange(2) for _ in range(k)] for _ in range(n)]
        b = [[field.normalize(rng.randrange(-3, 4)) * rng.randrange(2) for _ in range(m)] for _ in range(k)]
        product = mat_mul_rows(a, b, field, m)
        assert product == _naive_product(a, b, field, m)
        assert all(type(x) is type(field.zero()) for row in product for x in row)
