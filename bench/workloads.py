"""The three benchmark workloads.

Each workload draws the inputs of op i from ``random.Random(f"{name}:{seed}:{i}")``
(``make_input``), runs one op through the package's public interface
(``run``), and checks the op's answer outside the timed region (``check``,
which returns the list of problems found; any problem fails the op).

Program functions are looked up on their modules at call time, so a tracer
that wraps them sees every call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial

from apolarity import apolar, cli, jordan, perazzo
from apolarity.exactlinalg import FieldSpec
from apolarity.polyring import LinearForm, Polynomial, VariableSet

P = 32003
GF = FieldSpec.prime_field(P)
QQ = FieldSpec.rationals()


def exponents(nvars, degree):
    """All exponent tuples of a given degree (the benchmark's own list)."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def divisor_counts(support):
    """(monomials dividing some term of F, all monomials of degree <= deg F).

    These are the candidate monomials of a dual model build: every x^gamma
    with |gamma| <= d, of which only the divisors of F's terms can contract
    F to something nonzero."""
    nvars, d = len(support[0]), sum(support[0])
    divisors = set()
    for beta in support:
        divisors.update(product(*(range(e + 1) for e in beta)))
    return len(divisors), comb(nvars + d, d)


def perazzo_support(m, d):
    """Exponents of X_u Y^u over an x-block followed by m y-variables."""
    xset = exponents(m, d - 1)
    support = []
    for i, u in enumerate(xset):
        x = [0] * len(xset)
        x[i] = 1
        support.append(tuple(x) + u)
    return support


def _idx(u):
    return ",".join(map(str, u))


def _y_mono(u):
    return "*".join(f"Y{j}^{e}" if e > 1 else f"Y{j}" for j, e in enumerate(u, 1) if e)


def _jdt_pairs(jdt):
    """JDT as [[length, degree, multiplicity]], in the CLI record's order."""
    items = sorted(jdt.entries.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    return [[p, nu, mult] for (p, nu), mult in items]


def _bead_counts(pairs):
    top = max(nu + p - 1 for p, nu, _ in pairs)
    counts = [0] * (top + 1)
    for p, nu, mult in pairs:
        for i in range(nu, nu + p):
            counts[i] += mult
    return counts


class PerazzoJdt:
    """`apolarity jdt` on a full Perazzo form (3,5) with random coefficients."""

    name = "perazzo-jdt"
    setup_modules = "apolarity.cli"
    m, d = 3, 5

    def prepare(self):
        # canonical model for the check, built once and untimed
        self.params = perazzo.PerazzoParams(self.m, self.d)
        self.ref_model = apolar.model_from_dual(perazzo.full_perazzo_form(self.params, GF))
        self.hf = list(perazzo.perazzo_hf(self.params).entries)
        self.support = perazzo_support(self.m, self.d)

    def make_input(self, rng):
        xset = exponents(self.m, self.d - 1)
        c = {u: rng.randrange(1, P) for u in xset}
        a = {u: rng.randrange(1, P) for u in xset}
        b = {j: rng.randrange(1, P) for j in range(1, self.m + 1)}
        big_f = " + ".join(f"{c[u]}*X[{_idx(u)}]*{_y_mono(u)}" for u in xset)
        ell = " + ".join(
            [f"{a[u]}*x[{_idx(u)}]" for u in xset] + [f"{v}*y{j}" for j, v in b.items()]
        )
        argv = ["jdt", "--dual-generator", big_f, "--ell", ell, "--out", "json"]
        return {"argv": argv, "c": c, "a": a, "b": b}

    def run(self, inp):
        code, record, out = cli.run_command(inp["argv"])
        return code, cli.render_record(record, out)

    def check(self, inp, out):
        code, text = out
        # F with coefficients c_u is the canonical form under x_u -> c_u x_u,
        # so ell on it has the Jordan data of phi(ell) on the canonical model
        phi = LinearForm({u: a * inp["c"][u] % P for u, a in inp["a"].items()}, inp["b"])
        profile = jordan.rank_profile(self.ref_model, phi)
        want_parts = list(profile.jordan_type().parts)
        want_pairs = _jdt_pairs(profile.jordan_degree_type())
        got = json.loads(text)["payload"]["jordan"]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if got["partition"]["parts"] != want_parts:
            problems.append(f"partition {got['partition']['parts']} != {want_parts}")
        if got["degree_type"]["pairs"] != want_pairs:
            problems.append(f"JDT {got['degree_type']['pairs']} != {want_pairs}")
        if _bead_counts(got["degree_type"]["pairs"]) != self.hf:
            problems.append("JDT bead counts differ from perazzo_hf")
        return problems

    def divisor_counts(self, inp):
        return divisor_counts(self.support)


class PerazzoProfiles:
    """Rank profiles and closed-form predictions of 200 forms on one (3,4)
    Perazzo model per op."""

    name = "perazzo-profiles"
    setup_modules = "apolarity"
    m, d = 3, 4
    per_bucket = 50
    buckets = ("uniform", "y-led", "matched-pair", "pure-x")

    def prepare(self):
        self.params = perazzo.PerazzoParams(self.m, self.d)
        self.varset = self.params.varset()
        self.xset = self.params.x_index_set()
        # (monomial of X_u Y^u, u) for every term of the full Perazzo form
        self.terms = [(mono, self.xset[mono.index(1)])
                      for mono in perazzo.full_perazzo_form(self.params, GF).terms]
        self.hf = list(perazzo.perazzo_hf(self.params).entries)
        self.a_bounds = perazzo.a_bounds(self.params)
        self.support = perazzo_support(self.m, self.d)

    def _pure_power(self, k):
        return tuple(self.d - 1 if j == k else 0 for j in range(1, self.m + 1))

    def _form(self, bucket, rng):
        """The bucket mix of `apolarity verify`, drawn by the benchmark."""
        def coeffs(keys):
            return {key: rng.randrange(P) for key in keys}

        ys = range(1, self.m + 1)
        while True:
            if bucket == "uniform":
                lf = LinearForm(coeffs(self.xset), coeffs(ys))
            elif bucket == "y-led" and rng.randrange(2) == 0:
                lf = LinearForm({}, coeffs(ys))
            elif bucket == "y-led":
                k = rng.randrange(1, self.m + 1)
                a = coeffs(self.xset)
                a[self._pure_power(k)] = 0
                lf = LinearForm(a, {k: rng.randrange(1, P)})
            elif bucket == "matched-pair":
                k = rng.randrange(1, self.m + 1)
                a, b = coeffs(self.xset), coeffs(ys)
                a[self._pure_power(k)] = rng.randrange(1, P)
                b[k] = rng.randrange(1, P)
                lf = LinearForm(a, b)
            else:
                lf = LinearForm(coeffs(self.xset), {})
            if not lf.is_zero():
                return lf

    def _case(self, phi):
        """The case of phi on the canonical model, from an invariant: CASE_III
        when b = 0, else CASE_II iff ell^d o F = d! sum_u a_u b^u / u! != 0."""
        if not phi.b:
            return perazzo.CASE_III
        total = 0
        for u, coeff in phi.a.items():
            term = coeff
            for j, e in enumerate(u, 1):
                term = term * pow(phi.b.get(j, 0), e, P) * pow(factorial(e), P - 2, P)
            total += term
        return perazzo.CASE_II if total % P else perazzo.CASE_I

    def make_input(self, rng):
        c = {u: rng.randrange(1, P) for u in self.xset}
        big_f = Polynomial(self.varset, "s", GF, {mono: c[u] for mono, u in self.terms})
        forms = []
        for _ in range(self.per_bucket):
            for bucket in self.buckets:
                ell = self._form(bucket, rng)
                # F with coefficients c_u is the canonical form under
                # x_u -> c_u x_u, so ell on it behaves as phi(ell) on the canonical model
                phi = LinearForm({u: a * c[u] % P for u, a in ell.a.items()}, ell.b)
                case = perazzo.LinearFormCase(self._case(phi), None, True)
                forms.append((ell, phi, case))
        return {"F": big_f, "forms": forms}

    def run(self, inp):
        model = apolar.model_from_dual(inp["F"])
        out = []
        for ell, phi, case in inp["forms"]:
            profile = jordan.rank_profile(model, ell)
            pred = perazzo.predicted_jordan(case, self.params, phi, GF)
            out.append((profile.jordan_type(), profile.jordan_degree_type(), pred))
        return out

    def check(self, inp, out):
        problems = []
        if len(out) != len(inp["forms"]):
            problems.append(f"{len(out)} of {len(inp['forms'])} forms computed")
        for (ell, _phi, case), (ptn, jdt, pred) in zip(inp["forms"], out):
            wrong = []
            if ptn != pred.partition:
                wrong.append(f"partition {ptn.parts} != {pred.partition.parts}")
            if pred.jdt is not None and jdt != pred.jdt:
                wrong.append(f"JDT {jdt} != {pred.jdt}")
            if case.tag == perazzo.CASE_III and not self.a_bounds[0] <= pred.a <= self.a_bounds[1]:
                wrong.append(f"{pred.a} length-two strings outside {self.a_bounds}")
            if _bead_counts(_jdt_pairs(jdt)) != self.hf:
                wrong.append("JDT bead counts differ from perazzo_hf")
            if wrong:
                problems.append(f"{case.tag} ell a={ell.a} b={ell.b}: {'; '.join(wrong)}")
        return problems

    def divisor_counts(self, inp):
        return divisor_counts(self.support)


class QqRoundtrip:
    """Dense degree-6 F in 3 variables over QQ: both presentations of its
    algebra, rank-formula and string-oracle JDT on each."""

    name = "qq-roundtrip"
    setup_modules = "apolarity"
    nvars, d = 3, 6

    def prepare(self):
        self.varset = VariableSet.generic(["x", "y", "z"])

    def make_input(self, rng):
        def coeff():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9))

        big_f = Polynomial(self.varset, "s", QQ,
                           {e: coeff() for e in exponents(self.nvars, self.d)})
        ell = Polynomial(self.varset, "r", QQ,
                         {e: coeff() for e in exponents(self.nvars, 1)})
        return {"F": big_f, "ell": ell}

    def run(self, inp):
        big_f, ell = inp["F"], inp["ell"]
        dual = apolar.model_from_dual(big_f)
        hv = apolar.hilbert_function(big_f)
        ann_degrees = [t for t in range(len(hv)) if hv[t] < comb(t + self.nvars - 1, t)][:2]
        gens = [g for t in ann_degrees for g in apolar.annihilator_basis(big_f, t).generators]
        ideal = apolar.model_from_ideal(gens, self.d + 1)
        results = []
        for model in (dual, ideal):
            rank_jdt = jordan.rank_profile(model, ell).jordan_degree_type()
            strings_jdt = jordan.strings_degree_type(jordan.jordan_strings(model, ell))
            results.append((tuple(model.hvector), rank_jdt, strings_jdt))
        return tuple(hv), results

    def check(self, inp, out):
        hv, ((hv_dual, rank_dual, str_dual), (hv_ideal, rank_ideal, str_ideal)) = out
        problems = []
        if not hv == hv_dual == hv_ideal:
            problems.append(f"h-vectors {hv} / {hv_dual} / {hv_ideal}")
        if rank_dual != rank_ideal:
            problems.append(f"rank JDT {rank_dual} != {rank_ideal}")
        if str_dual != rank_dual or str_ideal != rank_ideal:
            problems.append(f"strings JDT {str_dual} / {str_ideal} != rank JDT")
        if tuple(_bead_counts(_jdt_pairs(rank_dual))) != hv:
            problems.append("JDT bead counts differ from the h-vector")
        return problems

    def divisor_counts(self, inp):
        return divisor_counts(list(inp["F"].terms))


WORKLOADS = {wl.name: wl for wl in (PerazzoJdt, PerazzoProfiles, QqRoundtrip)}
