"""Graded coordinate models of Artinian algebras.

Two sources: a Macaulay dual generator F (the algebra R/Ann(F), coordinates
on the contraction images W_t = span{x^alpha o F}) or a list of homogeneous
ideal generators (coordinates on monomial coset representatives).  Both kinds
expose the same interface: an h-vector, per-degree basis tags, and exact
coordinates of every monomial of R_t, from which multiplication matrices by
powers of a linear form are read off.  A dual model stores only the divisors
of F's terms; every other monomial kills F and has zero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exactlinalg import Matrix, _echelon, mat_mul_rows, rank_rows
from .polyring import Polynomial, as_linear_polynomial


class CharacteristicError(ValueError):
    """Field characteristic is positive and too small for the construction."""


class NotArtinianError(ValueError):
    """The quotient algebra has not vanished by the requested degree bound."""


class HVector:
    """Dimensions of the graded pieces: positive entries h_0..h_d."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(int(e) for e in entries)
        if not entries:
            raise ValueError("empty h-vector")
        if any(e <= 0 for e in entries):
            raise ValueError(f"h-vector entries must be positive: {entries}")
        self.entries = entries

    def socle_degree(self) -> int:
        return len(self.entries) - 1

    def total(self) -> int:
        return sum(self.entries)

    def sperner(self) -> int:
        return max(self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == self.entries[::-1]

    def is_unimodal(self) -> bool:
        h = self.entries
        r = 0
        while r + 1 < len(h) and h[r] <= h[r + 1]:
            r += 1
        return all(h[i] >= h[i + 1] for i in range(r, len(h) - 1))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if isinstance(other, HVector):
            return self.entries == other.entries
        if isinstance(other, (tuple, list)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "(" + ", ".join(map(str, self.entries)) + ")"


@dataclass
class HFStats:
    sperner: int
    unimodal: bool
    symmetric: bool
    compressed: bool | None = None


@dataclass
class AnnBasis:
    """Polynomials spanning the degree-t piece of the annihilator ideal."""

    degree: int
    generators: list


def compressed_hf(c: int, d: int) -> HVector:
    """The maximal (compressed) Gorenstein h-vector for codimension c and
    socle degree d: h_i = C(min(i, d-i) + c - 1, c - 1)."""
    if c < 1 or d < 0:
        raise ValueError("codimension must be >= 1 and socle degree >= 0")
    return HVector(comb(min(i, d - i) + c - 1, c - 1) for i in range(d + 1))


def hf_stats(h: HVector, codim: int | None = None) -> HFStats:
    """Sperner number, unimodality, symmetry, and (given a codimension)
    whether h is the compressed h-vector for that codimension."""
    if not isinstance(h, HVector):
        h = HVector(h)
    compressed = None
    if codim is not None:
        compressed = h == compressed_hf(codim, h.socle_degree())
    return HFStats(
        sperner=h.sperner(),
        unimodal=h.is_unimodal(),
        symmetric=h.is_symmetric(),
        compressed=compressed,
    )


def _contraction_vector(F: Polynomial, gamma, sidx, zero):
    """Dense coordinates of x^gamma o F over the monomials indexing sidx."""
    vec = [zero] * len(sidx)
    for beta, e in F.terms.items():
        ok = True
        for g, b in zip(gamma, beta):
            if b < g:
                ok = False
                break
        if ok:
            vec[sidx[tuple(b - g for g, b in zip(gamma, beta))]] = e
    return vec


def _contraction_columns(F: Polynomial):
    """Per degree t = 0..d: the degree-t divisors gamma of F's terms in
    canonical order, and each x^gamma o F over the degree-(d-t) divisors (its
    quotients).  Every other monomial contracts F to zero."""
    d = F.homogeneous_degree()
    zero = F.field.zero()
    divs, level = [None] * (d + 1), set(F.terms)
    for t in range(d, -1, -1):
        divs[t] = sorted(level, reverse=True)
        level = {g[:i] + (e - 1,) + g[i + 1 :] for g in level for i, e in enumerate(g) if e}
    for t in range(d + 1):
        sidx = {mn: i for i, mn in enumerate(divs[d - t])}
        yield divs[t], [_contraction_vector(F, gamma, sidx, zero) for gamma in divs[t]]


def catalecticant(F: Polynomial, t: int) -> Matrix:
    """Matrix of the contraction map R_t -> S_{d-t} in the canonical monomial
    bases (rows indexed by S-monomials, columns by R-monomials, both in
    descending lexicographic order).  Its rank is HF(t) of R/Ann(F)."""
    if F.side != "s":
        raise ValueError("the dual generator must live on the divided-power side")
    if F.is_zero():
        raise ValueError("zero dual generator")
    d = F.homogeneous_degree()
    if not 0 <= t <= d:
        raise ValueError(f"degree {t} out of range 0..{d}")
    varset, field = F.varset, F.field
    smonos = varset.monomials(d - t)
    sidx = {mn: i for i, mn in enumerate(smonos)}
    zero = field.zero()
    cols = [_contraction_vector(F, gamma, sidx, zero) for gamma in varset.monomials(t)]
    rows = [list(r) for r in zip(*cols)] if cols else []
    return Matrix(rows, field, ncols=len(cols))


def hilbert_function(F: Polynomial) -> HVector:
    """h-vector of R/Ann(F): catalecticant ranks in every degree, on the
    columns of the divisors of F's terms (the other columns are zero)."""
    if F.side != "s":
        raise ValueError("the dual generator must live on the divided-power side")
    if F.is_zero():
        raise ValueError("zero dual generator")
    return HVector(rank_rows(cols, F.field) for _, cols in _contraction_columns(F))


def annihilator_basis(F: Polynomial, t: int) -> AnnBasis:
    """Kernel of the degree-t catalecticant, translated back to polynomials.
    Every generator g satisfies contract(g, F) = 0 exactly."""
    mat = catalecticant(F, t)
    rmonos = F.varset.monomials(t)
    gens = []
    for vec in mat.kernel_basis():
        terms = {rmonos[j]: c for j, c in enumerate(vec) if c != 0}
        gens.append(Polynomial(F.varset, "r", F.field, terms))
    return AnnBasis(degree=t, generators=gens)


class GradedAlgebraModel:
    """Exact per-degree coordinates of a graded Artinian algebra.

    ``coords_of_monomial(t, gamma)`` gives the coordinate vector of the class
    of x^gamma in the chosen basis of the degree-t piece; basis tags are the
    monomials whose classes form that basis.  Models are immutable once built
    and safe to share between threads; the multiplication tensor is filled in
    on first use, and a racing second fill stores an equal tensor.
    """

    __slots__ = (
        "field",
        "varset",
        "source",
        "socle_degree",
        "hvector",
        "dual_generator",
        "ideal_generators",
        "_basis",
        "_coords",
        "_steps",
    )

    def __init__(self, field, varset, source, socle_degree, hvector, basis, coords,
                 dual_generator=None, ideal_generators=None):
        self.field = field
        self.varset = varset
        self.source = source
        self.socle_degree = socle_degree
        self.hvector = hvector
        self._basis = basis
        self._coords = coords
        self._steps = None  # the multiplication tensor, see _step_tensor
        self.dual_generator = dual_generator
        self.ideal_generators = ideal_generators

    def h(self, t: int) -> int:
        if 0 <= t <= self.socle_degree:
            return self.hvector[t]
        return 0

    def dim(self) -> int:
        return self.hvector.total()

    def basis_tags(self, t: int):
        if 0 <= t <= self.socle_degree:
            return self._basis[t]
        return ()

    def coords_of_monomial(self, t: int, gamma):
        gamma = tuple(gamma)
        if sum(gamma) != t or len(gamma) != self.varset.nvars:
            raise KeyError(f"{gamma} is not a monomial of degree {t}")
        return self._coords[t].get(gamma, (self.field.zero(),) * self.hvector[t])

    def __repr__(self):
        return (
            f"GradedAlgebraModel({self.source}, h={self.hvector}, over {self.field})"
        )


def model_from_dual(F: Polynomial) -> GradedAlgebraModel:
    """Model of R/Ann(F) from a nonzero homogeneous dual generator.

    Degree-t coordinates live on W_t = span{x^alpha o F : |alpha| = t}; the
    basis tags are the first monomials (in canonical order) whose contraction
    images are independent, so dim W_t = HF(t) by Macaulay duality.  Both come
    from one RREF of the matrix whose columns are the images: the tags are its
    pivot columns, and column j of the RREF holds the coordinates of x^gamma_j.
    """
    if F.side != "s":
        raise ValueError("the dual generator must live on the divided-power side")
    if F.is_zero():
        raise ValueError("zero dual generator")
    d = F.homogeneous_degree()
    char = F.field.characteristic()
    if char != 0 and char <= d:
        raise CharacteristicError(
            f"field characteristic {char} must be zero or exceed the socle degree {d}"
        )
    field = F.field
    basis, coords, hv = [], [], []
    for cands, cols in _contraction_columns(F):
        pivot_cols, red = _echelon(list(zip(*cols)), field, reduced=True)
        basis.append(tuple(cands[j] for j in pivot_cols))
        coords.append(dict(zip(cands, zip(*red))))
        hv.append(len(pivot_cols))
    return GradedAlgebraModel(
        field, F.varset, "dual", d, HVector(hv), basis, coords, dual_generator=F
    )


def model_from_ideal(gens, bound: int) -> GradedAlgebraModel:
    """Model of R/I from homogeneous generators, computed degree by degree.

    I_t is the span of all monomial multiples of the generators; coset
    representatives are the non-pivot monomials.  Fails loudly if the algebra
    has not vanished by ``bound`` rather than truncating silently.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotArtinianError("no nonzero generators: the quotient is not Artinian")
    varset, field = gens[0].varset, gens[0].field
    for g in gens:
        if g.varset != varset or g.side != "r":
            raise ValueError("generators must share one ring variable set")
        field.require_same(g.field)
        g.homogeneous_degree()  # raises on inhomogeneous input
    if bound < 1:
        raise ValueError("degree bound must be at least 1")

    basis, coords, hv = [], [], []
    zero, one = field.zero(), field.one()
    for t in range(bound + 1):
        rmonos = varset.monomials(t)
        ridx = {mn: i for i, mn in enumerate(rmonos)}
        rows = []
        for g in gens:
            dg = g.homogeneous_degree()
            if dg > t:
                continue
            for mu in varset.monomials(t - dg):
                vec = [zero] * len(rmonos)
                for mono, c in g.terms.items():
                    vec[ridx[tuple(a + b for a, b in zip(mono, mu))]] = c
                rows.append(vec)
        pivot_cols, red = _echelon(rows, field, reduced=True)
        pivset = set(pivot_cols)
        tags = [rmonos[j] for j in range(len(rmonos)) if j not in pivset]
        h_t = len(tags)
        if t == bound and h_t != 0:
            raise NotArtinianError(
                f"degree-{bound} piece still has dimension {h_t}; "
                "raise the bound or check the ideal"
            )
        tagpos = {mn: i for i, mn in enumerate(tags)}
        table = {}
        for j, mono in enumerate(rmonos):
            if j not in pivset:
                vec = [zero] * h_t
                vec[tagpos[mono]] = one
                table[mono] = tuple(vec)
        for r, c in enumerate(pivot_cols):
            vec = [zero] * h_t
            for q, x in enumerate(red[r]):
                if q != c and x != 0:
                    # q is non-pivot here because RREF cleared pivot columns
                    vec[tagpos[rmonos[q]]] = field.neg(x)
            table[rmonos[c]] = tuple(vec)
        basis.append(tuple(tags))
        coords.append(table)
        hv.append(h_t)

    socle = max((t for t in range(bound + 1) if hv[t] > 0), default=None)
    if socle is None:
        raise ValueError("the ideal contains a unit; the quotient algebra is zero")
    char = field.characteristic()
    if char != 0 and char <= socle:
        raise CharacteristicError(
            f"field characteristic {char} must be zero or exceed the socle degree {socle}"
        )
    return GradedAlgebraModel(
        field,
        varset,
        "ideal",
        socle,
        HVector(hv[: socle + 1]),
        basis[: socle + 1],
        coords[: socle + 1],
        ideal_generators=tuple(gens),
    )


def _ell_by_pos(model: GradedAlgebraModel, ell):
    """A linear form as sorted (variable position, coefficient) pairs."""
    poly = as_linear_polynomial(ell, model.varset, model.field)
    return sorted((mono.index(1), c) for mono, c in poly.terms.items())


def _step_tensor(model: GradedAlgebraModel):
    """Sparse matrices of x_pos : A_i -> A_{i+1}, as ``tensor[i][pos]`` = the
    nonzero (row, column, entry) triples, for i = 0..d-1.  Built on the first
    call and kept on the model."""
    if model._steps is None:
        nvars = model.varset.nvars
        tensor = []
        for i in range(model.socle_degree):
            table, tags = model._coords[i + 1], model.basis_tags(i)
            by_pos = []
            for pos in range(nvars):
                entries = []
                for j, tag in enumerate(tags):
                    succ = tag[:pos] + (tag[pos] + 1,) + tag[pos + 1 :]
                    # a monomial missing from a dual model's table has zero coordinates
                    for r, x in enumerate(table.get(succ, ())):
                        if x:
                            entries.append((r, j, x))
                by_pos.append(entries)
            tensor.append(by_pos)
        model._steps = tensor
    return model._steps


def step_matrix_rows(model: GradedAlgebraModel, ell_by_pos, i: int):
    """Raw rows of multiplication by a linear form, degree i -> i+1: the
    contraction sum_pos c_pos X_pos of the model's multiplication tensor.

    ``ell_by_pos`` is a list of (variable position, coefficient) pairs.
    """
    h_src, h_tgt = model.h(i), model.h(i + 1)
    if not (h_src and h_tgt):
        return [[] for _ in range(h_tgt)]
    field = model.field
    rows = [[field.zero()] * h_src for _ in range(h_tgt)]
    by_pos = _step_tensor(model)[i]
    for pos, c in ell_by_pos:
        for r, j, x in by_pos[pos]:
            rows[r][j] += c * x
    p = field.modulus
    if p:
        return [[x % p for x in row] for row in rows]
    return rows


def mult_matrix(model: GradedAlgebraModel, ell, i: int, k: int) -> Matrix:
    """Matrix of multiplication by ell^k from the degree-i piece to the
    degree-(i+k) piece, in the model bases: k single steps composed."""
    if i < 0 or k < 0:
        raise ValueError("degree and power must be nonnegative")
    if i + k > model.socle_degree + 1:
        raise ValueError(
            f"target degree {i + k} exceeds socle degree {model.socle_degree} + 1"
        )
    field, h_src = model.field, model.h(i)
    by_pos = _ell_by_pos(model, ell)
    rows = Matrix.identity(h_src, field).rows
    for j in range(i, i + k):
        rows = mat_mul_rows(step_matrix_rows(model, by_pos, j), rows, field, h_src)
    return Matrix(rows, field, ncols=h_src)
