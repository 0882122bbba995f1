"""Jordan types of multiplication by a linear form on a graded Artinian
algebra, computed from exact rank data.

Two independent routes to the Jordan degree type are provided: a rank
double-difference formula on the profile r[i][k] = rank(ell^k : A_i ->
A_{i+k}), and a constructive graded string extraction that produces an
explicit Jordan basis.  The test suite holds them equal on every input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exactlinalg import Matrix, _echelon, mat_mul_rows, rank_rows
from .apolar import GradedAlgebraModel, _ell_by_pos, step_matrix_rows


class Partition:
    """Weakly decreasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    def total(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )

    def exponent_str(self) -> str:
        """Exponent-abbreviated rendering, e.g. (4,2^3,1^2)."""
        chunks = []
        for p, mult in sorted(Counter(self.parts).items(), reverse=True):
            chunks.append(f"{p}^{mult}" if mult > 1 else f"{p}")
        return "(" + ",".join(chunks) + ")"

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, (tuple, list)):
            return self.parts == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def conjugate_partition(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not isinstance(p, Partition):
        p = Partition(p)
    return p.conjugate()


def dominance_compare(p, q) -> str:
    """Dominance order verdict: 'greater', 'less', 'equal' or 'incomparable'.

    Prefix sums are compared after zero-padding to a common length, which for
    partitions of the same integer agrees with the truncated convention.
    Partitions of different integers live in different posets and raise.
    """
    p = p if isinstance(p, Partition) else Partition(p)
    q = q if isinstance(q, Partition) else Partition(q)
    if p.total() != q.total():
        raise ValueError(
            f"dominance undefined: partitions of {p.total()} and {q.total()}"
        )
    n = max(len(p), len(q))
    pp = list(p.parts) + [0] * (n - len(p))
    qq = list(q.parts) + [0] * (n - len(q))
    ge = le = True
    sp = sq = 0
    for a, b in zip(pp, qq):
        sp += a
        sq += b
        if sp < sq:
            ge = False
        if sp > sq:
            le = False
    if ge and le:
        return "equal"
    if ge:
        return "greater"
    if le:
        return "less"
    return "incomparable"


class JordanDegreeType:
    """Multiset of (string length, starting degree) pairs."""

    __slots__ = ("entries",)

    def __init__(self, pairs):
        if isinstance(pairs, Counter):
            entries = Counter(
                {(int(p), int(nu)): int(m) for (p, nu), m in pairs.items() if m}
            )
        else:
            entries = Counter((int(p), int(nu)) for p, nu in pairs)
        if any(m < 0 for m in entries.values()):
            raise ValueError("negative multiplicity")
        if any(p <= 0 or nu < 0 for p, nu in entries):
            raise ValueError("lengths must be positive and degrees nonnegative")
        self.entries = entries

    def partition(self) -> Partition:
        parts = []
        for (p, _nu), mult in self.entries.items():
            parts.extend([p] * mult)
        return Partition(parts)

    def bead_counts(self) -> tuple:
        """Number of beads sitting in each degree; equals the h-vector for a
        Jordan degree type coming from a graded Jordan basis."""
        if not self.entries:
            return ()
        top = max(nu + p - 1 for p, nu in self.entries)
        counts = [0] * (top + 1)
        for (p, nu), mult in self.entries.items():
            for i in range(nu, nu + p):
                counts[i] += mult
        return tuple(counts)

    def __eq__(self, other):
        if isinstance(other, JordanDegreeType):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __str__(self):
        chunks = []
        for (p, nu), mult in sorted(
            self.entries.items(), key=lambda kv: (-kv[0][0], kv[0][1])
        ):
            s = f"{p}_{nu}"
            chunks.append(f"{s}^{mult}" if mult > 1 else s)
        return ",".join(chunks) if chunks else "()"

    def __repr__(self):
        return f"JordanDegreeType({self})"


@dataclass
class JordanString:
    """One string of a graded Jordan basis: coordinate vectors of the beads
    z, ell*z, ..., starting in ``start_degree``."""

    start_degree: int
    beads: list

    @property
    def length(self) -> int:
        return len(self.beads)


@dataclass
class LefschetzFlags:
    weak: bool
    strong: bool


class _PowerMaps:
    """Matrices of ell^k : A_i -> A_{i+k}, built by composing single steps;
    also memoizes ranks and graded kernels."""

    def __init__(self, model: GradedAlgebraModel, ell):
        field = model.field
        by_pos = _ell_by_pos(model, ell)
        self.model = model
        self.field = field
        d = model.socle_degree
        self._maps = {}
        steps = [step_matrix_rows(model, by_pos, i) for i in range(d)]
        for i in range(d):
            rows = steps[i]
            self._maps[(i, 1)] = rows
            dead = not any(map(any, rows))
            zero_row = [field.zero()] * model.h(i)
            for k in range(2, d - i + 1):
                if dead:
                    # maps are only read, so the zero rows may share one list
                    self._maps[(i, k)] = [zero_row] * model.h(i + k)
                    continue
                rows = mat_mul_rows(steps[i + k - 1], rows, field, model.h(i))
                self._maps[(i, k)] = rows
                dead = not any(map(any, rows))
        self._ranks = {}
        self._kernels = {}

    def rows(self, i: int, k: int):
        d = self.model.socle_degree
        if i + k > d or not (0 <= i <= d):
            return []  # the target space is zero
        if k == 0:
            return Matrix.identity(self.model.h(i), self.field).rows
        return self._maps[(i, k)]

    def rank(self, i: int, k: int) -> int:
        d = self.model.socle_degree
        if i < 0 or i > d:
            return 0
        if k == 0:
            return self.model.h(i)
        if i + k > d:
            return 0
        key = (i, k)
        if key not in self._ranks:
            self._ranks[key] = rank_rows(self._maps[key], self.field, self.model.h(i))
        return self._ranks[key]

    def kernel(self, i: int, p: int):
        """Basis of ker(ell^p) inside the degree-i piece; p = 0 gives the
        zero subspace, targets past the socle give the whole piece."""
        d = self.model.socle_degree
        h_i = self.model.h(i)
        if h_i == 0 or p == 0:
            return []
        key = (i, p)
        if key not in self._kernels:
            if i + p > d:
                self._kernels[key] = Matrix.identity(h_i, self.field).rows
            else:
                self._kernels[key] = Matrix(
                    self._maps[(i, p)], self.field, ncols=h_i
                ).kernel_basis()
        return self._kernels[key]

    def apply_step(self, i: int, vec):
        """Image of a degree-i coordinate vector under one multiplication."""
        field = self.field
        rows = self.rows(i, 1)
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        if field.kind == field.PRIME:
            p = field.modulus
            return [sum(row[j] * x for j, x in nonzero) % p for row in rows]
        zero = field.zero()
        return [sum((row[j] * x for j, x in nonzero), zero) for row in rows]


class RankProfile:
    """Table r[i][k] = rank of ell^k : A_i -> A_{i+k} with the boundary
    conventions r[i][0] = h_i, r[-1][k] = 0, and r[i][k] = 0 past the socle."""

    __slots__ = ("hvector", "socle_degree", "_table")

    def __init__(self, hvector, table):
        self.hvector = hvector
        self.socle_degree = hvector.socle_degree()
        self._table = table

    def r(self, i: int, k: int) -> int:
        if i < 0 or i > self.socle_degree or k < 0:
            return 0
        if k == 0:
            return self.hvector[i]
        return self._table.get((i, k), 0)

    def total_rank(self, k: int) -> int:
        if k == 0:
            return self.hvector.total()
        return sum(self._table.get((i, k), 0) for i in range(self.socle_degree + 1))

    def jordan_type(self) -> Partition:
        d = self.socle_degree
        totals = [self.total_rank(k) for k in range(d + 3)]
        parts = []
        for k in range(1, d + 3):
            ge_k = totals[k - 1] - totals[k]
            ge_next = totals[k] - totals[k + 1] if k + 1 < len(totals) else 0
            parts.extend([k] * (ge_k - ge_next))
        out = Partition(parts)
        if out.total() != self.hvector.total():
            raise RuntimeError("rank profile inconsistent with the dimension")
        return out

    def jordan_degree_type(self) -> JordanDegreeType:
        d = self.socle_degree
        pairs = Counter()
        for i in range(d + 1):
            for p in range(1, d + 2 - i):
                s = (self.r(i, p - 1) - self.r(i, p)) - (
                    self.r(i - 1, p) - self.r(i - 1, p + 1)
                )
                if s < 0:
                    raise RuntimeError(
                        f"negative string multiplicity s[{i}][{p}] = {s}; "
                        "the rank profile is not graded-consistent"
                    )
                if s:
                    pairs[(p, i)] = s
        return JordanDegreeType(pairs)


def _profile_from_maps(pm: _PowerMaps) -> RankProfile:
    model = pm.model
    d = model.socle_degree
    table = {}
    for i in range(d + 1):
        # k = d - i reaches the socle; larger k is zero by convention
        for k in range(1, d - i + 1):
            rk = pm.rank(i, k)
            if rk:
                table[(i, k)] = rk
    return RankProfile(model.hvector, table)


def rank_profile(model: GradedAlgebraModel, ell) -> RankProfile:
    """Exact ranks of all graded multiplication maps by powers of ell."""
    return _profile_from_maps(_PowerMaps(model, ell))


def jordan_type(model: GradedAlgebraModel, ell) -> Partition:
    """Block sizes of the nilpotent multiplication map by ell on the whole
    algebra: the number of parts >= k is rank(ell^(k-1)) - rank(ell^k)."""
    return rank_profile(model, ell).jordan_type()


def jordan_degree_type(model: GradedAlgebraModel, ell) -> JordanDegreeType:
    """Multiset of (string length, starting degree): multiplicity of (p, i)
    is the rank double difference
    (r[i][p-1] - r[i][p]) - (r[i-1][p] - r[i-1][p+1])."""
    return rank_profile(model, ell).jordan_degree_type()


def jordan_strings(model: GradedAlgebraModel, ell):
    """Explicit graded Jordan basis, extracted greedily.

    Target lengths are processed from longest to shortest and degrees from
    lowest to highest; heads of length-p strings in degree i are chosen by
    first-independent-vector pivoting inside ker(ell^p) against the subspace
    ker(ell^(p-1)) + ell*ker(ell^(p+1)), whose cosets are exactly the heads.
    The returned beads are checked to form a basis of the algebra, and every
    string of length p satisfies ell^p z = 0 exactly.
    """
    pm = _PowerMaps(model, ell)
    d = model.socle_degree
    strings = []
    for p in range(d + 1, 0, -1):
        for i in range(d + 1):
            cands = pm.kernel(i, p)
            if not cands:
                continue
            span = pm.kernel(i, p - 1)
            if i > 0:
                # a new list, not +=: the kernel bases are memoized
                span = span + [pm.apply_step(i - 1, w) for w in pm.kernel(i - 1, p + 1)]
            # the heads are the pivot columns of [span | cands] among cands
            pivot_cols, _ = _echelon(list(zip(*span, *cands)), model.field)
            for c in pivot_cols:
                if c >= len(span):
                    beads = [cands[c - len(span)]]
                    for j in range(p - 1):
                        beads.append(pm.apply_step(i + j, beads[-1]))
                    strings.append(JordanString(i, beads))
    _check_strings(model, pm, strings)
    return strings


def _check_strings(model, pm, strings):
    d = model.socle_degree
    per_degree = {t: [] for t in range(d + 1)}
    for s in strings:
        for j, bead in enumerate(s.beads):
            per_degree[s.start_degree + j].append(bead)
        # the string must terminate: one more step lands on zero
        tail = s.start_degree + len(s.beads) - 1
        if tail < d:
            img = pm.apply_step(tail, s.beads[-1])
            if any(x != 0 for x in img):
                raise RuntimeError("string does not terminate: ell^p z != 0")
    for t, beads in per_degree.items():
        if rank_rows(beads, model.field) != len(beads):
            raise RuntimeError("extracted beads are not independent")
        if len(beads) != model.h(t):
            raise RuntimeError("extracted beads do not fill the algebra")


def strings_degree_type(strings) -> JordanDegreeType:
    """The (length, starting degree) multiset of an extracted string family."""
    return JordanDegreeType((s.length, s.start_degree) for s in strings)


def lefschetz_check(model: GradedAlgebraModel, ell) -> LefschetzFlags:
    """Weak: every single-step multiplication has maximal rank.  Strong: the
    Jordan type equals the conjugate of the h-vector sorted decreasingly
    (equivalently, all powers have maximal rank in all degrees)."""
    profile = rank_profile(model, ell)
    return _lefschetz_from_profile(profile)


def _lefschetz_from_profile(profile: RankProfile) -> LefschetzFlags:
    h = profile.hvector
    d = profile.socle_degree
    weak = all(
        profile.r(i, 1) == min(h[i], h[i + 1]) for i in range(d)
    )
    strong = profile.jordan_type() == Partition(sorted(h, reverse=True)).conjugate()
    return LefschetzFlags(weak=weak, strong=strong)
