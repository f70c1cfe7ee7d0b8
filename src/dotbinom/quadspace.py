"""Diagonal quadratic spaces over small finite fields and canonical subspaces.

An ambient form is either the all-ones diagonal (dot) or all-ones with a
non-square last entry (lambda-dot).  Subspaces carry their reduced
row-echelon basis, so two equal subspaces are structurally equal values and
can be hashed, compared, and used as poset nodes directly.

The enumeration budgets and the poset kinds live here too, so the command
line can name them without importing the numpy-backed oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import AmbientMismatch, DimensionMismatch, NotALine
from .gf import FieldElement, FieldSpec, SquareClass

DEFAULT_BUDGET = 10**7  # subspaces one oracle enumeration may scan
DEFAULT_POSET_BUDGET = 20000  # poset subspaces, and the 64-bit words of their masks


class AmbientKind(Enum):
    DOT = "dot"
    LAMBDA_DOT = "lambda_dot"


class SubspaceClass(Enum):
    DOT_TYPE = "dot"
    LAMBDA_DOT_TYPE = "lambda_dot"
    DEGENERATE = "degenerate"


class LineType(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


class PosetKind(Enum):
    EUCLIDEAN = "euclidean"
    LORENTZIAN = "lorentzian"


class AmbientForm(NamedTuple):
    """(F_q^n, sum d_i x_i^2) with diagonal Gram entries d_i."""

    field: FieldSpec
    n: int
    kind: AmbientKind
    gram_diag: tuple[FieldElement, ...]


def dot_space(field: FieldSpec, n: int) -> AmbientForm:
    if n < 1:
        raise DimensionMismatch(f"ambient dimension {n} < 1")
    return AmbientForm(field, n, AmbientKind.DOT, (field.one,) * n)


def lambda_dot_space(
    field: FieldSpec, n: int, lam: FieldElement | None = None
) -> AmbientForm:
    """Last diagonal entry lam, a non-square; defaults to the canonical one."""
    if n < 1:
        raise DimensionMismatch(f"ambient dimension {n} < 1")
    if lam is None:
        lam = field.lambda_
    if field.square_class(lam) is not SquareClass.NON_SQUARE:
        raise DimensionMismatch("lambda entry must be a non-square")
    return AmbientForm(
        field, n, AmbientKind.LAMBDA_DOT, (field.one,) * (n - 1) + (lam,)
    )


def ambient_space(field: FieldSpec, kind, n: int) -> AmbientForm:
    """The dot or (canonical) lambda-dot ambient of dimension n."""
    if AmbientKind(kind) is AmbientKind.DOT:
        return dot_space(field, n)
    return lambda_dot_space(field, n)


class Subspace(NamedTuple):
    """A subspace held as its unique reduced row-echelon basis."""

    ambient: AmbientForm
    basis: tuple[tuple[FieldElement, ...], ...]

    @property
    def k(self) -> int:
        return len(self.basis)


def _rref(field: FieldSpec, rows, n: int):
    """Reduced row echelon form; returns (rows, pivot columns), zero rows dropped."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pr = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                c = mat[i][col]
                mat[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def span(ambient: AmbientForm, vectors) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient.n:
            raise DimensionMismatch(f"vector length {len(v)} != n = {ambient.n}")
    rows, _ = _rref(ambient.field, vectors, ambient.n)
    return Subspace(ambient, rows)


def zero_subspace(ambient: AmbientForm) -> Subspace:
    return Subspace(ambient, ())


def full_subspace(ambient: AmbientForm) -> Subspace:
    field = ambient.field
    rows = tuple(
        tuple(field.one if j == i else field.zero for j in range(ambient.n))
        for i in range(ambient.n)
    )
    return Subspace(ambient, rows)


def eval_form(ambient: AmbientForm, v) -> FieldElement:
    """Q(v) = sum d_i v_i^2."""
    v = tuple(v)
    if len(v) != ambient.n:
        raise DimensionMismatch(f"vector length {len(v)} != n = {ambient.n}")
    field = ambient.field
    acc = field.zero
    for d, x in zip(ambient.gram_diag, v):
        acc = field.add(acc, field.mul(d, field.mul(x, x)))
    return acc


def bilinear(ambient: AmbientForm, u, v) -> FieldElement:
    """B(u, v) = sum d_i u_i v_i, the polarization of the diagonal form."""
    u, v = tuple(u), tuple(v)
    if len(u) != ambient.n or len(v) != ambient.n:
        raise DimensionMismatch("vector length != ambient dimension")
    field = ambient.field
    acc = field.zero
    for d, x, y in zip(ambient.gram_diag, u, v):
        acc = field.add(acc, field.mul(d, field.mul(x, y)))
    return acc


def gram_of(sub: Subspace):
    """Gram matrix of the restricted form on the subspace basis."""
    amb = sub.ambient
    return tuple(
        tuple(bilinear(amb, u, v) for v in sub.basis) for u in sub.basis
    )


def _det(field: FieldSpec, mat) -> FieldElement:
    k = len(mat)
    if k == 0:
        return field.one
    m = [list(r) for r in mat]
    det = field.one
    for col in range(k):
        pr = next((i for i in range(col, k) if not m[i][col].is_zero()), None)
        if pr is None:
            return field.zero
        if pr != col:
            m[col], m[pr] = m[pr], m[col]
            det = field.neg(det)
        pivot = m[col][col]
        det = field.mul(det, pivot)
        inv = field.inv(pivot)
        for i in range(col + 1, k):
            if not m[i][col].is_zero():
                c = field.mul(inv, m[i][col])
                m[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[i], m[col])]
    return det


def classify(sub: Subspace) -> SubspaceClass:
    """Class by the square class of the Gram determinant; dim 0 counts as dot."""
    if sub.k == 0:
        return SubspaceClass.DOT_TYPE
    d = _det(sub.ambient.field, gram_of(sub))
    sc = sub.ambient.field.square_class(d)
    if sc is SquareClass.ZERO:
        return SubspaceClass.DEGENERATE
    if sc is SquareClass.SQUARE:
        return SubspaceClass.DOT_TYPE
    return SubspaceClass.LAMBDA_DOT_TYPE


def line_type(sub: Subspace) -> LineType:
    """Spacelike, timelike, or lightlike by the square class of Q on the line."""
    if sub.k != 1:
        raise NotALine(f"dimension {sub.k} subspace is not a line")
    sc = sub.ambient.field.square_class(eval_form(sub.ambient, sub.basis[0]))
    if sc is SquareClass.SQUARE:
        return LineType.SPACELIKE
    if sc is SquareClass.NON_SQUARE:
        return LineType.TIMELIKE
    return LineType.LIGHTLIKE


def perp(sub: Subspace) -> Subspace:
    """Orthogonal complement under B; dim perp = n - dim, and perp is an involution."""
    amb = sub.ambient
    field = amb.field
    n = amb.n
    weighted = [
        [field.mul(amb.gram_diag[j], row[j]) for j in range(n)] for row in sub.basis
    ]
    rows, pivots = _rref(field, weighted, n)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fcol in free_cols:
        v = [field.zero] * n
        v[fcol] = field.one
        for i, pcol in enumerate(pivots):
            v[pcol] = field.neg(rows[i][fcol])
        basis.append(tuple(v))
    canon, _ = _rref(field, basis, n)
    return Subspace(amb, canon)


def contains(big: Subspace, small: Subspace) -> bool:
    """Set containment, decided by reducing small's rows against big's basis."""
    if big.ambient != small.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    field = big.ambient.field
    pivots = [
        next(j for j, x in enumerate(row) if not x.is_zero()) for row in big.basis
    ]
    for row in small.basis:
        vec = list(row)
        for prow, pcol in zip(big.basis, pivots):
            c = vec[pcol]
            if not c.is_zero():
                vec = [field.sub(x, field.mul(c, y)) for x, y in zip(vec, prow)]
        if any(not x.is_zero() for x in vec):
            return False
    return True
