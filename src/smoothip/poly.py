"""Exact sparse polynomials over Boolean variables.

A polynomial in n variables is stored as a mapping from monomials to nonzero
rational coefficients.  A monomial is a sorted tuple of variable indices in
[0, n); the empty tuple is the constant term.  Repeated indices are permitted
so that products can be formed freely, and :func:`multilinearize` collapses
them using x_i^2 = x_i, which is valid on Boolean points.

The module also provides the smoothness measure (the smallest beta such that
every degree-l coefficient is at most beta * n^(d - l) in magnitude), the
hierarchical decomposition p(x) = c + sum_i x_i * p_i(x) obtained by
repeatedly extracting the lowest-indexed variable, and the two magnitude
bounds used by the relaxation: |p_I(x)| <= beta * (l + 1) * n^l on Boolean
points and |p(x)| <= 2 * beta * e * n^d on the unit cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .rat import E_UPPER

Monomial = tuple  # sorted tuple of variable indices; () is the constant term


class Polynomial:
    """Immutable-by-convention sparse polynomial with Fraction coefficients.

    ``degree`` is the declared degree: by default the actual total degree,
    but callers may override it upward (a quadratic may be treated as a
    degree-3 polynomial) since smoothness and the tolerance schedule are
    defined relative to the declared degree.  Do not mutate ``coeffs``.
    """

    __slots__ = ("n", "coeffs", "degree")

    def __init__(
        self,
        n: int,
        coeffs: Mapping[Iterable[int], Fraction | int] | None = None,
        degree: int | None = None,
    ):
        if n < 1:
            raise ValueError("need at least one variable")
        merged: dict[Monomial, Fraction] = {}
        for mono, coeff in (coeffs or {}).items():
            value = Fraction(coeff)
            if value == 0:
                continue
            key = tuple(sorted(mono))
            for i in key:
                if not 0 <= i < n:
                    raise ValueError(f"variable index {i} outside [0, {n})")
            merged[key] = merged.get(key, Fraction(0)) + value
        merged = {k: v for k, v in merged.items() if v != 0}
        actual = max((len(k) for k in merged), default=0)
        if degree is None:
            degree = actual
        elif degree < actual:
            raise ValueError(f"declared degree {degree} below actual {actual}")
        self.n = n
        self.coeffs = merged
        self.degree = degree

    @classmethod
    def _trusted(
        cls, n: int, coeffs: dict, degree: int | None = None
    ) -> "Polynomial":
        """A polynomial from coefficients that are already canonical:
        sorted keys with indices in [0, n), nonzero Fraction values.
        Skips the constructor's conversion, sorting and index checks, so
        it is only for polynomials derived from a checked one; the
        declared degree defaults to the actual one."""
        poly = object.__new__(cls)
        poly.n = n
        poly.coeffs = coeffs
        poly.degree = (
            max(map(len, coeffs), default=0) if degree is None else degree
        )
        return poly

    @classmethod
    def constant(cls, n: int, value: Fraction | int) -> "Polynomial":
        return cls(n, {(): Fraction(value)})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        return cls(n, {(i,): Fraction(1)})

    def with_degree(self, degree: int) -> "Polynomial":
        """Same polynomial with the declared degree raised to ``degree``."""
        actual = max(map(len, self.coeffs), default=0)
        if degree < actual:
            raise ValueError(f"declared degree {degree} below actual {actual}")
        return Polynomial._trusted(self.n, self.coeffs, degree)

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        if other.n != self.n:
            raise ValueError("variable counts differ")
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.constant(self.n, other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            scalar = Fraction(other)
            return Polynomial(
                self.n, {k: v * scalar for k, v in self.coeffs.items()}
            )
        if other.n != self.n:
            raise ValueError("variable counts differ")
        out: dict[Monomial, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        # Semantic equality: same variables, same canonical coefficients.
        # The declared degree is presentation metadata and not compared.
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None  # mapping payload; not hashable

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{mono}: {coeff}" for mono, coeff in sorted(self.coeffs.items())
        )
        return f"Polynomial(n={self.n}, degree={self.degree}, {{{terms}}})"


def evaluate(p: Polynomial, x: Sequence) -> Fraction:
    """Exact value of p at the point x (entries coerced to Fraction).

    At a Boolean point this is the sum of the coefficients of the monomials
    whose variables are all 1, taken without any products, as
    :class:`ScoreTable` takes it.
    """
    if len(x) != p.n:
        raise ValueError(f"point has {len(x)} entries, expected {p.n}")
    if all(v == 0 or v == 1 for v in x):
        return ScoreTable(p).value(x)
    point = [Fraction(v) for v in x]
    total = Fraction(0)
    for mono, coeff in p.coeffs.items():
        term = coeff
        for i in mono:
            term *= point[i]
        total += term
    return total


class ScoreTable:
    """A polynomial's coefficients over one denominator, to score Boolean
    points exactly without any Fraction arithmetic.

    The coefficients are put over the lcm L of their denominators, c_m =
    C_m / L; ``scale`` is L, and ``monomials`` and ``coeffs`` hold each
    monomial and its integer C_m, in the polynomial's order, and
    ``degree`` is the polynomial's declared degree.  This is the one
    integer form of a polynomial that smoothness
    (:func:`min_smoothness`), greedy rounding and the relaxation plan
    read.  At a Boolean point z, p(z) is the sum of the c_m whose
    variables are all 1, so :meth:`value` sums those C_m and builds one
    Fraction.  Immutable by convention, like :class:`Polynomial`;
    compares by value and pickles.  A plain class, because a
    dataclass's generated methods cost every import of the package.
    """

    def __init__(self, p: Polynomial):
        ratios = [c.as_integer_ratio() for c in p.coeffs.values()]
        self.n = p.n
        self.degree = p.degree
        self.scale = math.lcm(*(b for _, b in ratios))
        self.monomials = tuple(p.coeffs)
        self.coeffs = tuple([a * (self.scale // b) for a, b in ratios])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    __hash__ = None

    def value(self, z: Sequence) -> Fraction:
        """p(z), exactly, at a point z of 0s and 1s."""
        if len(z) != self.n:
            raise ValueError(f"point has {len(z)} entries, expected {self.n}")
        zeros = {i for i, v in enumerate(z) if not v}
        return Fraction(
            sum(compress(self.coeffs, map(zeros.isdisjoint, self.monomials))),
            self.scale,
        )


def is_multilinear(p: Polynomial) -> bool:
    return all(len(set(mono)) == len(mono) for mono in p.coeffs)


def multilinearize(p: Polynomial) -> Polynomial:
    """Collapse repeated variables via x_i^2 = x_i and merge monomials.

    The result agrees with p on every Boolean point; its declared degree is
    the collapsed actual degree.  A p that is already multilinear keeps
    its coefficients, shared, not copied.
    """
    if is_multilinear(p):
        return Polynomial._trusted(p.n, p.coeffs)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.coeffs.items():
        key = tuple(sorted(set(mono)))
        out[key] = out.get(key, 0) + coeff
    return Polynomial._trusted(p.n, {k: v for k, v in out.items() if v})


def min_smoothness(p: Polynomial | ScoreTable) -> Fraction:
    """Smallest beta such that p is beta-smooth at its declared degree;
    p is a polynomial or its :class:`ScoreTable`.

    beta-smooth means every monomial of degree l has |coefficient| at most
    beta * n^(degree - l); the constant term counts as degree 0.  With c_m
    = C_m / L, that is the largest |C_m| of each length l over L *
    n^(degree - l), so only one Fraction is made per length.
    """
    table = p if isinstance(p, ScoreTable) else ScoreTable(p)
    largest: dict[int, int] = {}
    for mono, coeff in zip(table.monomials, table.coeffs):
        size = abs(coeff)
        if size > largest.get(len(mono), 0):
            largest[len(mono)] = size
    scale, n, d = table.scale, table.n, table.degree
    return max(
        (Fraction(size, scale * n ** (d - l)) for l, size in largest.items()),
        default=Fraction(0),
    )


@dataclass(frozen=True)
class TreeNode:
    """One component of the decomposition: p_I, its constant, its children."""

    poly: Polynomial
    constant: Fraction
    children: tuple


@dataclass(frozen=True)
class DecompositionTree:
    """Hierarchy p_I(x) = c_I + sum_j x_j * p_(I,j)(x) for the whole of p.

    ``nodes`` maps each index tuple to its node; the empty tuple is the root
    (p itself).  Index tuples are strictly increasing because components are
    always extracted in ascending variable order, so the tuples are exactly
    the nonempty prefixes of the monomial variable tuples, plus the root.
    """

    root: Polynomial
    nodes: dict

    @property
    def constant(self) -> Fraction:
        """The top-level constant c in p(x) = c + sum_i x_i * p_i(x)."""
        return self.nodes[()].constant

    def component_keys(self):
        """All nonempty index tuples, in sorted order."""
        return sorted(k for k in self.nodes if k)


def decompose(p: Polynomial) -> DecompositionTree:
    """Canonical hierarchical decomposition of a multilinear polynomial.

    At every level the lowest-indexed variable present is extracted first:
    p_i collects the monomials whose minimum variable is i, divided by x_i,
    and the recursion continues on each p_i.  The output is deterministic
    and the reconstruction identity holds exactly at every node.
    """
    if not is_multilinear(p):
        raise ValueError("decompose requires a multilinear polynomial")
    nodes: dict[tuple, TreeNode] = {}
    # An explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which kept every tree alive until the
    # cyclic garbage collector ran.  Children are pushed in reverse so
    # that nodes are visited in preorder.
    stack = [((), p)]
    while stack:
        key, poly = stack.pop()
        const = poly.coeffs.get((), Fraction(0))
        groups: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in poly.coeffs.items():
            if mono:
                groups.setdefault(mono[0], {})[mono[1:]] = coeff
        children = tuple(sorted(groups))
        nodes[key] = TreeNode(poly=poly, constant=const, children=children)
        for j in reversed(children):
            stack.append((key + (j,), Polynomial._trusted(p.n, groups[j])))
    return DecompositionTree(root=p, nodes=nodes)


def component_bound(beta: Fraction | int, l: int, n: int) -> Fraction:
    """Bound beta * (l + 1) * n^l on |p_I(x)| over Boolean x, where l is the
    degree of the component (l = degree - |I|)."""
    if l < 0:
        raise ValueError("component degree must be non-negative")
    if n < 1:
        raise ValueError("need at least one variable")
    return Fraction(beta) * (l + 1) * Fraction(n) ** l


def global_bound(beta: Fraction | int, d: int, n: int) -> Fraction:
    """Bound 2 * beta * e * n^d on |p(x)| over the unit cube; needs n > d.

    e enters as the upper rational approximation, so the returned value is
    at least the true bound.
    """
    if n <= d:
        raise ValueError("bound requires n > d")
    return 2 * Fraction(beta) * E_UPPER * Fraction(n) ** d

