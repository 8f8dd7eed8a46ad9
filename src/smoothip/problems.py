"""Combinatorial problem encodings and instance plumbing.

MAX-CUT, MAX-k-SAT, and MAX-k-CSP all become Boolean polynomial
maximization: the encoders below produce multilinear polynomials whose
value at a Boolean point is exactly the combinatorial count (cut size,
satisfied clauses, satisfied constraints).  Direct evaluators are provided
alongside as independent cross-checks; they never touch the polynomial
path.

Smoothness comes for free from the encodings: cut polynomials are
2-smooth, width-k clause polynomials are 4^k-smooth, and CSP indicator
sums are M * 2^k-smooth where M is the largest number of constraints
sharing one scope.

Instances travel as DIMACS edge files, DIMACS CNF files, or a small JSON
shape for CSPs (scope array plus truth-table bitstring, most significant
bit first).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

from .poly import Polynomial

# Most variables an instance file may declare.  The parsers check the
# header against it before anything is sized by n, so that the work and
# memory of reading a file are bounded by the file, not by one number in
# its header.
MAX_VARIABLES = 1 << 20


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 without self-loops or
    duplicate edges; edges are stored sorted as (low, high) pairs."""

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        normal = []
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            normal.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(normal)))


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 0..n-1.

    A clause is a tuple of (variable, is_positive) literals; a variable
    appears at most once per clause.  Duplicate clauses are kept, they
    act as clause weights.
    """

    n: int
    clauses: tuple

    def __post_init__(self):
        normal = []
        for clause in self.clauses:
            if len(clause) == 0:
                raise ValueError("empty clause")
            vars_seen = set()
            lits = []
            for var, positive in clause:
                if not 0 <= var < self.n:
                    raise ValueError(f"variable {var} out of range")
                if var in vars_seen:
                    raise ValueError(f"variable {var} repeated in a clause")
                vars_seen.add(var)
                lits.append((var, bool(positive)))
            normal.append(tuple(lits))
        object.__setattr__(self, "clauses", tuple(normal))


@dataclass(frozen=True)
class CspInstance:
    """Width-k constraints, each a scope of k distinct variables plus a
    dense truth table of 2^k flags.

    Table index: the value of scope[0] is the most significant bit, so
    constraint (scope, table) holds at z iff table[a] = 1 where
    a = sum_r z[scope[r]] << (k - 1 - r).
    """

    n: int
    k: int
    constraints: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("constraint width must be at least 1")
        normal = []
        for scope, table in self.constraints:
            scope = tuple(scope)
            if len(scope) != self.k or len(set(scope)) != self.k:
                raise ValueError(f"scope {scope} is not {self.k} distinct variables")
            if not all(0 <= v < self.n for v in scope):
                raise ValueError(f"scope {scope} out of range")
            if len(table) != 2**self.k:
                raise ValueError("truth table size mismatch")
            flags = tuple(int(b) for b in table)
            if any(f not in (0, 1) for f in flags):
                raise ValueError("truth table entries must be 0 or 1")
            normal.append((scope, flags))
        object.__setattr__(self, "constraints", tuple(normal))


def max_scope_multiplicity(inst: CspInstance) -> int:
    counts = Counter(frozenset(scope) for scope, _ in inst.constraints)
    return max(counts.values(), default=0)


# -- encoders -----------------------------------------------------------


def maxcut_objective(g: Graph) -> Polynomial:
    """Cut-size polynomial: each edge contributes x_i + x_j - 2 x_i x_j."""
    coeffs: dict = {}
    for i, j in g.edges:
        coeffs[(i,)] = coeffs.get((i,), 0) + 1
        coeffs[(j,)] = coeffs.get((j,), 0) + 1
        coeffs[(i, j)] = coeffs.get((i, j), 0) - 2
    return Polynomial(g.n, coeffs, degree=2)


def _indicator(literals) -> dict:
    """Coefficients of the product over (var, value) of [x_var = value],
    that is x_var for value 1 and 1 - x_var for value 0; the variables
    are distinct, so no two terms share a monomial."""
    terms = {(): 1}
    for var, value in literals:
        grown = {}
        for mono, coeff in terms.items():
            key = tuple(sorted(mono + (var,)))
            if value:
                grown[key] = coeff
            else:
                grown[mono] = coeff
                grown[key] = -coeff
        terms = grown
    return terms


def maxksat_objective(f: CnfFormula) -> Polynomial:
    """Satisfied-clause count as sum of 1 - (clause falsified).

    Clause widths must be uniform; the width becomes the degree.
    """
    widths = {len(c) for c in f.clauses}
    if len(widths) > 1:
        raise ValueError(f"mixed clause widths {sorted(widths)}")
    # One coefficient map for the whole formula, one Polynomial at the end.
    coeffs: dict = {}
    for clause in f.clauses:
        coeffs[()] = coeffs.get((), 0) + 1
        falsified = ((var, not positive) for var, positive in clause)
        for mono, coeff in _indicator(falsified).items():
            coeffs[mono] = coeffs.get(mono, 0) - coeff
    # Declare the clause width as the degree even if top monomials cancel.
    # min_smoothness of this polynomial is judged against the width, but
    # prepare multilinearizes, which resets the degree to the collapsed
    # one, and takes beta (and the tolerance schedule) at that degree.
    return Polynomial(f.n, coeffs, widths.pop() if widths else None)


def maxkcsp_objective(inst: CspInstance) -> Polynomial:
    """Satisfied-constraint count as a sum of assignment indicators."""
    coeffs: dict = {}
    for scope, table in inst.constraints:
        for a, flag in enumerate(table):
            if not flag:
                continue
            bits = (
                (var, (a >> (inst.k - 1 - r)) & 1)
                for r, var in enumerate(scope)
            )
            for mono, coeff in _indicator(bits).items():
                coeffs[mono] = coeffs.get(mono, 0) + coeff
    return Polynomial(inst.n, coeffs, inst.k)


# -- direct evaluators (independent of the polynomial path) -------------


def cut_size(g: Graph, z) -> int:
    return sum(1 for i, j in g.edges if z[i] != z[j])


def satisfied_count(f: CnfFormula, z) -> int:
    return sum(
        1
        for clause in f.clauses
        if any(bool(z[var]) == positive for var, positive in clause)
    )


def csp_satisfied_count(inst: CspInstance, z) -> int:
    hits = 0
    for scope, table in inst.constraints:
        a = 0
        for r, var in enumerate(scope):
            a |= int(bool(z[var])) << (inst.k - 1 - r)
        hits += table[a]
    return hits


# -- generators ---------------------------------------------------------


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


def gen_ksat(n: int, m: int, k: int, seed: int) -> CnfFormula:
    """m clauses of k distinct variables each, signs uniform."""
    if not 1 <= k <= n:
        raise ValueError(f"clause width {k} outside [1, {n}]")
    if m < 0:
        raise ValueError("negative clause count")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        chosen = sorted(rng.sample(range(n), k))
        clauses.append(tuple((v, rng.random() < 0.5) for v in chosen))
    return CnfFormula(n, tuple(clauses))


def gen_kcsp(n: int, m: int, k: int, seed: int) -> CspInstance:
    """m random width-k constraints with uniform truth tables."""
    if not 1 <= k <= n:
        raise ValueError(f"constraint width {k} outside [1, {n}]")
    if m < 0:
        raise ValueError("negative constraint count")
    rng = random.Random(seed)
    constraints = []
    for _ in range(m):
        scope = tuple(sorted(rng.sample(range(n), k)))
        table = tuple(rng.randint(0, 1) for _ in range(2**k))
        constraints.append((scope, table))
    return CspInstance(n, k, tuple(constraints))


# -- file formats -------------------------------------------------------


def write_dimacs_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {i + 1} {j + 1}" for i, j in g.edges)
    return "\n".join(lines) + "\n"


def _declared(n: int) -> int:
    """A header's variable count, rejected when above MAX_VARIABLES."""
    if n > MAX_VARIABLES:
        raise ValueError(
            f"{n} variables exceeds the limit of {MAX_VARIABLES} per instance"
        )
    return n


def parse_dimacs_graph(text: str) -> Graph:
    n = None
    declared = 0
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None or len(fields) != 4 or fields[1] != "edge":
                raise ValueError(f"bad header {line!r}")
            n, declared = _declared(int(fields[2])), int(fields[3])
        elif fields[0] == "e":
            if n is None:
                raise ValueError("edge before header")
            if len(fields) != 3:
                raise ValueError(f"bad edge line {line!r}")
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing problem header")
    if len(edges) != declared:
        raise ValueError(f"header declares {declared} edges, found {len(edges)}")
    return Graph(n, tuple(edges))


def write_dimacs_cnf(f: CnfFormula) -> str:
    lines = [f"p cnf {f.n} {len(f.clauses)}"]
    for clause in f.clauses:
        body = " ".join(
            str(var + 1 if positive else -(var + 1)) for var, positive in clause
        )
        lines.append(f"{body} 0")
    return "\n".join(lines) + "\n"


def parse_dimacs_cnf(text: str) -> CnfFormula:
    """Read DIMACS CNF; clauses end at 0 and may span lines."""
    n = None
    declared = 0
    clauses = []
    pending: list = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None or len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad header {line!r}")
            n, declared = _declared(int(fields[2])), int(fields[3])
            continue
        if n is None:
            raise ValueError("clause before header")
        for token in fields:
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                var = abs(lit) - 1
                if var >= n:
                    raise ValueError(f"literal {lit} out of range")
                pending.append((var, lit > 0))
    if pending:
        raise ValueError("unterminated clause")
    if n is None:
        raise ValueError("missing problem header")
    if len(clauses) != declared:
        raise ValueError(
            f"header declares {declared} clauses, found {len(clauses)}"
        )
    return CnfFormula(n, tuple(clauses))


def write_csp_json(inst: CspInstance) -> str:
    payload = {
        "n": inst.n,
        "k": inst.k,
        "constraints": [
            {
                "scope": list(scope),
                "table": "".join("1" if b else "0" for b in table),
            }
            for scope, table in inst.constraints
        ],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def parse_csp_json(text: str) -> CspInstance:
    """The CSP JSON shape: integers n and k, and a list of constraints,
    each an object with a "scope" list of integers and a "table" string
    of 0s and 1s.  Anything else raises ValueError."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    try:
        n, k = payload["n"], payload["k"]
        raw = payload["constraints"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing field {exc}") from exc
    if type(n) is not int or type(k) is not int or type(raw) is not list:
        raise ValueError("n and k must be integers and constraints a list")
    _declared(n)
    constraints = []
    for entry in raw:
        fields = entry if type(entry) is dict else {}
        scope, table = fields.get("scope"), fields.get("table")
        if type(scope) is not list or any(type(v) is not int for v in scope):
            raise ValueError(f"bad scope in constraint {entry!r}")
        if type(table) is not str or set(table) - {"0", "1"}:
            raise ValueError(f"bad table bitstring in constraint {entry!r}")
        constraints.append((tuple(scope), tuple(int(ch) for ch in table)))
    return CspInstance(n, k, tuple(constraints))
