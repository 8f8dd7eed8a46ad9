import itertools
import random
from fractions import Fraction

import pytest

from exact_reference import (
    additive_maxkcsp_objective,
    additive_maxksat_objective,
)
from smoothip.poly import (
    Polynomial,
    evaluate,
    is_multilinear,
    min_smoothness,
)
from smoothip.problems import (
    MAX_VARIABLES,
    CnfFormula,
    CspInstance,
    Graph,
    csp_satisfied_count,
    cut_size,
    gen_gnp,
    gen_kcsp,
    gen_ksat,
    max_scope_multiplicity,
    maxcut_objective,
    maxkcsp_objective,
    maxksat_objective,
    parse_csp_json,
    parse_dimacs_cnf,
    parse_dimacs_graph,
    satisfied_count,
    write_csp_json,
    write_dimacs_cnf,
    write_dimacs_graph,
)

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


# -- domain types -------------------------------------------------------


def test_graph_normalizes_edge_order():
    g = Graph(4, ((2, 1), (3, 0)))
    assert g.edges == ((0, 3), (1, 2))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))


def test_cnf_rejects_degenerate_clauses():
    with pytest.raises(ValueError):
        CnfFormula(2, (((0, True), (0, False)),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))
    with pytest.raises(ValueError):
        CnfFormula(2, (((2, True),),))


def test_cnf_keeps_duplicate_clauses():
    clause = ((0, True), (1, False))
    f = CnfFormula(2, (clause, clause))
    assert len(f.clauses) == 2


def test_csp_validation():
    with pytest.raises(ValueError):
        CspInstance(3, 2, (((0, 0), (1, 0, 0, 1)),))
    with pytest.raises(ValueError):
        CspInstance(3, 2, (((0, 1), (1, 0)),))
    with pytest.raises(ValueError):
        CspInstance(3, 0, ())
    inst = CspInstance(3, 2, (((0, 1), (True, False, False, True)),))
    assert inst.constraints[0][1] == (1, 0, 0, 1)


def test_scope_multiplicity_ignores_order():
    inst = CspInstance(
        4,
        2,
        (
            ((0, 1), (1, 0, 0, 1)),
            ((1, 0), (0, 1, 1, 0)),
            ((2, 3), (1, 1, 1, 1)),
        ),
    )
    assert max_scope_multiplicity(inst) == 2
    assert max_scope_multiplicity(CspInstance(2, 1, ())) == 0


# -- cut encoding -------------------------------------------------------


def test_triangle_cut_value():
    p = maxcut_objective(K3)
    assert evaluate(p, (1, 0, 0)) == 2
    assert evaluate(p, (1, 1, 1)) == 0


def test_edgeless_graph_is_zero():
    assert maxcut_objective(Graph(5, ())) == Polynomial(5, {})


def test_single_edge_smoothness():
    p = maxcut_objective(Graph(2, ((0, 1),)))
    assert min_smoothness(p) <= 2
    assert p.degree == 2


def test_cut_polynomial_counts_crossing_edges():
    rng = random.Random(5)
    for _ in range(10):
        g = gen_gnp(rng.randint(2, 7), rng.random(), rng.randrange(10**6))
        p = maxcut_objective(g)
        assert is_multilinear(p)
        assert min_smoothness(p) <= 2
        for z in itertools.product((0, 1), repeat=g.n):
            assert evaluate(p, z) == cut_size(g, z)


# -- clause encoding ----------------------------------------------------


def test_single_clause_values():
    f = CnfFormula(2, (((0, True), (1, True)),))
    p = maxksat_objective(f)
    assert evaluate(p, (0, 0)) == 0
    assert evaluate(p, (1, 0)) == 1
    assert evaluate(p, (0, 1)) == 1


def test_repeated_clauses_add_up():
    clause = ((0, True), (1, False), (2, True))
    f = CnfFormula(3, (clause,) * 5)
    p = maxksat_objective(f)
    assert evaluate(p, (1, 0, 0)) == 5
    assert evaluate(p, (0, 1, 0)) == 0


def test_mixed_widths_rejected():
    f = CnfFormula(3, (((0, True),), ((1, True), (2, False))))
    with pytest.raises(ValueError):
        maxksat_objective(f)


def test_clause_polynomial_counts_satisfied_clauses():
    rng = random.Random(9)
    f = gen_ksat(8, 40, 3, 123)
    p = maxksat_objective(f)
    assert is_multilinear(p)
    assert p.degree == 3
    assert min_smoothness(p) <= 4**3
    for _ in range(500):
        z = tuple(rng.randint(0, 1) for _ in range(8))
        assert evaluate(p, z) == satisfied_count(f, z)


def test_empty_formula():
    assert maxksat_objective(CnfFormula(3, ())) == Polynomial(3, {})


def assert_same_encoding(actual, expected):
    assert actual.n == expected.n
    assert actual.coeffs == expected.coeffs
    assert actual.degree == expected.degree
    assert all(type(c) is Fraction for c in actual.coeffs.values())


def random_cnf(rng, n, k, m):
    return CnfFormula(n, tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(n), k))
        for _ in range(m)
    ))


def test_clause_encoding_is_the_sum_of_clause_polynomials():
    # (x0 or x1) + (not x0 or x1) = 1 + x1: the x0 and x0 x1 terms cancel,
    # and so do most terms of the small random formulas below.
    cancel = CnfFormula(2, (((0, True), (1, True)), ((0, False), (1, True))))
    assert maxksat_objective(cancel) == Polynomial(2, {(): 1, (1,): 1})
    formulas = [cancel, CnfFormula(4, ())]
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(1, min(n, 4))
        formulas.append(random_cnf(rng, n, k, rng.randint(1, 12)))
    formulas.append(gen_ksat(36, 144, 3, 7))
    for f in formulas:
        assert_same_encoding(
            maxksat_objective(f), additive_maxksat_objective(f)
        )


def test_csp_encoding_is_the_sum_of_assignment_indicators():
    # Complementary tables on one scope sum to the constant 1.
    complement = CspInstance(
        3, 2, (((0, 2), (1, 0, 0, 1)), ((2, 0), (0, 1, 1, 0)))
    )
    assert maxkcsp_objective(complement) == Polynomial(3, {(): 1})
    instances = [complement, CspInstance(4, 3, ())]
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(1, min(n, 3))
        instances.append(CspInstance(n, k, tuple(
            (tuple(rng.sample(range(n), k)),
             tuple(rng.randint(0, 1) for _ in range(2**k)))
            for _ in range(rng.randint(1, 8))
        )))
    instances.append(gen_kcsp(10, 24, 3, 3))
    for inst in instances:
        assert_same_encoding(
            maxkcsp_objective(inst), additive_maxkcsp_objective(inst)
        )


# -- csp encoding -------------------------------------------------------


def test_xor_constraint():
    inst = CspInstance(2, 2, (((0, 1), (0, 1, 1, 0)),))
    p = maxkcsp_objective(inst)
    assert evaluate(p, (1, 0)) == 1
    assert evaluate(p, (1, 1)) == 0
    assert p == Polynomial(2, {(0,): 1, (1,): 1, (0, 1): -2})


def test_all_true_table_collapses_to_one():
    inst = CspInstance(3, 2, (((0, 2), (1, 1, 1, 1)),))
    assert maxkcsp_objective(inst) == Polynomial(3, {(): 1})


def test_table_orientation_first_scope_entry_is_high_bit():
    # Table 1000: satisfied only when scope[0] = 1 and scope[1] = 0 read
    # in scope order, regardless of variable numbering.
    inst = CspInstance(2, 2, (((1, 0), (0, 0, 1, 0)),))
    p = maxkcsp_objective(inst)
    assert evaluate(p, (0, 1)) == 1
    assert evaluate(p, (1, 0)) == 0
    assert csp_satisfied_count(inst, (0, 1)) == 1


def test_duplicate_scope_smoothness():
    rng = random.Random(31)
    scope = (1, 3)
    constraints = tuple(
        (scope, tuple(rng.randint(0, 1) for _ in range(4))) for _ in range(3)
    )
    inst = CspInstance(5, 2, constraints)
    assert max_scope_multiplicity(inst) == 3
    assert min_smoothness(maxkcsp_objective(inst)) <= 3 * 2**2


def test_csp_polynomial_counts_satisfied_constraints():
    for seed in (0, 7, 81):
        inst = gen_kcsp(6, 12, 2, seed)
        p = maxkcsp_objective(inst)
        assert is_multilinear(p)
        bound = max_scope_multiplicity(inst) * 2**inst.k
        assert min_smoothness(p) <= bound
        for z in itertools.product((0, 1), repeat=6):
            assert evaluate(p, z) == csp_satisfied_count(inst, z)


# -- generators ---------------------------------------------------------


def test_gnp_extremes():
    assert len(gen_gnp(8, 1.0, 3).edges) == 28
    assert gen_gnp(8, 0.0, 3).edges == ()


def test_generators_are_deterministic():
    assert gen_gnp(10, 0.4, 5) == gen_gnp(10, 0.4, 5)
    assert gen_ksat(10, 50, 3, 5) == gen_ksat(10, 50, 3, 5)
    assert gen_kcsp(10, 20, 3, 5) == gen_kcsp(10, 20, 3, 5)
    assert gen_ksat(10, 50, 3, 5) != gen_ksat(10, 50, 3, 6)


def test_ksat_clauses_use_distinct_variables():
    f = gen_ksat(6, 30, 3, 11)
    for clause in f.clauses:
        assert len({var for var, _ in clause}) == 3


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one vertex"):
            gen_gnp(n, 0.5, 0)
    with pytest.raises(ValueError):
        gen_ksat(3, 5, 4, 0)
    with pytest.raises(ValueError):
        gen_kcsp(3, -1, 2, 0)


# -- file formats -------------------------------------------------------


def test_parse_canonical_graph():
    text = "c a comment\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
    assert parse_dimacs_graph(text) == K3


def test_graph_round_trip():
    g = gen_gnp(9, 0.5, 17)
    assert parse_dimacs_graph(write_dimacs_graph(g)) == g


def test_graph_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs_graph("p edge 3 2\ne 1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs_graph("e 1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs_graph("p graph 3 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_graph("p edge 3 1\nx 1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs_graph("p edge 2 1\ne 1 5\n")


def test_parse_canonical_cnf():
    f = parse_dimacs_cnf("p cnf 2 1\n1 -2 0\n")
    assert f.clauses == (((0, True), (1, False)),)


def test_cnf_round_trip_and_multiline_clauses():
    f = gen_ksat(12, 30, 3, 23)
    assert parse_dimacs_cnf(write_dimacs_cnf(f)) == f
    split = parse_dimacs_cnf("p cnf 3 1\n1 2\n3 0\n")
    assert split.clauses == (((0, True), (1, True), (2, True)),)


def test_cnf_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 2 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 2 2\n1 0\n")
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p cnf 2 1\n3 0\n")


def test_parsers_reject_a_variable_count_above_the_limit():
    headers = (
        (parse_dimacs_graph, "p edge {} 0\n"),
        (parse_dimacs_cnf, "p cnf {} 0\n"),
        (parse_csp_json, '{{"n": {}, "k": 1, "constraints": []}}'),
    )
    for parse, header in headers:
        assert parse(header.format(MAX_VARIABLES)).n == MAX_VARIABLES
        for n in (MAX_VARIABLES + 1, 10**8):
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse(header.format(n))


def test_csp_json_round_trip():
    inst = gen_kcsp(7, 15, 2, 29)
    assert parse_csp_json(write_csp_json(inst)) == inst


def test_csp_json_errors():
    with pytest.raises(ValueError):
        parse_csp_json("not json")
    with pytest.raises(ValueError):
        parse_csp_json('{"n": 2, "k": 1}')
    with pytest.raises(ValueError):
        parse_csp_json(
            '{"n": 2, "k": 1, "constraints":'
            ' [{"scope": [0], "table": "2x"}]}'
        )
