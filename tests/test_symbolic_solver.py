"""Tests for the propagate-and-sample constraint solver."""

from __future__ import annotations

import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic.expr import SApp, SDictVal, SVar, canon, eval_sym, leaf_key, mk_app, sym_vars
from repro.symbolic.solver import Solver, consistent_witness

X = SVar("pkt.x", 0, 1000)
Y = SVar("pkt.y", 0, 1000)
B = SVar("cfg.b", 0, 1, boolean=True)


def check(*constraints):
    return Solver(seed=1).check(list(constraints))


class TestBasics:
    def test_empty_is_sat(self):
        assert check().status == "sat"

    def test_literal_false_unsat(self):
        assert check(False).status == "unsat"
        assert check(True, False).status == "unsat"

    def test_equality_pin(self):
        result = check(mk_app("==", X, 5))
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] == 5

    def test_contradictory_pins(self):
        assert check(mk_app("==", X, 5), mk_app("==", X, 6)).status == "unsat"

    def test_interval_conflict(self):
        assert check(mk_app("<", X, 5), mk_app(">", X, 10)).status == "unsat"

    def test_interval_tight_fit(self):
        result = check(mk_app(">=", X, 7), mk_app("<=", X, 7))
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] == 7

    def test_not_equal_excludes(self):
        result = check(
            mk_app(">=", X, 5), mk_app("<=", X, 6), mk_app("!=", X, 5)
        )
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] == 6

    def test_exhausted_domain_via_exclusions(self):
        assert check(
            mk_app(">=", X, 5),
            mk_app("<=", X, 5),
            mk_app("!=", X, 5),
        ).status == "unsat"

    def test_domain_bounds_respected(self):
        small = SVar("pkt.s", 0, 3)
        assert check(mk_app(">", small, 3)).status == "unsat"

    def test_flipped_operand_order(self):
        result = check(mk_app(">", 10, X))  # 10 > x  ⇒  x < 10
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] < 10


class TestStructural:
    def test_var_equality_union_find(self):
        result = check(mk_app("==", X, Y), mk_app("==", X, 9))
        assert result.status == "sat"
        assert result.assignment[leaf_key(Y)] == 9

    def test_var_equality_conflict(self):
        assert check(
            mk_app("==", X, Y), mk_app("==", X, 1), mk_app("==", Y, 2)
        ).status == "unsat"

    def test_member_atom_polarity(self):
        atom = SApp("member", ("t", X))
        result = check(atom)
        assert result.status == "sat"
        assert result.assignment[leaf_key(atom)] is True
        assert check(atom, mk_app("not", atom)).status == "unsat"

    def test_complement_of_compound(self):
        compound = mk_app(
            "and", mk_app("!=", mk_app("&", X, 2), 0), mk_app("==", mk_app("&", X, 16), 0)
        )
        assert check(compound, mk_app("not", compound)).status == "unsat"

    def test_conjunction_expansion_propagates(self):
        conj = mk_app("and", mk_app("==", X, 4), mk_app("==", Y, 5))
        result = check(conj)
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] == 4
        assert result.assignment[leaf_key(Y)] == 5

    def test_demorgan_or(self):
        neg_or = mk_app("not", mk_app("or", mk_app("==", X, 1), mk_app("==", X, 2)))
        result = check(neg_or, mk_app("<=", X, 2), mk_app(">=", X, 1))
        assert result.status == "unsat"

    def test_boolean_var(self):
        result = check(B)
        assert result.status == "sat"
        assert result.assignment[leaf_key(B)] == 1


class TestNestedNotAnd:
    """``not(and ..)`` is refuted by its conjuncts however the ``and``
    nests: the watch flattens it the way asserted conjunctions are."""

    SYN = SApp("!=", (SApp("&", (X, 2)), 0))
    NO_ACK = SApp("==", (SApp("&", (X, 16)), 0))
    TRUSTED = SApp("==", (Y, 0))

    def _nested(self):
        return SApp("not", (SApp("and", (SApp("and", (self.SYN, self.NO_ACK)), self.TRUSTED)),))

    def test_refuted_after_its_conjuncts(self):
        assert "a:and(a:and(" in canon(self._nested())
        assert check(self.SYN, self.NO_ACK, self.TRUSTED, self._nested()).status == "unsat"

    def test_refuted_before_its_conjuncts(self):
        assert check(self._nested(), self.SYN, self.NO_ACK, self.TRUSTED).status == "unsat"

    def test_refuted_when_the_conjuncts_arrive_nested(self):
        """Two firewall hops: the first asserts the trusted-SYN guard as
        one nested ``and``, the second its negation."""
        guard = SApp("and", (SApp("and", (self.SYN, self.NO_ACK)), self.TRUSTED))
        assert check(guard, self._nested()).status == "unsat"

    def test_demorgan_conjunct_inside(self):
        neg_or = SApp("not", (SApp("or", (self.NO_ACK, self.TRUSTED)),))
        watched = SApp("not", (SApp("and", (self.SYN, neg_or)),))
        assert check(
            self.SYN, mk_app("not", self.NO_ACK), mk_app("not", self.TRUSTED), watched
        ).status == "unsat"

    def test_false_conjunct_is_never_refuted(self):
        """``not(or(True, b))`` flattens to a literal False conjunct, which
        makes the whole ``not(and ..)`` true, whatever else is asserted."""
        always_false = SApp("not", (SApp("or", (True, self.NO_ACK)),))
        tautology = SApp("not", (SApp("and", (self.SYN, always_false)),))
        result = check(self.SYN, mk_app("not", self.NO_ACK), tautology)
        assert result.status == "sat"

    def test_missing_conjunct_stays_sat(self):
        result = check(self.SYN, self.NO_ACK, mk_app("!=", Y, 0), self._nested())
        assert result.status == "sat"


class TestSampling:
    def test_arith_constraint_found_by_sampling(self):
        result = check(mk_app("==", mk_app("%", X, 7), 3))
        assert result.status == "sat"
        assert result.assignment[leaf_key(X)] % 7 == 3

    def test_hash_constraint(self):
        # hash-based constraints are only solvable by sampling
        result = check(mk_app("==", mk_app("%", mk_app("hash", (X,)), 2), 0))
        assert result.status == "sat"

    def test_unknown_on_hard_constraint(self):
        # Hash preimage of a fixed value: propagation can't and sampling
        # won't find it — must return unknown, never unsat.
        result = Solver(seed=1, max_samples=10).check(
            [mk_app("==", mk_app("hash", (X,)), 123456789)]
        )
        assert result.status == "unknown"
        assert result.feasible  # treated as possibly-sat

    def test_determinism(self):
        constraints = [mk_app(">", mk_app("%", X, 13), 7), mk_app("<", X, 500)]
        a = Solver(seed=3).check(constraints).assignment
        b = Solver(seed=3).check(constraints).assignment
        assert a == b


@st.composite
def simple_constraints(draw):
    """A random satisfiable-ish constraint set over X and Y."""
    out = []
    for var in (X, Y):
        lo = draw(st.integers(0, 900))
        hi = draw(st.integers(lo, 1000))
        out.append(mk_app(">=", var, lo))
        out.append(mk_app("<=", var, hi))
        if draw(st.booleans()):
            out.append(mk_app("!=", var, draw(st.integers(0, 1000))))
    return out


class TestWitnessSoundness:
    @settings(max_examples=50, deadline=None)
    @given(simple_constraints())
    def test_sat_witness_actually_satisfies(self, constraints):
        result = Solver(seed=0).check(constraints)
        assert result.status in ("sat", "unsat")
        if result.status == "sat":
            for c in constraints:
                assert bool(eval_sym(c, result.assignment)) is True

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_never_unsat_when_witness_exists(self, a, b):
        # x == a ∧ y == b is always satisfiable within domains.
        result = check(mk_app("==", X, a), mk_app("==", Y, b))
        assert result.status == "sat"


MAC_HI = (1 << 48) - 1
SRC = SVar("pkt.eth_src", 0, MAC_HI)
DST = SVar("pkt.eth_dst", 0, MAC_HI)
PORT = SVar("pkt.in_port", 0, 255)
K1 = SVar("pkt.k1", 0, 3)
K2 = SVar("pkt.k2", 0, 3)


def member(d, key):
    return SApp("member", (d, key))


def read(d, key):
    return SDictVal(d, canon(key), key=key)


def satisfies_all(result, constraints):
    return all(bool(eval_sym(c, result.assignment)) for c in constraints)


class TestMemberDraws:
    def test_l2switch_forwarding_guard_is_sat(self):
        """l2switch's forwarding guard for a newly learned source: the
        destination is known either by aliasing that source or by
        pre-state membership, and its port differs from the ingress
        port.  Only the membership arm meets the last conjunct, so the
        witness must set the ``member`` atom that sits under the ``or``."""
        known = member("mac_table", DST)
        out_port = mk_app("cond", mk_app("==", DST, SRC), PORT, read("mac_table", DST))
        constraints = [
            mk_app("!=", SRC, MAC_HI),
            mk_app("not", member("mac_table", SRC)),
            mk_app("!=", DST, MAC_HI),
            mk_app("or", mk_app("==", DST, SRC), known),
            mk_app("!=", out_port, PORT),
        ]
        result = check(*constraints)
        assert result.status == "sat"
        assert result.assignment[leaf_key(known)] is True
        assert satisfies_all(result, constraints)
        assert consistent_witness(sym_vars(constraints), result.assignment)

    def test_pool_draw_keeps_free_members_false(self):
        atom = member("t", X)
        result = check(mk_app("or", mk_app("==", X, 3), atom))
        assert result.status == "sat"
        assert result.assignment[leaf_key(atom)] is False


class TestFunctionalConsistency:
    def test_equal_keys_opposite_membership_is_never_sat(self):
        constraints = [
            member("d", X),
            mk_app("not", member("d", Y)),
            mk_app("==", X, 5),
            mk_app("==", Y, 5),
        ]
        assert check(*constraints).status != "sat"

    def test_equal_keys_different_values_is_never_sat(self):
        constraints = [
            mk_app("==", X, Y),
            mk_app("!=", read("d", X), read("d", Y)),
        ]
        assert check(*constraints).status != "sat"

    def test_helper_ignores_distinct_dicts_and_paths(self):
        a = SDictVal("d", canon(X), (0,), key=X)
        b = SDictVal("d", canon(Y), (1,), key=Y)
        witness = {leaf_key(X): 1, leaf_key(Y): 1, leaf_key(a): 7, leaf_key(b): 8}
        assert consistent_witness({a, b}, witness)
        mx, my = member("d", X), member("e", Y)
        assert consistent_witness({mx, my}, {leaf_key(mx): True})
        assert not consistent_witness(
            {mx, member("d", Y)}, {leaf_key(X): 1, leaf_key(Y): 1, leaf_key(mx): True}
        )


@st.composite
def dict_conjunctions(draw):
    """Conjunctions over two small keys, their ``member`` atoms and dict
    reads: keys collide often, so consistency matters."""
    keys = (K1, K2)
    atoms = [
        lambda: member("d", draw(st.sampled_from(keys))),
        lambda: mk_app("not", member("d", draw(st.sampled_from(keys)))),
        lambda: mk_app(
            "or",
            mk_app("==", K1, K2),
            member("d", draw(st.sampled_from(keys))),
        ),
        lambda: mk_app(
            draw(st.sampled_from(["==", "!=", "<", ">="])),
            read("d", draw(st.sampled_from(keys))),
            draw(st.integers(0, 3)),
        ),
        lambda: mk_app(
            draw(st.sampled_from(["==", "!="])),
            read("d", K1),
            read("d", K2),
        ),
        lambda: mk_app(
            draw(st.sampled_from(["==", "!="])),
            draw(st.sampled_from(keys)),
            draw(st.integers(0, 3)),
        ),
        lambda: mk_app(draw(st.sampled_from(["==", "!="])), K1, K2),
    ]
    n = draw(st.integers(1, 5))
    out = [atoms[draw(st.integers(0, len(atoms) - 1))]() for _ in range(n)]
    return [c for c in out if not isinstance(c, bool)]


class TestRealizableWitnesses:
    @settings(max_examples=150, deadline=None)
    @given(dict_conjunctions())
    def test_sat_witness_satisfies_and_is_consistent(self, constraints):
        result = Solver(seed=0, max_samples=40).check(constraints)
        if result.status == "sat":
            assert satisfies_all(result, constraints)
            assert consistent_witness(sym_vars(constraints), result.assignment)


#: The Solver entry points perfbench wraps to time ``symbolic.solver``
#: (the ``for method in (...)`` loops of its synth-cold and
#: verify-incremental workloads), plus ``model``, which goes through
#: ``check``.
TRACED_ENTRY_POINTS = {"check", "check_extended", "check_assuming"}


class TestTracedEntryPoints:
    def test_result_returning_methods_are_the_traced_ones(self):
        """A new public method answering a satisfiability query would
        bypass perfbench's ``symbolic.solver.*`` timings."""
        answering = {
            name
            for name, member_ in vars(Solver).items()
            if not name.startswith("_")
            and callable(member_)
            and any(
                word in str(member_.__annotations__.get("return", ""))
                for word in ("SolverResult", "Assignment")
            )
        }
        assert answering == TRACED_ENTRY_POINTS | {"model"}

    def test_perfbench_traces_these_entry_points(self):
        root = Path(__file__).resolve().parent.parent / "perfbench"
        for workload in ("synth_cold.py", "verify_incremental.py"):
            source = (root / workload).read_text()
            loops = re.findall(r"for method in \(([^)]*)\)", source)
            assert len(loops) == 1, workload
            assert set(re.findall(r'"(\w+)"', loops[0])) == TRACED_ENTRY_POINTS

    def test_model_goes_through_check(self):
        solver = Solver(seed=1)
        with mock.patch.object(Solver, "check", wraps=solver.check) as spy:
            solver.model([mk_app("==", X, 4)])
        assert spy.call_count == 1
