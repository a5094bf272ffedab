"""Focused unit tests for smaller helpers across the library."""

from __future__ import annotations

import pytest

from repro.apps.verify import subst_fields
from repro.cfg.builder import build_cfg
from repro.cfg.graph import ENTRY, EXIT
from repro.interp.builtins import BUILTINS, METHODS
from repro.lang.parser import parse_function, parse_program
from repro.nfactor.refactor import augment_with_jumps, executable_slice, filter_block
from repro.pdg.flatten import flatten_program
from repro.pdg.pdg import build_pdg
from repro.symbolic.expr import SApp, SDictVal, SVar, canon, mk_app


class TestBuiltins:
    def test_hash_is_stable(self):
        assert BUILTINS["hash"]((1, "a")) == BUILTINS["hash"]((1, "a"))

    def test_hash_rejects_mutable(self):
        with pytest.raises(TypeError):
            BUILTINS["hash"]([1])

    def test_range_returns_list(self):
        assert BUILTINS["range"](3) == [0, 1, 2]
        assert BUILTINS["range"](1, 7, 2) == [1, 3, 5]

    def test_method_get_with_default(self):
        assert METHODS["get"]({"a": 1}, "b", 9) == 9

    def test_method_insert_remove_index_count(self):
        xs = [1, 2, 2]
        METHODS["insert"](xs, 0, 0)
        assert xs == [0, 1, 2, 2]
        METHODS["remove"](xs, 2)
        assert xs == [0, 1, 2]
        assert METHODS["index"](xs, 1) == 1
        assert METHODS["count"](xs, 2) == 1

    def test_method_keys_values_are_lists(self):
        d = {"a": 1}
        assert METHODS["keys"](d) == ["a"]
        assert METHODS["values"](d) == [1]


class TestCfgGraph:
    def test_to_dot_renders(self):
        fn = parse_function("def f(a):\n    if a:\n        x = 1\n")
        cfg = build_cfg(fn.body)
        dot = cfg.to_dot()
        assert dot.startswith("digraph") and "->" in dot

    def test_reverse_postorder_starts_at_entry(self):
        fn = parse_function("def f(a):\n    x = a\n    y = x\n")
        cfg = build_cfg(fn.body)
        order = cfg.reverse_postorder()
        assert order[0] == ENTRY
        assert order.index(fn.body[0].sid) < order.index(fn.body[1].sid)

    def test_branch_label_lookup(self):
        fn = parse_function("def f(a):\n    if a:\n        x = 1\n    y = 2\n")
        cfg = build_cfg(fn.body)
        branch = fn.body[0].sid
        then_sid = fn.body[0].then[0].sid
        assert cfg.branch_label(branch, then_sid) is True
        with pytest.raises(KeyError):
            cfg.branch_label(branch, 9999)


class TestRefactorHelpers:
    def _view(self, source):
        flat = flatten_program(parse_program(source, entry="cb"))
        pdg = build_pdg(flat.block, flat.entry_vars())
        return flat, pdg

    def test_filter_block_preserves_structure(self):
        source = (
            "def cb(pkt):\n"
            "    if pkt.ttl > 1:\n"
            "        a = 1\n"
            "        b = 2\n"
            "    send_packet(pkt)\n"
        )
        flat, pdg = self._view(source)
        branch = flat.block[0]
        keep = {branch.sid, branch.then[0].sid}
        out = filter_block(flat.block, keep)
        assert len(out) == 1
        assert len(out[0].then) == 1

    def test_augment_adds_guarded_jump(self):
        source = (
            "def cb(pkt):\n"
            "    if pkt.ttl == 0:\n"
            "        return\n"
            "    send_packet(pkt)\n"
        )
        flat, pdg = self._view(source)
        branch = flat.block[0]
        ret = branch.then[0]
        send = flat.block[1]
        augmented = augment_with_jumps(flat.block, {branch.sid, send.sid}, pdg)
        assert ret.sid in augmented

    def test_augment_skips_unguarded_jump(self):
        source = (
            "def cb(pkt):\n"
            "    if pkt.ttl == 0:\n"
            "        return\n"
            "    send_packet(pkt)\n"
        )
        flat, pdg = self._view(source)
        send = flat.block[1]
        # Without the branch in the slice, the return's control context
        # is incomplete, so it must not be added.
        augmented = augment_with_jumps(flat.block, {send.sid}, pdg)
        ret = flat.block[0].then[0]
        assert ret.sid not in augmented

    def test_executable_slice_returns_kept_set(self):
        source = "def cb(pkt):\n    send_packet(pkt)\n"
        flat, pdg = self._view(source)
        block, kept = executable_slice(flat.block, {flat.block[0].sid}, pdg)
        assert kept == {flat.block[0].sid}
        assert len(block) == 1

    def test_model_guards_share_equal_subtrees(self, firewall_result):
        # Paths evaluate the same branch conditions separately;
        # build_model keeps one object per distinct guard subtree, so a
        # stored model pickles each subtree once.
        ids = {}

        def walk(value):
            if isinstance(value, SApp):
                ids.setdefault(canon(value), set()).add(id(value))
                for arg in value.args:
                    walk(arg)

        for entry in firewall_result.model.all_entries():
            for conjunct in entry.guard():
                walk(conjunct)
        assert ids and all(len(objs) == 1 for objs in ids.values())


class TestSubstFields:
    def test_packet_var_replaced(self):
        from repro.symbolic.solver import Solver

        dport = SVar("pkt.dport", 0, 65535)
        out = subst_fields(mk_app("==", dport, 80), {"dport": 8080})
        # substitution does not fold; the solver refutes the constant clash
        assert Solver().check([out]).status == "unsat"

    def test_namespacing_state(self):
        st = SVar("st.rr_idx", 0, 10)
        out = subst_fields(st, {}, ns="lb#0.")
        assert out.name == "st.lb#0.rr_idx"

    def test_member_atom_key_substituted(self):
        key = (SVar("pkt.ip_src", 0, 100),)
        atom = SApp("member", ("nat", key))
        out = subst_fields(atom, {"ip_src": 42}, ns="x.")
        assert out.args[0] == "x.nat"
        assert out.args[1] == (42,)

    def test_dictval_renamed_and_rekeyed(self):
        key = (SVar("pkt.ip_src", 0, 100),)
        dv = SDictVal("nat", canon(key), (1,), key=key)
        out = subst_fields(dv, {"ip_src": 7}, ns="x.")
        assert out.dict_name == "x.nat"
        assert out.key == (7,)
        assert out.path == (1,)

    def test_untouched_values_pass_through(self):
        assert subst_fields(5, {"dport": 1}) == 5
        assert subst_fields((1, [2]), {}) == (1, [2])


class TestProgramHelpers:
    def test_loc_counts_ir_statements(self):
        program = parse_program("x = 1\n\ndef f(a):\n    return a\n")
        assert program.loc() == 2

    def test_stmt_lookup_by_sid(self):
        program = parse_program("x = 1\ny = 2\n")
        sid = program.module_body[1].sid
        assert program.stmt(sid) is program.module_body[1]

    def test_max_sid(self):
        program = parse_program("x = 1\ny = 2\nz = 3\n")
        assert program.max_sid() == 2

    def test_entry_function_requires_entry(self):
        program = parse_program("x = 1\n")
        with pytest.raises(ValueError):
            _ = program.entry_function
