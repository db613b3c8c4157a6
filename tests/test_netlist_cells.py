"""Unit tests for cell kinds and their Boolean semantics."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.netlist.cells import (
    COMBINATIONAL_KINDS,
    KIND_TABLE,
    Cell,
    CellKind,
    SEQUENTIAL_KINDS,
    check_arity,
    evaluate_kind,
)


class TestTruthTables:
    def test_const(self):
        assert evaluate_kind(CellKind.CONST0, []) == (0,)
        assert evaluate_kind(CellKind.CONST1, []) == (1,)

    def test_buf_not(self):
        for v in (0, 1):
            assert evaluate_kind(CellKind.BUF, [v]) == (v,)
            assert evaluate_kind(CellKind.NOT, [v]) == (v ^ 1,)

    @pytest.mark.parametrize("arity", [1, 2, 3, 5])
    def test_and_or_families(self, arity):
        for combo in itertools.product((0, 1), repeat=arity):
            conj = int(all(combo))
            disj = int(any(combo))
            assert evaluate_kind(CellKind.AND, combo) == (conj,)
            assert evaluate_kind(CellKind.NAND, combo) == (conj ^ 1,)
            assert evaluate_kind(CellKind.OR, combo) == (disj,)
            assert evaluate_kind(CellKind.NOR, combo) == (disj ^ 1,)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_xor_parity(self, arity):
        for combo in itertools.product((0, 1), repeat=arity):
            parity = sum(combo) % 2
            assert evaluate_kind(CellKind.XOR, combo) == (parity,)
            assert evaluate_kind(CellKind.XNOR, combo) == (parity ^ 1,)

    def test_mux2(self):
        for sel, a, b in itertools.product((0, 1), repeat=3):
            expected = b if sel else a
            assert evaluate_kind(CellKind.MUX2, [sel, a, b]) == (expected,)

    def test_half_adder(self):
        for a, b in itertools.product((0, 1), repeat=2):
            s, co = evaluate_kind(CellKind.HA, [a, b])
            assert s + 2 * co == a + b

    def test_full_adder(self):
        for a, b, cin in itertools.product((0, 1), repeat=3):
            s, co = evaluate_kind(CellKind.FA, [a, b, cin])
            assert s + 2 * co == a + b + cin

    def test_dff_combinational_view_is_transparent(self):
        assert evaluate_kind(CellKind.DFF, [0]) == (0,)
        assert evaluate_kind(CellKind.DFF, [1]) == (1,)


class TestKindMetadata:
    def test_partition_of_kinds(self):
        assert COMBINATIONAL_KINDS | SEQUENTIAL_KINDS == frozenset(CellKind)
        assert not COMBINATIONAL_KINDS & SEQUENTIAL_KINDS

    def test_every_kind_has_metadata(self):
        assert set(KIND_TABLE) == set(CellKind)

    def test_two_output_kinds(self):
        assert KIND_TABLE[CellKind.FA].n_out == 2
        assert KIND_TABLE[CellKind.HA].n_out == 2
        assert {k for k, r in KIND_TABLE.items() if r.n_out != 1} == {
            CellKind.FA, CellKind.HA,
        }

    def test_check_arity_accepts_legal(self):
        check_arity(CellKind.FA, 3, 2)
        check_arity(CellKind.AND, 7, 1)
        check_arity(CellKind.CONST0, 0, 1)

    @pytest.mark.parametrize(
        "kind,n_in,n_out",
        [
            (CellKind.FA, 2, 2),
            (CellKind.FA, 3, 1),
            (CellKind.NOT, 2, 1),
            (CellKind.AND, 0, 1),
            (CellKind.MUX2, 2, 1),
            (CellKind.DFF, 2, 1),
        ],
    )
    def test_check_arity_rejects_illegal(self, kind, n_in, n_out):
        with pytest.raises(ValueError):
            check_arity(kind, n_in, n_out)

    @pytest.mark.parametrize(
        "kind,values,message",
        [
            (CellKind.NOT, [0, 1], "NOT takes exactly 1 inputs, got 2"),
            (CellKind.AND, [], "AND needs at least one input"),
            (CellKind.BUF, [], "BUF takes exactly 1 inputs, got 0"),
        ],
    )
    def test_evaluate_kind_rejects_wrong_input_count(
        self, kind, values, message
    ):
        with pytest.raises(ValueError) as exc:
            evaluate_kind(kind, values)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc_arity:
            check_arity(kind, len(values), KIND_TABLE[kind].n_out)
        assert str(exc_arity.value) == message


class TestCellDataclass:
    def test_is_sequential(self):
        ff = Cell("ff", CellKind.DFF, (0,), (1,))
        gate = Cell("g", CellKind.AND, (0, 1), (2,))
        assert ff.is_sequential
        assert not gate.is_sequential

    def test_evaluate_delegates(self):
        fa = Cell("fa", CellKind.FA, (0, 1, 2), (3, 4))
        assert fa.evaluate([1, 1, 0]) == (0, 1)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8))
def test_demorgan_duality_property(bits):
    """NAND(x) == NOT(AND(x)) and NOR(x) == NOT(OR(x)) for any width."""
    assert evaluate_kind(CellKind.NAND, bits)[0] == (
        evaluate_kind(CellKind.AND, bits)[0] ^ 1
    )
    assert evaluate_kind(CellKind.NOR, bits)[0] == (
        evaluate_kind(CellKind.OR, bits)[0] ^ 1
    )


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_fa_decomposition_property(a, b, cin):
    """FA == (HA + HA + OR) composition."""
    s1, c1 = evaluate_kind(CellKind.HA, [a, b])
    s2, c2 = evaluate_kind(CellKind.HA, [s1, cin])
    s_fa, c_fa = evaluate_kind(CellKind.FA, [a, b, cin])
    assert s_fa == s2
    assert c_fa == c1 | c2
