"""Circuit parsing, the two controlled-NOT constructions, and compilation."""

import copy
import hashlib
import itertools
import pickle
import random
import re

import numpy as np
import pytest

from stabtensor import generators as gen
from stabtensor import circuits, cli, oracles, tensor
from stabtensor.circuits import (
    GATE_ARITY,
    Circuit,
    CircuitParseError,
    GateApp,
    circuit_state,
    circuit_unitary,
    cn_component_polynomial,
    cn_index_contraction,
    compile_circuit,
    parse_circuit,
)
from stabtensor.tensor import RankBudgetError, Tensor, contract_pair, max_abs_diff
from tests.conftest import assert_plan_is_observed, to_np


class TestParsing:
    def test_minimal(self):
        c = parse_circuit("wires 2\nH 0\nCN 0 1\n")
        assert c.width == 2
        assert c.ops == (GateApp("H", (0,)), GateApp("CN", (0, 1)))
        assert c.input is None

    def test_comments_blanks_and_input(self):
        c = parse_circuit("# bell pair\nwires 2\n\ninput 10\nH 0\n# done\n")
        assert c.input == "10"
        assert len(c.ops) == 1

    def test_all_gate_mnemonics(self):
        text = "wires 4\nH 0\nS 2\nX 1\nY 0\nZ 3\nCN 0 1\nNOT 2\n"
        c = parse_circuit(text)
        assert [op.gate for op in c.ops] == ["H", "S", "X", "Y", "Z", "CN", "NOT"]

    def test_missing_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("H 0\n")

    def test_duplicate_wire_in_cn(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nCN 0 0\n")

    def test_wire_out_of_range(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nH 5\n")

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 1\nT 0\n")

    def test_bad_input_length(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\ninput 101\n")

    def test_bad_wire_token(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("wires 2\nH zero\n")

    @pytest.mark.parametrize("build,message", [
        (lambda: GateApp("H", (1.0,)), "^H wire 1.0 is not an integer$"),
        (lambda: GateApp("H", ("1",)), "^H wire '1' is not an integer$"),
        (lambda: GateApp("CN", (0, np.True_)), r"^CN wire np.True_ is not an integer$"),
        (lambda: Circuit(2.0, ()), "^circuit width 2.0 is not an integer$"),
        (lambda: Circuit("2", ()), "^circuit width '2' is not an integer$"),
    ], ids=["float-wire", "str-wire", "numpy-bool-wire", "float-width", "str-width"])
    def test_non_integer_wire_or_width_is_named(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_integer_wires_and_width_of_other_types_are_ints(self):
        # A numpy integer or a bool is taken as the int it equals, so every
        # simulator sees the same circuit.
        odd = Circuit(np.int64(2), (GateApp("H", (np.int64(1),)), GateApp("CN", (True, 0))), "00")
        plain = Circuit(2, (GateApp("H", (1,)), GateApp("CN", (1, 0))), "00")
        assert odd == plain
        assert type(odd.width) is int and {type(w) for op in odd.ops for w in op.wires} == {int}
        assert np.array_equal(circuit_state(odd).array, circuit_state(plain).array)
        assert np.array_equal(circuit_unitary(odd).array, circuit_unitary(plain).array)
        assert np.array_equal(oracles.dense_simulate(odd).amplitudes,
                              oracles.dense_simulate(plain).amplitudes)

    def test_list_arguments_are_stored_as_tuples_that_hash(self):
        op = GateApp("CN", [0, 1])
        circ = Circuit(2, [op, GateApp("H", [1])])
        assert type(op.wires) is tuple and type(circ.ops) is tuple
        tuples = Circuit(2, (GateApp("CN", (0, 1)), GateApp("H", (1,))))
        assert circ == tuples and hash(circ) == hash(tuples)


def _circuit_text(circuit, rng=None):
    """`circuit` as a circuit file; with `rng`, some op lines get blanks
    around them, which the parse strips."""
    lines = [f"wires {circuit.width}"]
    if circuit.input is not None:
        lines.append(f"input {circuit.input}")
    for op in circuit.ops:
        line = " ".join([op.gate, *map(str, op.wires)])
        if rng is not None and rng.random() < 0.2:
            line = rng.choice((" ", "\t", "  ")) + line + rng.choice(("", " ", "\t"))
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestSharedOps:
    """Equal op lines of one parse are one immutable GateApp."""

    def test_equal_op_lines_are_one_object(self):
        c = parse_circuit("wires 3\nH 0\nCN 0 1\nH 0\n  CN 0 1 \nH 1\nS 0\nCN 1 0\nCN 0 2\n")
        h0, cn01, h0_again, cn01_again, h1, s0, cn10, cn02 = c.ops
        assert h0_again is h0 and cn01_again is cn01
        assert len({id(op) for op in c.ops}) == 6
        assert h1 == GateApp("H", (1,)) and s0 == GateApp("S", (0,))
        assert cn10 == GateApp("CN", (1, 0)) and cn02 == GateApp("CN", (0, 2))
        # Ops on the same wires share their wires tuple, and every op holds
        # GATE_ARITY's own name string.
        assert s0.wires is h0.wires
        names = {name: name for name in GATE_ARITY}
        assert all(op.gate is names[op.gate] for op in c.ops)

    def test_two_parses_share_nothing(self):
        text = "wires 2\nH 0\nCN 0 1\nH 0\n"
        first, second = parse_circuit(text), parse_circuit(text)
        assert first == second
        held = {id(x) for op in first.ops for x in (op, op.wires)}
        assert not held & {id(x) for op in second.ops for x in (op, op.wires)}

    @pytest.mark.parametrize("text,message", [
        ("wires 2\nH 0\nCN 0 0\nH 0\nCN 0 0\n", "line 3: CN wires must be distinct, got (0, 0)"),
        ("wires 2\nT 0\nT 0\n", "line 2: unknown gate 'T'"),
        ("wires 2\n\nH x\nH 0\nH x\n", "line 3: bad wire list in 'H x'"),
        ("wires 2\nCN 0\nH 1\nCN 0\n", "line 2: CN takes 2 wire(s), got (0,)"),
    ], ids=["duplicate-wires", "unknown-gate", "bad-wire-list", "wire-count"])
    def test_repeated_malformed_line_reports_its_first_line(self, text, message):
        with pytest.raises(CircuitParseError, match=f"^{re.escape(message)}$"):
            parse_circuit(text)

    def test_ops_and_circuits_are_slotted_and_round_trip(self):
        circ = parse_circuit("wires 2\ninput 01\nH 0\nCN 0 1\nH 0\n")
        for obj in (circ, *circ.ops):
            assert not hasattr(obj, "__dict__")
            for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert back == obj and hash(back) == hash(obj)
        # A copy keeps the sharing: its equal ops are one object too.
        for back in (pickle.loads(pickle.dumps(circ)), copy.deepcopy(circ)):
            assert back.ops[2] is back.ops[0]

    def test_seeded_files_parse_equal_to_circuits_built_directly(self):
        rng = random.Random(30)
        gates = oracles.CLIFFORD_GATES + ("NOT",)
        for _ in range(300):
            width = rng.randint(1, 12)
            circ = oracles.random_clifford_circuit(
                width, rng.randrange(0, 60), rng.randrange(1 << 30), gates=gates)
            if rng.random() < 0.5:
                circ = Circuit(width, circ.ops, None)
            text = _circuit_text(circ, rng)
            parsed = parse_circuit(text)
            assert parsed == circ
            lines = {line.strip() for line in text.splitlines()[1 + (circ.input is not None):]}
            assert len({id(op) for op in parsed.ops}) == len(lines)


class TestFeynmanNetwork:
    @pytest.mark.parametrize(
        "bits_in,bits_out",
        [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")],
    )
    def test_basis_action(self, bits_in, bits_out):
        state = circuit_state(Circuit(2, (GateApp("CN", (0, 1)),), bits_in))
        expect = np.zeros(4)
        expect[int(bits_out, 2)] = 1
        np.testing.assert_allclose(np.array(state.data), expect, atol=1e-15)

    def test_contracts_to_permutation_matrix(self):
        # the compiled CN's legs (out-c, out-t, in-c, in-t) read as [out, in]
        got = circuit_unitary(Circuit(2, (GateApp("CN", (0, 1)),)))
        mat = to_np(got).reshape(4, 4)
        want = np.zeros((4, 4))
        for a, b in itertools.product((0, 1), repeat=2):
            want[(a << 1) | (a ^ b), (a << 1) | b] = 1
        np.testing.assert_array_equal(mat, want)


class TestIndexContraction:
    def test_all_16_entries_match_polynomial_exactly(self):
        t = cn_index_contraction()
        for idx in itertools.product((0, 1), repeat=4):
            assert t.array[idx] == cn_component_polynomial(*idx), idx

    def test_corner_values(self):
        assert cn_component_polynomial(0, 0, 0, 0) == 1
        assert cn_component_polynomial(1, 1, 1, 0) == 1

    def test_differs_from_wired_cnot(self):
        # the two constructions disagree, e.g. at (1, 0, 1, 1)
        wired = circuit_unitary(Circuit(2, (GateApp("CN", (0, 1)),)))
        contracted = cn_index_contraction()
        assert wired.array[1, 0, 1, 1] == 1
        assert contracted.array[1, 0, 1, 1] == 0
        assert max_abs_diff(wired, contracted) == 1.0


class TestCompile:
    def test_empty_circuit_is_identity(self):
        u = circuit_unitary(Circuit(1, ()))
        assert u.data == (1, 0, 0, 1)

    def test_h_on_zero_gives_plus(self):
        state = circuit_state(Circuit(1, (GateApp("H", (0,)),), "0"))
        np.testing.assert_allclose(
            np.array(state.data), np.array([1, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_bell_state_matches_dense_oracle(self):
        circ = Circuit(2, (GateApp("H", (0,)), GateApp("CN", (0, 1))), "00")
        got = np.array(circuit_state(circ).data)
        want = oracles.dense_simulate(circ).amplitudes
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("gate", ["H", "S", "X", "Y", "Z", "NOT"])
    def test_single_gate_unitaries_match_oracle_matrices(self, gate):
        u = to_np(circuit_unitary(Circuit(1, (GateApp(gate, (0,)),)))).reshape(2, 2)
        np.testing.assert_allclose(u, oracles.GATE_MATRICES[gate], atol=1e-12)

    def test_cn_both_orientations(self):
        for c, t in ((0, 1), (1, 0)):
            u = to_np(
                circuit_unitary(Circuit(2, (GateApp("CN", (c, t)),)))
            ).reshape(4, 4)
            want = np.zeros((4, 4))
            for a, b in itertools.product((0, 1), repeat=2):
                bits = [a, b]
                out = bits.copy()
                out[t] ^= bits[c]
                want[(out[0] << 1) | out[1], (a << 1) | b] = 1
            np.testing.assert_allclose(u, want, atol=1e-12)

    def test_compiled_networks_use_generator_nodes_only(self):
        # each node tag and the generator its entries must equal
        allowed = {
            "copy": gen.copy_tensor(), "xor": gen.xor_tensor(), "H": gen.hadamard(),
            "ket0": gen.ket_zero(), "ket1": gen.ket_one(), "id": gen.identity_map(),
            **{f"t{k}": gen.t_vector(k) for k in range(4)},
        }
        ops = (
            GateApp("H", (0,)), GateApp("S", (1,)), GateApp("Z", (2,)),
            GateApp("X", (0,)), GateApp("Y", (1,)), GateApp("CN", (2, 0)),
            GateApp("NOT", (1,)),
        )
        for bits in ("011", None):
            net = compile_circuit(Circuit(3, ops, bits))
            for name, node in net.nodes.items():
                tag = name.split(":", 1)[1]
                assert tag in allowed
                assert np.array_equal(node.array, allowed[tag].array), name

    @pytest.mark.parametrize("accessor, tags", [
        ("copy_tensor", {"copy"}), ("xor_tensor", {"xor"}), ("hadamard", {"H"}),
        ("t_vector", {"t1", "t2", "t3"}), ("ket_zero", {"ket0"}),
        ("ket_one", {"ket1"}), ("identity_map", {"id"}),
    ])
    def test_compile_reads_each_accessor_at_call_time(self, monkeypatch, accessor, tags):
        real = getattr(gen, accessor)
        template = real(1) if accessor == "t_vector" else real()
        sentinel = tensor.Tensor(template.rank, template.data)
        monkeypatch.setattr(gen, accessor, lambda *args: sentinel)
        ops = (
            GateApp("H", (0,)), GateApp("S", (1,)), GateApp("Z", (2,)),
            GateApp("X", (0,)), GateApp("Y", (1,)), GateApp("CN", (2, 0)),
            GateApp("NOT", (1,)),
        )
        tagged = 0
        for bits in ("011", None):
            net = compile_circuit(Circuit(3, ops, bits))
            for name, node in net.nodes.items():
                mine = name.split(":", 1)[1] in tags
                tagged += mine
                assert (node is sentinel) == mine, name
        assert tagged > 0

    def test_compile_builds_no_tensor(self, monkeypatch):
        # Every node is a shared generator instance built at import.
        built = []
        init, wrap = tensor.Tensor.__init__, tensor._wrap_result

        def recording_init(self, rank, data):
            built.append(rank)
            init(self, rank, data)

        def recording_wrap(rank, arr):
            built.append(rank)
            return wrap(rank, arr)

        monkeypatch.setattr(tensor.Tensor, "__init__", recording_init)
        monkeypatch.setattr(tensor, "_wrap_result", recording_wrap)
        ops = tuple(GateApp(g, (0,)) for g in ("H", "S", "Z", "X", "Y", "NOT"))
        ops += (GateApp("CN", (0, 1)),)
        # Two input nodes; the run H S Z X Y NOT is one element, whose class
        # word (H, 1, N) has 5 nodes; CN has 2.  On an input ket the run
        # starts its wire: the same state is (H, 1), 3 nodes, on |1>.
        for bits, nodes in (("01", 7), (None, 9)):
            net = compile_circuit(Circuit(2, ops, bits))
            assert len(net.nodes) == nodes
        assert built == []

    def test_compiled_operator_is_unitary(self):
        rng = random.Random(31)
        for seed in range(6):
            circ = oracles.random_clifford_circuit(
                rng.randint(1, 3), rng.randint(1, 12), seed=seed
            )
            n = circ.width
            u = to_np(circuit_unitary(circ)).reshape(1 << n, 1 << n)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(1 << n), atol=1e-10
            )

    def test_every_gate_against_dense_oracle(self):
        ops = (
            GateApp("H", (0,)), GateApp("S", (1,)), GateApp("CN", (1, 2)),
            GateApp("Y", (2,)), GateApp("X", (0,)), GateApp("Z", (1,)),
            GateApp("NOT", (2,)), GateApp("CN", (2, 0)), GateApp("S", (0,)),
        )
        circ = Circuit(3, ops, "010")
        got = np.array(circuit_state(circ).data)
        want = oracles.dense_simulate(circ).amplitudes
        np.testing.assert_allclose(got, want, atol=1e-12)


def _structure_corpus():
    """A state and an operator over the same gates, four of each per width
    1-12, every gate NOT included, from seeded inputs."""
    rng = random.Random(19)
    gates = oracles.CLIFFORD_GATES + ("NOT",)
    for width in range(1, 13):
        for _ in range(4):
            ops = oracles.random_clifford_circuit(
                width, rng.randrange(5, 40), rng.randrange(1 << 30), gates=gates).ops
            yield Circuit(width, ops, format(rng.randrange(1 << width), f"0{width}b"))
            yield Circuit(width, ops, None)


def test_compiled_structure_is_pinned():
    # One digest over each network's node names, the accessor whose tensor
    # each node is, its bonds, open legs, plan steps and scalar: a faster
    # compile or plan must leave every one of them as it is.  Recorded when
    # each state's first run on a wire began to start from its cheapest
    # (ket, class word) pair (the corpus's nodes fell from 3184 to 2742 and
    # its merges from 3088 to 2646; when runs became class words with a
    # phase they had fallen from 3952 and 3856), after every network was
    # checked to contract to the earlier compile's result within 1e-12.
    # Re-recorded when the tags became `generator_tensors`' (in0, in1 and
    # one became ket0 and ket1): with the names spelled the old way the
    # earlier digest came out unchanged.
    accessors = {
        gen.copy_tensor(): "copy_tensor", gen.xor_tensor(): "xor_tensor",
        gen.hadamard(): "hadamard", gen.ket_zero(): "ket_zero",
        gen.ket_one(): "ket_one", gen.identity_map(): "identity_map",
        **{gen.t_vector(k): f"t_vector({k})" for k in range(4)},
    }
    digest = hashlib.sha256()
    for circuit in _structure_corpus():
        net = compile_circuit(circuit)
        nodes = [(name, accessors[node]) for name, node in net.nodes.items()]
        bonds = [tuple(bond) for bond in net.bonds]
        steps = [tuple(step) for step in net.plan()]
        digest.update(repr((nodes, bonds, net.open_legs, steps, net.scalar)).encode())
    assert digest.hexdigest() == (
        "018e6ae5317c4a9cc530bba8e363c659d272b44bd0940bcca2b3478ca3024d0d")


class TestGateProducts:
    """Every merge of each one-block operator, CN's and each class word's,
    and of one CN on each pair of start states, is contracted once, at
    import: the merges inside the blocks, those with the identity anchors,
    and those with the input kets and the states they start."""

    def test_table_is_filled_at_import_and_never_grows(self, capsys):
        # Inside the 23 class words other than the identity's: three merges
        # of a phase vector into its copy node, one of the constant |1> into
        # its xor node, and one chain merge for each of the 18 words of two
        # steps or more.  With the anchors: one for each word.  That is 4 +
        # 18 + 23 = 45.  CN adds one inside and two with the anchors: 48.
        # The six start states are a bare ket, H on either ket, or (H, 1) on
        # either ket: four merges of a word with its ket.  CN on each pair
        # of them: six with the control's state, then 36 with the target's
        # on each control result.  That is 48 + 4 + 42 = 94.
        stored = dict(tensor._PRODUCTS)
        assert len(stored) == 94
        assert cli.main(["--format", "records", "verify"]) == 0
        capsys.readouterr()
        gates = oracles.CLIFFORD_GATES + ("NOT",)
        for seed in range(100):
            circ = oracles.random_clifford_circuit(1 + seed % 6, 20, seed, gates)
            circuit_state(Circuit(circ.width, circ.ops, format(seed % (1 << circ.width),
                                                                f"0{circ.width}b")))
        assert tensor._PRODUCTS == stored

    def test_stored_products_are_the_kernels_results(self, kernel_runs):
        # Bit for bit, signed zeros included: the kernel's run on copies of
        # the operands, which no stored product answers.
        for (a, legs_a, b, legs_b), product in tensor._PRODUCTS.items():
            want = np.tensordot(a.array, b.array, (legs_a, legs_b))
            assert np.array_equal(product.array, want)
            built = contract_pair(Tensor(a.rank, a.array), legs_a, Tensor(b.rank, b.array), legs_b)
            assert built.array.tobytes() == product.array.tobytes()
            assert not product.array.flags.writeable
        assert len(kernel_runs) == len(tensor._PRODUCTS)

    @pytest.mark.parametrize("gate", ["H", "S", "Z", "X", "Y", "NOT"])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_k_copies_of_a_gate_run_the_kernel_k_times(self, kernel_runs, gate, k):
        # k copies of a single-wire gate are one run: one word block, whose
        # merges and whose merge with the input ket or the identity anchor
        # are stored, or no block when the run is in the identity class.  So
        # no kernel runs, for a state and an operator alike.
        ops = (GateApp(gate, (0,)),) * k
        for build, circ in ((circuit_state, Circuit(1, ops, "1")),
                            (circuit_unitary, Circuit(1, ops))):
            kernel_runs.clear()
            got = build(circ).array.reshape(-1)
            assert kernel_runs == []
            want = np.linalg.matrix_power(oracles.GATE_MATRICES[gate], k)
            want = want[:, 1] if circ.input else want.reshape(-1)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_every_key_operand_is_a_generator_or_a_stored_product(self):
        # Only shared constants key the table, which keeps it bounded.
        constants = {gen.copy_tensor(), gen.xor_tensor(), gen.hadamard(), gen.ket_zero(),
                     gen.ket_one(), gen.identity_map(), *map(gen.t_vector, range(4))}
        constants |= set(tensor._PRODUCTS.values())
        for a, _, b, _ in tensor._PRODUCTS:
            assert a in constants and b in constants

    @pytest.mark.parametrize("gate", sorted(circuits.GATE_ARITY))
    def test_one_gate_states_run_no_kernel(self, kernel_runs, gate):
        arity = circuits.GATE_ARITY[gate]
        for bits in itertools.product("01", repeat=arity):
            circ = Circuit(arity, (GateApp(gate, tuple(range(arity))),), "".join(bits))
            got = circuit_state(circ).array.reshape(-1)
            assert kernel_runs == []
            np.testing.assert_allclose(got, oracles.dense_simulate(circ).amplitudes, atol=1e-12)

    def test_keys_hold_their_operands_not_their_values(self, kernel_runs):
        a, b = Tensor(1, (1, 0)), Tensor(1, (1, 0))
        assert len({(a, (0,)), (b, (0,))}) == 2
        # t1 on the copy tensor's leg 0 is S's stored merge; a rebuilt copy
        # of the copy tensor has the same entries but misses the table.
        t1, copy = gen.t_vector(1), gen.copy_tensor()
        rebuilt = Tensor(3, copy.array)
        assert max_abs_diff(rebuilt, copy) == 0.0
        stored = tensor.stored_product(t1, (0,), copy, (0,))
        assert stored is not None
        assert tensor.stored_product(t1, (0,), rebuilt, (0,)) is None
        assert kernel_runs == []
        assert np.array_equal(contract_pair(t1, (0,), rebuilt, (0,)).array, stored.array)
        assert kernel_runs == [2]

    def test_gate_bonds_come_before_the_bond_to_the_wire(self):
        # X on wire 0 of an operator: the constant |1> is bonded into the
        # xor node first, then the xor node to the wire's identity anchor.
        net = compile_circuit(Circuit(1, (GateApp("X", (0,)),)))
        assert list(net.nodes) == ["0:id", "1:xor", "2:ket1"]
        assert net.bonds == (("2:ket1", 0, "1:xor", 2), ("0:id", 0, "1:xor", 1))
        assert net.open_legs == (("1:xor", 0), ("0:id", 1))
        assert net.scalar == 1
        # Y, i times the word (2, N): each step's constant, then its chain
        # bond from the step before, and the first node to the anchor last.
        net = compile_circuit(Circuit(1, (GateApp("Y", (0,)),)))
        assert list(net.nodes) == ["0:id", "1:copy", "2:t2", "3:xor", "4:ket1"]
        assert net.bonds == (
            ("2:t2", 0, "1:copy", 0), ("4:ket1", 0, "3:xor", 2), ("1:copy", 1, "3:xor", 1),
            ("0:id", 0, "1:copy", 2),
        )
        assert net.open_legs == (("3:xor", 0), ("0:id", 1))
        assert net.scalar == 1j


def _element_matrix(element) -> np.ndarray:
    """An element of `circuits.ELEMENTS` as a complex 2x2 matrix."""
    *entries, h = element
    return np.array(entries, dtype=complex).reshape(2, 2) / np.sqrt(2) ** h


def _even_column(element) -> bool:
    """Whether `element` has h > 1 and a column whose entries are all even,
    which would then be held at more than its least h."""
    a, b, c, d, h = element
    return h > 1 and any(all(z.real % 2 == 0 and z.imag % 2 == 0 for z in column)
                         for column in ((a, c), (b, d)))


def _spelled(word) -> tuple:
    """Single-wire gates whose run is `word`'s element: H for each H step,
    NOT for each N step, k copies of S for each phase step k."""
    gates = {"H": ("H",), "N": ("NOT",), 1: ("S",), 2: ("S",) * 2, 3: ("S",) * 3}
    return tuple(GateApp(gate, (0,)) for step in word for gate in gates[step])


def _cost(e) -> int:
    """The nodes of element e's word."""
    return sum(circuits.STEP_COST[step] for step in circuits.WORDS[e])


class TestWordTable:
    """The shortest-word table `compile_circuit` writes each run with: the
    192 elements, their 24 classes up to a global phase, and the classes'
    words.  Its one-word networks are contracted here only: `verify` would
    pay for 23 more networks per call."""

    def test_words_are_a_prefix_closed_shortest_table(self):
        words = circuits.WORDS
        assert len(words) == len(set(words)) == len(set(circuits.ELEMENTS)) == 192
        assert words[0] == () and all(word[:-1] in words for word in words[1:])
        # Closed under every step, and no step leads to an element whose
        # word costs more than one step beyond the word it left: so no
        # shorter word exists for any element.
        cost = {}
        for word, element in zip(words, circuits.ELEMENTS):
            key = tuple(np.round(_element_matrix(element), 9).ravel())
            cost[key] = sum(circuits.STEP_COST[s] for s in word)
        steps = {"H": oracles.GATE_MATRICES["H"], **{k: np.diag([1, 1j ** k]) for k in (1, 2, 3)},
                 "N": oracles.GATE_MATRICES["X"]}
        for element in circuits.ELEMENTS:
            matrix = _element_matrix(element)
            here = cost[tuple(np.round(matrix, 9).ravel())]
            for step, step_cost in circuits.STEP_COST.items():
                assert cost[tuple(np.round(steps[step] @ matrix, 9).ravel())] <= here + step_cost
        assert max(cost.values()) <= 13
        assert circuits.SINGLE_WIRE_STEPS == {
            "H": ("H",), "S": (1,), "X": ("N",), "Y": (2, "N"), "Z": (2,), "NOT": ("N",),
        }
        assert circuits.GATE_ARITY == {
            "H": 1, "S": 1, "X": 1, "Y": 1, "Z": 1, "NOT": 1, "CN": 2}

    def test_no_column_is_all_even_above_h_1(self):
        # `_column` reads each column at its element's h, which is then its
        # least: halving an all-even column and taking 2 from h is the only
        # way to a smaller h.
        assert sum(element[-1] > 1 for element in circuits.ELEMENTS) > 0
        assert [e for e, element in enumerate(circuits.ELEMENTS) if _even_column(element)] == []

    def test_the_even_column_check_sees_an_unhalved_element(self, monkeypatch):
        # Hand-made faults: H held over sqrt(2)**3, not at its least h; one
        # column of an element held so; and a search whose H step from h = 1
        # leaves H H unhalved, as 2I over sqrt(2)**2.
        assert _even_column((2, 2, 2, -2, 3)) and _even_column((2, 1, 0, 1, 2))
        assert not _even_column((1, 1, 1, -1, 1)) and not _even_column((2, 0, 0, 2, 0))
        then = circuits._then

        def unhalved(matrix, step):
            after = then(matrix, step)
            if matrix[-1] == 1 and after[-1] == 0:
                return (*(2 * z for z in after[:4]), 2)
            return after

        monkeypatch.setattr(circuits, "_then", unhalved)
        assert any(map(_even_column, circuits._search_words()[0]))

    def test_classes_are_24_cheapest_words_up_to_a_phase(self):
        classes = sorted(set(circuits.CLASS))
        assert len(classes) == 24 and classes[0] == 0
        words = [circuits.WORDS[c] for c in classes]
        assert all(word[:-1] in words for word in words[1:])
        assert max(map(len, words)) == 3 and max(map(_cost, classes)) == 5
        omega = np.exp(1j * np.pi / 4)
        for c in classes:
            members = [e for e, k in enumerate(circuits.CLASS) if k == c]
            assert sorted(circuits.PHASE[e] for e in members) == list(range(8))
            assert circuits.PHASE[c] == 0 and _cost(c) == min(map(_cost, members))
            for e in members:
                np.testing.assert_allclose(
                    _element_matrix(circuits.ELEMENTS[e]),
                    omega ** circuits.PHASE[e] * _element_matrix(circuits.ELEMENTS[c]),
                    rtol=0, atol=1e-15)
        # 23 blocks, one per class other than the identity's, whose 8
        # scalar elements have none.
        blocks = circuits.WORD_BLOCKS
        assert len(set(blocks) - {None}) == 23 and max(len(b[0]) for b in blocks if b) == 5
        for e, c in enumerate(circuits.CLASS):
            assert blocks[e] == blocks[c] and (blocks[e] is None) == (c == 0)

    def test_each_element_is_its_class_element_followed_by_its_phase(self):
        # omega**g exactly as the Hadamard holds 1/sqrt(2), for each of the
        # 8 scalar elements omega**g times the identity
        quarter_turns = (1, 1j, -1, -1j)
        for g, (z, omega_g) in circuits._SCALARS.items():
            assert circuits.CLASS[z] == 0 and circuits.PHASE[z] == g
            assert omega_g == quarter_turns[g // 2] * (1, 1 + 1j)[g % 2] * gen.SQRT_HALF ** (g % 2)
            np.testing.assert_allclose(_element_matrix(circuits.ELEMENTS[z]),
                                       omega_g * np.eye(2), rtol=0, atol=1e-15)
        for e, (c, g) in enumerate(zip(circuits.CLASS, circuits.PHASE)):
            assert circuits._followed_by(c, circuits._SCALARS[g][0]) == e

    def test_each_gate_element_is_its_textbook_matrix(self):
        omega = np.exp(1j * np.pi / 4)
        for gate, word in circuits.SINGLE_WIRE_STEPS.items():
            e = circuits._RUN_AFTER[gate][0]
            assert circuits.WORDS[circuits.CLASS[e]] == word
            want = oracles.GATE_MATRICES[gate]
            np.testing.assert_allclose(
                _element_matrix(circuits.ELEMENTS[e]), want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                omega ** circuits.PHASE[e] * _element_matrix(circuits.ELEMENTS[circuits.CLASS[e]]),
                want, rtol=0, atol=1e-15)

    def test_each_word_contracts_to_its_element_with_every_merge_stored(self, kernel_runs):
        # Each element's own word, spelled in gates, compiles as an operator
        # to its class word's block with the scalar omega**PHASE, and
        # contracts to the element's matrix with no fitted scalar.
        omega = np.exp(1j * np.pi / 4)
        for e, (word, element) in enumerate(zip(circuits.WORDS, circuits.ELEMENTS)):
            net = compile_circuit(Circuit(1, _spelled(word)))
            assert len(net.nodes) == 1 + _cost(circuits.CLASS[e])
            assert abs(net.scalar - omega ** circuits.PHASE[e]) <= 1e-15
            np.testing.assert_allclose(
                net.contract().array, _element_matrix(element), rtol=0, atol=1e-15)
        assert kernel_runs == []

    def test_a_scalar_run_compiles_to_no_node_and_keeps_its_phase(self):
        # X Z X Z is -I: its class is the identity's, so the run is no node.
        ops = tuple(GateApp(gate, (0,)) for gate in "XZXZ")
        for bits, want in (("0", (-1, 0)), ("1", (0, -1)), (None, (-1, 0, 0, -1))):
            net = compile_circuit(Circuit(1, ops, bits))
            assert len(net.nodes) == 1 and net.bonds == () and net.scalar == -1
            assert net.contract().data == want


class TestStartTable:
    """`_START`: a state's first run on each wire, element e on |bit>, is
    compiled as the cheapest (element, bit) pair that makes the same state,
    phase included."""

    def test_each_start_is_the_cheapest_pair_with_the_same_state(self):
        pairs = [(e, bit) for e in range(len(circuits.ELEMENTS)) for bit in "01"]
        columns = np.array([_element_matrix(circuits.ELEMENTS[e])[:, int(bit)] for e, bit in pairs])
        # Two pairs make the same state up to a phase where their overlap is 1.
        same_ray = np.abs(np.abs(columns.conj() @ columns.T) - 1) <= 1e-12
        costs = np.array([_cost(circuits.CLASS[e]) for e, _ in pairs])
        for k, (e, bit) in enumerate(pairs):
            start = circuits._START[bit][e]
            np.testing.assert_allclose(columns[pairs.index(start)], columns[k], rtol=0, atol=1e-15)
            # Cheapest among them: the phase is the choice of element within
            # the class.
            assert _cost(circuits.CLASS[start[0]]) == costs[same_ray[k]].min()
        words = {(circuits.WORDS[circuits.CLASS[f]], start_bit)
                 for table in circuits._START.values() for f, start_bit in table}
        assert words == {(word, bit) for word in ((), ("H",), ("H", 1)) for bit in "01"}

    def test_each_word_on_each_ket_contracts_to_its_column(self, kernel_runs):
        # Exhaustive: every element's word, spelled in gates, on either
        # input ket has its start word's nodes and contracts, with no fitted
        # scalar and no kernel run, to the element's column.
        for e, (word, element) in enumerate(zip(circuits.WORDS, circuits.ELEMENTS)):
            for bit in "01":
                net = compile_circuit(Circuit(1, _spelled(word), bit))
                start, start_bit = circuits._START[bit][e]
                assert len(net.nodes) == 1 + _cost(circuits.CLASS[start])
                assert list(net.nodes)[0] == f"0:ket{start_bit}"
                np.testing.assert_allclose(net.contract().array,
                                           _element_matrix(element)[:, int(bit)],
                                           rtol=0, atol=1e-15)
        assert kernel_runs == []

    @pytest.mark.parametrize("wires", [(0, 1), (1, 0)])
    def test_every_pair_of_start_states_under_one_cn_runs_no_kernel(self, kernel_runs, wires):
        # Each of the six start states, as its start word's block (None for
        # a bare ket) and ket, maps to the costliest (element, bit) on it.
        starts = {}
        for e in range(len(circuits.ELEMENTS)):
            for bit in "01":
                f, start_bit = circuits._START[bit][e]
                starts[circuits.WORD_BLOCKS[f], start_bit] = e, bit
        assert len(starts) == 6
        for (e0, bit0), (e1, bit1) in itertools.product(starts.values(), repeat=2):
            ops = _spelled(circuits.WORDS[e0]) + tuple(
                GateApp(op.gate, (1,)) for op in _spelled(circuits.WORDS[e1]))
            circ = Circuit(2, ops + (GateApp("CN", wires),), bit0 + bit1)
            got = circuit_state(circ).array.reshape(-1)
            assert kernel_runs == [], (e0, bit0, e1, bit1)
            np.testing.assert_allclose(got, oracles.dense_simulate(circ).amplitudes,
                                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("width", range(7, 13))
def test_wide_states_match_the_dense_oracle(width):
    # Ten seeded circuits per width, depth 50-100, NOT included, half of
    # them from a nonzero input.
    rng = random.Random(width)
    gates = oracles.CLIFFORD_GATES + ("NOT",)
    for k in range(10):
        circ = oracles.random_clifford_circuit(width, rng.randint(50, 100), 100 * width + k, gates)
        if k % 2:
            circ = Circuit(width, circ.ops, format(rng.randrange(1, 1 << width), f"0{width}b"))
        # As they are, no scalar fitted out: a phase or norm fault shows.
        got = circuit_state(circ).array.reshape(-1)
        delta = np.max(np.abs(got - oracles.dense_simulate(circ).amplitudes))
        assert delta <= 1e-12, (width, k, delta)


@pytest.fixture()
def peak_rank(monkeypatch):
    """Record the largest rank of any contract_pair result in the test."""
    peak = [0]
    original = tensor.contract_pair

    def recording(a, legs_a, b, legs_b):
        out = original(a, legs_a, b, legs_b)
        peak[0] = max(peak[0], out.rank)
        return out

    monkeypatch.setattr(tensor, "contract_pair", recording)
    return peak


class TestContractionWidth:
    """Gate-order contraction stays near the circuit width."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width,depth", [(8, 100), (10, 100), (12, 400)])
    def test_state_peak_rank_and_dense_agreement(self, peak_rank, width, depth, seed):
        circ = oracles.random_clifford_circuit(width, depth, seed)
        state = circuit_state(circ)
        assert peak_rank[0] <= width + 1
        delta = np.max(np.abs(state.array.reshape(-1) - oracles.dense_simulate(circ).amplitudes))
        assert delta <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width,depth,state", [
        (8, 100, True), (10, 100, True), (12, 400, True),
        (4, 60, False), (5, 60, False), (6, 60, False),
    ])
    def test_plan_is_what_contract_builds(self, width, depth, state, seed):
        """The state and operator grids above, planned and then contracted."""
        circ = oracles.random_clifford_circuit(width, depth, seed)
        inputs = "0" * width if state else None
        assert_plan_is_observed(compile_circuit(Circuit(width, circ.ops, inputs)))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("width", [4, 5, 6])
    def test_operator_peak_rank_and_dense_agreement(self, peak_rank, width, seed):
        circ = oracles.random_clifford_circuit(width, 60, seed)
        u = circuit_unitary(circ).array.reshape(1 << width, 1 << width)
        assert peak_rank[0] <= 2 * width
        for col in range(1 << width):
            basis = Circuit(width, circ.ops, format(col, f"0{width}b"))
            want = oracles.dense_simulate(basis).amplitudes
            np.testing.assert_allclose(u[:, col], want, atol=1e-10)


@pytest.fixture()
def pair_calls(monkeypatch):
    """Count contract_pair calls in the test."""
    calls = []
    original = tensor.contract_pair

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tensor, "contract_pair", counting)
    return calls


def _all_h(width, ops=()):
    return Circuit(width, tuple(GateApp("H", (w,)) for w in range(width)) + ops, "0" * width)


class TestRankBudget:
    """A contraction over the rank budget fails before its first merge."""

    def test_wide_operator_is_refused(self, pair_calls):
        circ = Circuit(13, oracles.random_clifford_circuit(13, 20, 0).ops)
        with pytest.raises(RankBudgetError, match="rank 26; the rank budget is 24"):
            compile_circuit(circ).plan()
        with pytest.raises(RankBudgetError, match="the rank budget is 24"):
            circuit_unitary(circ)
        assert pair_calls == []

    def test_result_over_budget_is_refused_before_compiling(self, pair_calls, monkeypatch):
        monkeypatch.setattr(circuits, "compile_circuit", None)
        with pytest.raises(RankBudgetError, match="25-wire state has rank 25"):
            circuit_state(Circuit(25, (GateApp("H", (0,)),)))
        with pytest.raises(RankBudgetError, match="13-wire operator has rank 26"):
            circuit_unitary(Circuit(13))
        assert pair_calls == []

    def test_cn_ladder_peaking_above_budget_is_refused(self, pair_calls):
        ladder = _all_h(24, tuple(GateApp("CN", (w, w + 1)) for w in range(23)))
        with pytest.raises(RankBudgetError, match="rank 25; the rank budget is 24"):
            compile_circuit(ladder).plan()
        with pytest.raises(RankBudgetError, match="the rank budget is 24"):
            circuit_state(ladder)
        assert pair_calls == []

    def test_all_h_state_at_the_budget_is_planned(self):
        steps = compile_circuit(_all_h(24)).plan()
        assert max(step.rank for step in steps) == 24
