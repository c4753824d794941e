"""The package's public names: ``__all__`` is made from the imports in
``qftarith/__init__.py``, so ``from qftarith import *`` gives every name
imported there and none of the submodules those imports bind."""

import qftarith

PUBLIC = {
    "Circuit", "CircuitStats", "ConstantTooWide", "DuplicateQubit", "Gate", "GateKind",
    "IndexOutOfRange", "MultiplierSpec", "NotBasisState", "OperandTooWide",
    "OverlappingRegisters", "QuantumArithmeticError", "QubitBudgetExceeded",
    "QubitCountMismatch", "RegisterLayout", "SignedConstant", "SpecInvariantViolation",
    "StateVector", "ValueTooWide", "amplitude", "apply_hadamard", "apply_phase",
    "apply_swap", "apply_x", "build_adder", "build_decrement", "build_fourier_add_constant",
    "build_fourier_add_register", "build_inverse_qft", "build_multiplier", "build_qft",
    "build_zero_check", "circuit_listing", "concat", "decode_register", "decode_registers",
    "encode_register", "encode_registers", "extract_basis_index", "format_gate", "inverse",
    "labeled", "multiplier_layout", "multiply", "new_basis_state", "norm", "run", "stats",
}


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from qftarith import *", namespace)
    assert len(PUBLIC) == 48
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert all(getattr(qftarith, name) is namespace[name] for name in PUBLIC)


def test_all_is_sorted_and_has_no_duplicates():
    assert qftarith.__all__ == sorted(PUBLIC)
