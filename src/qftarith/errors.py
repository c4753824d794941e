"""Exception types shared across the package."""


class QuantumArithmeticError(Exception):
    """Base class for every error raised by this package."""


class IndexOutOfRange(QuantumArithmeticError, IndexError):
    """A basis index or qubit index lies outside the register."""


class DuplicateQubit(QuantumArithmeticError, ValueError):
    """The same qubit appears more than once among a gate's targets and controls."""


class NotBasisState(QuantumArithmeticError):
    """No single basis amplitude dominates; the state is a genuine superposition."""


class QubitCountMismatch(QuantumArithmeticError, ValueError):
    """A circuit and a state (or two circuits) disagree on qubit count."""


class ValueTooWide(QuantumArithmeticError, ValueError):
    """A register value, a command-line operand included, is no integer or
    does not fit in the target register."""


class ConstantTooWide(QuantumArithmeticError, ValueError):
    """An addition constant does not fit in the target register."""


class OverlappingRegisters(QuantumArithmeticError, ValueError):
    """Source, destination, or control qubit ranges overlap."""


class SpecInvariantViolation(QuantumArithmeticError, ValueError):
    """Sizing parameters (register width, accumulator width, unroll count)
    violate a requirement."""


OperandTooWide = ValueTooWide
"""Alias of :class:`ValueTooWide`: the CLI checks its operands with
:func:`~qftarith.circuit.encode_registers`, like every other register value."""


class QubitBudgetExceeded(QuantumArithmeticError):
    """The requested simulation needs more qubits than the configured budget."""
