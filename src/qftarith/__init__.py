"""Exact state-vector simulation of Fourier-transform arithmetic circuits.

The package has three layers:

* :mod:`qftarith.qstate` - amplitudes, dense or compact, and primitive gate
  kernels;
* :mod:`qftarith.circuit` - the gate/circuit data model, register layouts,
  execution, statistics, and the text listing format;
* :mod:`qftarith.qft`, :mod:`qftarith.arith`, :mod:`qftarith.multiplier` -
  circuit builders: the Fourier transform, constant/register addition in
  Fourier space, the decrement gate, the in-place adder, and the
  repeated-addition multiplier.

Every arithmetic result is a deterministic computational-basis state, so
the tests verify circuits exhaustively against classical integer
arithmetic.  :mod:`qftarith.cli` exposes the same checks on the command
line.
"""

from .arith import (
    SignedConstant,
    build_adder,
    build_decrement,
    build_fourier_add_constant,
    build_fourier_add_register,
)
from .circuit import (
    Circuit,
    CircuitStats,
    Gate,
    GateKind,
    RegisterLayout,
    circuit_listing,
    concat,
    decode_register,
    decode_registers,
    encode_register,
    encode_registers,
    format_gate,
    inverse,
    labeled,
    run,
    stats,
)
from .errors import (
    ConstantTooWide,
    DuplicateQubit,
    IndexOutOfRange,
    NotBasisState,
    OperandTooWide,
    OverlappingRegisters,
    QuantumArithmeticError,
    QubitBudgetExceeded,
    QubitCountMismatch,
    SpecInvariantViolation,
    ValueTooWide,
)
from .multiplier import (
    MultiplierSpec,
    build_multiplier,
    build_zero_check,
    multiplier_layout,
    multiply,
)
from .qft import build_inverse_qft, build_qft
from .qstate import (
    StateVector,
    amplitude,
    apply_hadamard,
    apply_phase,
    apply_swap,
    apply_x,
    extract_basis_index,
    new_basis_state,
    norm,
)

__version__ = "0.1.0"

# Every name imported above but the submodules, which the imports bind too.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(qstate)))
