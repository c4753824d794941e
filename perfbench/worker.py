"""Benchmark worker: calls ``qftarith.cli.main`` in-process and reports each
operation as one JSON line.

    python perfbench/worker.py                # serve requests, one per stdin line
    python perfbench/worker.py MODE ARGV...   # serve one request, then exit

A request is ``{"mode": MODE, "argv": [...]}`` with MODE one of

* ``plain``  - the CLI exactly as shipped;
* ``trace``  - spans around the calls the CLI makes into each layer (build,
  state allocation, run, readout), the run split into the circuit's stages,
  and the final state's norm drift and off-basis mass;
* ``replay`` - the run replaced by a gate-by-gate replay through the public
  ``apply_*`` kernels, each call timed and counted by gate kind and
  control count.

The reply holds the return code, the CLI's captured stdout and the wall time
of the ``main`` call, plus the spans, accuracy or kernel figures.  Hooks
replace names that ``qftarith.cli`` imported, so the CLI's own code runs
between them.  If a successful operation never reaches a hook, the CLI has
changed shape and the worker stops rather than report partial figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import asdict

import numpy as np

import qftarith.cli as cli
from qftarith.arith import build_fourier_add_constant, build_fourier_add_register
from qftarith.circuit import Circuit, GateKind
from qftarith.qft import build_inverse_qft, build_qft
from qftarith.qstate import apply_hadamard, apply_phase, apply_swap, apply_x

from spans import STAGES, Tracer

# Name imported by qftarith.cli -> span recorded around each call to it.
BOUNDARIES = {
    "build_multiplier": "multiplier.build",
    "build_adder": "arith.build",
    "build_decrement": "arith.build",
    "new_basis_state": "qstate.alloc",
    "extract_basis_index": "qstate.readout",
    "decode_registers": "qstate.readout",
}
REQUIRED_SPANS = ("circuit.run", "qstate.alloc", "qstate.readout")
AMPLITUDE_BYTES = 16


class BenchmarkBroken(RuntimeError):
    """The CLI no longer matches what the hooks expect."""


@contextlib.contextmanager
def patched(replacements):
    saved = {name: getattr(cli, name) for name in replacements}
    for name, fn in replacements.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def timed(tracer: Tracer, span_name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)
    return wrapper


def split_stages(kind: str, circuit: Circuit) -> list[tuple[str, Circuit]]:
    """The circuit cut into (stage, sub-circuit) blocks, in execution order.

    The multiplier labels its blocks ("qft[accumulator]", "add[iter 3]",
    "check[0]", ...).  The adder and the decrement are unlabelled, so their
    qft / add / iqft stages are rebuilt with the same public builders and
    must match the circuit gate for gate.
    """
    n = circuit.num_qubits
    if kind == "mul":
        blocks: list[tuple[str, list]] = []
        for gate in circuit.gates:
            stage = (gate.label or "").split("[", 1)[0]
            if stage not in STAGES:
                raise BenchmarkBroken(f"gate label {gate.label!r} names no known stage")
            if blocks and blocks[-1][0] == stage:
                blocks[-1][1].append(gate)
            else:
                blocks.append((stage, [gate]))
        return [(stage, Circuit(n, tuple(gates))) for stage, gates in blocks]
    if kind == "add":
        a, b = range(n // 2), range(n // 2, n)
        kick = build_fourier_add_register(a, b, num_qubits=n)
        target = b
    elif kind == "dec":
        target = range(n)
        kick = build_fourier_add_constant(target, -1, (), n)
    else:
        raise BenchmarkBroken(f"no stage split for operation {kind!r}")
    parts = [("qft", build_qft(target, n)), ("add", kick), ("iqft", build_inverse_qft(target, n))]
    if sum((part.gates for _, part in parts), ()) != circuit.gates:
        raise BenchmarkBroken(f"the {kind} circuit no longer matches qft + add + iqft")
    return parts


def accuracy(amplitudes: np.ndarray) -> dict[str, float]:
    """Norm drift, and the probability outside the single dominant amplitude."""
    probs = np.abs(amplitudes) ** 2
    drift = abs(float(np.sqrt(probs.sum())) - 1.0)
    probs[np.argmax(probs)] = 0.0
    return {"norm_drift": drift, "off_basis_mass": float(probs.sum())}


def kernel_key(gate) -> str:
    if gate.kind in (GateKind.X, GateKind.SWAP):
        return f"{gate.kind.value}.cN"
    return f"{gate.kind.value}.c{len(gate.controls)}"


def bytes_touched(gate, num_qubits: int) -> int:
    """Computed, not measured: 16 B for every amplitude the gate reads and
    again for every one it writes, by the gate's definition.  Kernel
    temporaries and cache misses are not counted."""
    active = 1 << (num_qubits - len(gate.controls))  # amplitudes with controls met
    if gate.kind is GateKind.PHASE:
        moved = 0 if gate.phase_turns == 0 else active // 2
    elif gate.kind is GateKind.SWAP:
        moved = active // 2
    else:
        moved = active
    return 2 * AMPLITUDE_BYTES * moved


def replay(circuit: Circuit, state, kernels: dict[str, list]) -> None:
    """Run the circuit through the public kernels, timing every call."""
    n = state.num_qubits
    for gate in circuit.gates:
        kind, targets, controls = gate.kind, gate.targets, gate.controls
        start = time.perf_counter()
        if kind is GateKind.HADAMARD:
            apply_hadamard(state, targets[0], controls)
        elif kind is GateKind.PHASE:
            apply_phase(state, targets[0], gate.phase_turns, controls)
        elif kind is GateKind.X:
            apply_x(state, targets[0], controls)
        else:
            apply_swap(state, targets[0], targets[1], controls)
        elapsed = time.perf_counter() - start
        entry = kernels.setdefault(kernel_key(gate), [0.0, 0, 0])
        entry[0] += elapsed
        entry[1] += 1
        entry[2] += bytes_touched(gate, n)


def serve(request: dict) -> dict:
    mode, argv = request["mode"], request["argv"]
    tracer = Tracer()
    extra: dict = {}
    hooks: dict = {}
    root = contextlib.nullcontext()
    if mode == "trace":
        hooks = {name: timed(tracer, span, getattr(cli, name)) for name, span in BOUNDARIES.items()}
        real_run = cli.run
        root = tracer.span("cli.main")

        def staged_run(circuit, state):
            with tracer.span("trace.split"):
                stages = split_stages(argv[0], circuit)
            with tracer.span("circuit.run"):
                for stage, part in stages:
                    with tracer.span(f"circuit.run.{stage}"):
                        real_run(part, state)
            with tracer.span("trace.accuracy"):
                extra["accuracy"] = accuracy(state.amplitudes)
            return state

        hooks["run"] = staged_run
    elif mode == "replay":
        kernels: dict[str, list] = {}

        def replay_run(circuit, state):
            replay(circuit, state, kernels)
            extra.update(kernels=kernels, gates=len(circuit),
                         state_bytes=int(state.amplitudes.nbytes))
            return state

        hooks["run"] = replay_run
    elif mode != "plain":
        raise BenchmarkBroken(f"unknown mode {mode!r}")

    out = io.StringIO()
    with patched(hooks), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            with root:
                rc = cli.main(argv)
        except BenchmarkBroken:
            raise
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the program crashed: a failed operation, not a broken worker
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start

    reply = {"rc": rc, "stdout": out.getvalue(), "elapsed": elapsed, **extra}
    if mode == "trace":
        names = {s.name for s in tracer.spans}
        missing = [n for n in REQUIRED_SPANS if n not in names]
        if not names & {"multiplier.build", "arith.build"}:
            missing.append("a builder")
        if rc == 0 and missing:
            raise BenchmarkBroken(f"the CLI never reached {', '.join(missing)}")
        reply["spans"] = [asdict(s) for s in tracer.spans]
    if mode == "replay" and rc == 0 and "kernels" not in reply:
        raise BenchmarkBroken("the CLI never reached run")
    return reply


def main(args: list[str]) -> int:
    if args:
        print(json.dumps(serve({"mode": args[0], "argv": args[1:]})))
        return 0
    for line in sys.stdin:
        sys.stdout.write(json.dumps(serve(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
