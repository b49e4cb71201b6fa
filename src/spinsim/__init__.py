"""spinsim: digital quantum simulation of spin Hamiltonians.

Trotter-Suzuki compilation of spin-model time evolution into hardware-native
gate sets (CNOT, exchange, controlled-phase and Moelmer-Soerensen families),
an exact statevector backend, and extraction of magnetizations, dynamical
correlation functions and operator spectra.
"""

from .compiler import (
    Circuit,
    GateSet,
    circuit_unitary,
    decompose_pauli,
    dumps_circuit,
    heisenberg2_circuit,
    inverse_circuit,
    loads_circuit,
    run_circuit,
)
from .errors import InputError, ResourceError
from .gates import GateOp, gate_matrix
from .observables import (
    CorrelationSpec,
    SpectrumSpec,
    correlation_ancilla,
    correlation_direct,
    correlation_rows,
    magnetization,
    spectrum_from_series,
    spin_correlation,
    unitary_expectation_series,
)
from .pauli import (
    FermionHamiltonian,
    FermionTerm,
    PauliHamiltonian,
    PauliString,
    commutes,
    disjoint_layers,
    heisenberg_chain,
    hubbard_2site,
    jordan_wigner,
    tim_chain,
    xy_chain,
    xyz_chain,
)
from .runner import ExperimentConfig, figure_preset, parse_config, run, verify_suite
from .statevector import (
    StateVector,
    apply_gate,
    basis_state,
    inner_product,
    probability,
    product_state,
)
from .trotter import (
    EvolutionResult,
    TrotterCompiler,
    TrotterPlan,
    evolve,
    steps_for_phase,
    trotterize,
)

__version__ = "0.1.0"
