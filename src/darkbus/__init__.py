"""darkbus: loss-protected entanglement over a standing-wave microwave bus.

Two bosonic modules share a deliberately lossy bus mode.  Their symmetric
("bright") combination couples to the bus and drains away; the antisymmetric
("dark") combination never sees it.  Pumping both cavities into small cats
and heralding on "neither cavity is empty" therefore projects onto a logical
Bell pair whose fidelity is insensitive to how bad the bus is -- the bus
quality only prices the heralding rate.

Layout: :mod:`.hilbert` (truncated-Fock linear algebra), :mod:`.codes`
(cat qubits), :mod:`.dynamics` (parameters, master equation, exact coherent
propagation), :mod:`.protocol` (heralding, teleportation, dual-rail,
multiround), :mod:`.tomography` (Wigner maps, MLE, basis fitting),
:mod:`.errorbudget` (closed-form infidelity terms), :mod:`.cli`.
"""

from . import codes, dynamics, errorbudget, hilbert, protocol, tomography
from .codes import Codewords, LogicalBasis, bell_state
from .dynamics import (
    SystemParams,
    auto_dump_time,
    classify_regime,
    critical_kappa,
    damping_rates,
    langevin_solve,
    lindblad_evolve,
    t_swap,
    transfer_efficiency,
)
from .errorbudget import BudgetBreakdown, optimal_alpha, predicted_infidelity
from .hilbert import (
    HilbertSpace,
    NumericalError,
    QuantumState,
    fidelity,
    trace_distance,
)
from .protocol import (
    DmmResult,
    MultiroundStats,
    TeleportResult,
    VacuumCheckModel,
    avg_qst_fidelity,
    dual_rail_dmm,
    multiround_stats,
    phase_sweep,
    run_dmm,
    success_probability,
    teleport,
)
from .tomography import (
    WignerData,
    WignerGrid,
    mle_density,
    optimize_basis,
    sample_counts,
    wigner_map,
)

__version__ = "0.1.0"

__all__ = [
    "codes",
    "dynamics",
    "errorbudget",
    "hilbert",
    "protocol",
    "tomography",
    "Codewords",
    "LogicalBasis",
    "bell_state",
    "SystemParams",
    "auto_dump_time",
    "classify_regime",
    "critical_kappa",
    "damping_rates",
    "langevin_solve",
    "lindblad_evolve",
    "t_swap",
    "transfer_efficiency",
    "BudgetBreakdown",
    "optimal_alpha",
    "predicted_infidelity",
    "HilbertSpace",
    "NumericalError",
    "QuantumState",
    "fidelity",
    "trace_distance",
    "DmmResult",
    "MultiroundStats",
    "TeleportResult",
    "VacuumCheckModel",
    "avg_qst_fidelity",
    "dual_rail_dmm",
    "multiround_stats",
    "phase_sweep",
    "run_dmm",
    "success_probability",
    "teleport",
    "WignerData",
    "WignerGrid",
    "mle_density",
    "optimize_basis",
    "sample_counts",
    "wigner_map",
    "__version__",
]
