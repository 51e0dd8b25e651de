"""The benchmark's workloads: the darkbus steps one pass runs, and why.

A pass is one fresh single-threaded process that runs a workload's steps
``reps`` times in order.  Every step but the library basis fit is a call of
the public CLI entry point ``darkbus.cli.main`` with the config in
``workloads.yaml``.

Every workload must print every end-to-end metric, so a workload's heaviest
step is gated under the shared name ``main_step_s``.  Every step's time is
also printed under its own name, ``<id>_s``.  ``fidelity`` is the
workload's headline result quality, read from the manifest summary of step
``fidelity_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG = Path(__file__).with_name("workloads.yaml")


@dataclass(frozen=True)
class Step:
    id: str                       # output directory, reference entry, metric name
    command: str | None           # CLI subcommand; None for the library basis fit
    scenario: str | None = None   # block under scenarios: in workloads.yaml

    @property
    def metric(self) -> str:
        return self.id.replace("-", "_") + "_s"

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [self.command, "--config", str(CONFIG), "--seed", str(seed), "--out", str(out)]
        if self.scenario:
            argv += ["--scenario", self.scenario]
        return argv


def basis_fit(params, opts: dict):
    """The library step: tomo-demo's heralded pair, then the basis fit."""
    from darkbus import protocol, tomography
    from darkbus.protocol import VacuumCheckModel

    check = {"ideal": VacuumCheckModel.ideal, "measured": VacuumCheckModel.from_measured}[opts["check"]]()
    res = protocol.run_dmm(
        params, check=check, cavity_loss=bool(opts["cavity_loss"]), dump_time=opts["dump_time"]
    )
    return tomography.optimize_basis(res.rho_pass, res.rho_pass.space.dims)


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    main_step: str                # step id gated as main_step_s
    fidelity_step: str            # step whose manifest summary holds ...
    fidelity_key: str             # ... the workload's headline fidelity
    reps: int = 1


WORKLOADS = {
    # Wigner kernels, MLE and basis fitting; the master equation never runs,
    # so this is the bypass workload for every lindblad_evolve change.
    "tomography": Workload(
        steps=(
            Step("tomo-demo", "tomo-demo"),
            Step("basis-fit", None),
        ),
        main_step="tomo-demo",
        fidelity_step="tomo-demo",
        fidelity_key="mle_fidelity",     # MLE state against the true conditioned state
    ),
    # lindblad_evolve used two ways: a few large solves (entangle, 144-dim)
    # and one long small one (dual-rail) against hundreds of tiny ones inside
    # Nelder-Mead (transfer).  Tomography never runs.
    "master-equation": Workload(
        steps=(
            Step("entangle-lindblad", "entangle", "entangle-lindblad"),
            Step("dual-rail", "dual-rail"),
            Step("transfer", "transfer-efficiency"),
        ),
        main_step="entangle-lindblad",
        fidelity_step="entangle-lindblad",
        fidelity_key="fidelity",         # Bell fidelity of the heralded pair
    ),
    # The passive linear network: propagators, sector materialization,
    # teleportation krons and CSV writing.  Neither the master equation nor
    # the Wigner kernels run.  The command list repeats so that a pass lasts
    # a few seconds.
    "linear-network": Workload(
        steps=(
            Step("regimes", "regimes"),
            Step("phase-sweep", "phase-sweep", "phase-sweep"),
            Step("entangle", "entangle"),
            Step("alpha-sweep", "alpha-sweep", "alpha-sweep"),
            Step("teleport", "teleport"),
            Step("error-budget", "error-budget", "error-budget"),
            Step("multiround", "multiround"),
        ),
        main_step="alpha-sweep",
        fidelity_step="teleport",
        fidelity_key="favg",             # average teleportation fidelity
        reps=6,
    ),
}
