"""Simulator and analysis toolkit for shared-sideband Dicke-state
preparation in mixed-species ion chains: chain normal modes, exact
red-sideband pulse dynamics, fidelity-versus-mass-ratio scans, and the
photon-count maximum-likelihood readout pipeline."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .chain import (ChainConfig, ChainFile, ChainTemplate,
                    EquilibriumSolution, LambDickeWarning, ModeSet,
                    coupling_strengths, read_chain_file, scaled_gradient,
                    scaled_hessian, solve_axial_modes, solve_equilibrium)
from .detection import (CalibrationResult, FitResult,
                        ParityScanResult, ReadoutModel, calibrate,
                        composite_dists, estimate_period,
                        ml_fit, parity_from_fit, parity_scan_analysis,
                        parity_std_from_fit, synthesize_shots)
from .dicke import QubitDensity, collective_rotation, rotated_density
from .errors import (ConvergenceError, DataError, DickesimError,
                     IdentifiabilityError, SearchError, UnstableCrystalError)
from .experiment import run_experiment
from .sideband import (ExcitationSector, PulseResult,
                       fidelity_vs_mass_ratio, first_max_fidelity,
                       first_max_from_couplings, reduce_to_qubits,
                       rsb_hamiltonian)

# the submodules that the imports above bind stay out, so that
# ``from dickesim import *`` binds no module over a caller's own names
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
