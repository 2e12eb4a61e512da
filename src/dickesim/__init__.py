"""Simulator and analysis toolkit for shared-sideband Dicke-state
preparation in mixed-species ion chains: chain normal modes, exact
red-sideband pulse dynamics, fidelity-versus-mass-ratio scans, and the
photon-count maximum-likelihood readout pipeline."""

__version__ = "0.1.0"

from .chain import (ChainConfig, ChainFile, ChainTemplate,
                    EquilibriumSolution, LambDickeWarning, ModeSet,
                    coupling_strengths, modes_to_csv, read_chain_file,
                    scaled_gradient, scaled_hessian, scaled_potential,
                    solve_axial_modes, solve_equilibrium)
from .detection import (CalibrationResult, CountDistribution, CountModel,
                        FitResult, ParityScanResult, ReadoutModel, calibrate,
                        composite_dists, convolve, dark_ion_dist,
                        estimate_period, ml_fit, parity_from_fit,
                        parity_scan_analysis, parity_std_from_fit,
                        poisson_dist, synthesize_shots)
from .dicke import (QubitDensity, QubitState, collective_rotation,
                    dicke_fidelity, dicke_state, dicke_vector,
                    parity_expectation, rotated_density, rotated_parity,
                    w_fidelity_analytic)
from .errors import (ConvergenceError, DataError, DickesimError,
                     IdentifiabilityError, SearchError, UnstableCrystalError)
from .experiment import run_experiment
from .sideband import (ExcitationSector, PulseResult, SweepRow,
                       fidelity_vs_mass_ratio, first_max_fidelity,
                       first_max_from_couplings, reduce_to_qubits,
                       rsb_hamiltonian)

__all__ = [name for name in dir() if not name.startswith("_")]
