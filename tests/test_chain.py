import io

import numpy as np
import pytest
from conftest import (assert_identity_semantics, length_scale,
                      relax_equilibrium, scaled_potential)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dickesim import (ChainConfig, ChainTemplate, ConvergenceError,
                      LambDickeWarning, coupling_strengths, modes_to_csv,
                      read_chain_file, scaled_gradient, scaled_hessian,
                      solve_axial_modes, solve_equilibrium)
from dickesim import chain as chain_mod
from dickesim.errors import DataError, UnstableCrystalError

# closed forms: two ions at +-a with 2a^3 = ... dV/da = 2a - 1/(2a^2) = 0
TWO_ION_POS = 0.25 ** (1.0 / 3.0)  # 0.62996...
# three ions at -d, 0, d with d^3 = 5/4
THREE_ION_POS = 1.25 ** (1.0 / 3.0)  # 1.07722...


def test_two_ion_equilibrium_matches_closed_form():
    eq = solve_equilibrium(ChainConfig(masses=(1.0, 1.0)))
    assert eq.positions == pytest.approx([-TWO_ION_POS, TWO_ION_POS], abs=1e-10)


def test_three_ion_equilibrium_matches_closed_form():
    eq = solve_equilibrium(ChainConfig(masses=(1.0, 1.0, 1.0)))
    assert eq.positions == pytest.approx(
        [-THREE_ION_POS, 0.0, THREE_ION_POS], abs=1e-10)


def test_single_ion_chain_rejected():
    with pytest.raises(ValueError):
        ChainConfig(masses=(25.0,))


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ChainConfig(masses=(25.0, -1.0))
    with pytest.raises(ValueError):
        ChainConfig(masses=(25.0, 25.0), reference_index=5)
    with pytest.raises(ValueError):
        ChainConfig(masses=(25.0, 25.0), omega_z=0.0)
    with pytest.raises(ValueError):
        ChainConfig(masses=(25.0, 25.0), k_projection=-1.0)
    for nonfinite in ({"masses": (25.0, np.nan)}, {"masses": (np.inf, 25.0)},
                      {"omega_z": np.nan}, {"omega_z": np.inf},
                      {"k_projection": np.nan}, {"k_projection": np.inf}):
        with pytest.raises(ValueError, match="finite"):
            ChainConfig(**{"masses": (25.0, 25.0), **nonfinite})


@pytest.mark.parametrize("n_ions", range(2, 9))
def test_gradient_and_hessian_match_potential_differences(n_ions):
    # perturbed equilibria keep every pair well apart; random points could
    # put two ions close enough for 1/d^3 to swamp the difference quotients
    eq = solve_equilibrium(ChainConfig(masses=(1.0,) * n_ions))
    u = eq.positions + 0.05 * np.random.default_rng(n_ions).standard_normal(n_ions)
    eye = np.eye(n_ions)
    h = 1e-5
    grad = [(scaled_potential(u + h * e) - scaled_potential(u - h * e)) / (2 * h)
            for e in eye]
    assert np.max(np.abs(scaled_gradient(u) - grad)) < 1e-8
    h = 1e-4
    hess = [[(scaled_potential(u + h * (a + b)) - scaled_potential(u + h * (a - b))
              - scaled_potential(u - h * (a - b)) + scaled_potential(u - h * (a + b)))
             / (4 * h * h) for b in eye] for a in eye]
    assert np.max(np.abs(scaled_hessian(u) - hess)) < 1e-6 * np.max(np.abs(hess))


@pytest.mark.parametrize("n_ions", [2, 3, 4, 5, 6, 7])
def test_equilibrium_gradient_norm(n_ions):
    eq = solve_equilibrium(ChainConfig(masses=(1.0,) * n_ions))
    assert eq.residual_gradient_norm < 1e-10
    assert np.linalg.norm(scaled_gradient(eq.positions)) < 1e-10
    assert np.all(np.diff(eq.positions) > 0)


@pytest.mark.parametrize("n_ions", [3, 4, 5, 6, 7])
def test_equilibrium_antisymmetric(n_ions):
    eq = solve_equilibrium(ChainConfig(masses=(1.0,) * n_ions))
    centered = eq.positions - np.mean(eq.positions)
    assert centered == pytest.approx(-centered[::-1], abs=1e-10)


@pytest.mark.parametrize("n_ions", [2, 3, 5, 7])
def test_equilibrium_vs_relaxation_oracle(n_ions):
    eq = solve_equilibrium(ChainConfig(masses=(1.0,) * n_ions))
    oracle = relax_equilibrium(n_ions)
    assert eq.positions == pytest.approx(oracle, abs=1e-8)


def test_equilibrium_deterministic():
    cfg = ChainConfig(masses=(25.0, 25.0, 27.0))
    a = solve_equilibrium(cfg)
    b = solve_equilibrium(cfg)
    assert np.array_equal(a.positions, b.positions)


def test_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(chain_mod, "MAX_ITER", 1)
    monkeypatch.setattr(chain_mod, "GRAD_TOL", 1e-14)
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(ChainConfig(masses=(1.0,) * 4))
    assert err.value.residual_norm is not None
    assert err.value.residual_norm > 0


def test_convergence_error_names_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(chain_mod, "MAX_ITER", 1)
    monkeypatch.setattr(chain_mod, "GRAD_TOL", 1e-14)
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(ChainConfig(masses=(1.0,) * 4))
    message = str(err.value)
    assert "stalled" in message
    assert "after 1 Newton iterations" in message
    assert "MAX_ITER = 1 was reached" in message
    assert "line search" not in message


def test_convergence_error_names_the_stalled_line_search(monkeypatch):
    # no gradient norm lies below 0, so Newton runs to machine precision
    # and stops only when the line search can lower the norm no further
    monkeypatch.setattr(chain_mod, "GRAD_TOL", 0.0)
    with pytest.raises(ConvergenceError) as err:
        solve_equilibrium(ChainConfig(masses=(1.0,) * 4))
    message = str(err.value)
    assert "stalled" in message
    assert "line search found no step" in message
    assert "MAX_ITER" not in message
    iterations = int(message.split(" after ")[1].split()[0])
    assert 0 < iterations < chain_mod.MAX_ITER
    assert err.value.residual_norm < 1e-12


def test_two_ion_mode_frequencies_analytic():
    # in-phase at omega_z, out-of-phase at sqrt(3) omega_z
    cfg = ChainConfig(masses=(1.0, 1.0))
    modes = solve_axial_modes(cfg)
    assert modes.frequencies == pytest.approx([1.0, np.sqrt(3.0)], abs=1e-10)
    b = modes.eigenvectors[:, 0]
    assert np.all(b > 0)  # the in-phase mode is mode 0
    assert b[0] == pytest.approx(b[1], abs=1e-12)


@pytest.mark.parametrize("masses", [
    (1.0, 1.0, 1.0),
    (25.0, 25.0, 27.0),
    (1.0, 10.0, 1.0),
    (1.0, 1.0, 0.5, 1.0, 1.0),
])
def test_mode_orthonormality(masses):
    cfg = ChainConfig(masses=masses)
    modes = solve_axial_modes(cfg)
    b = modes.eigenvectors
    assert np.max(np.abs(b.T @ b - np.eye(len(masses)))) < 1e-10


@pytest.mark.parametrize("n_ions", [2, 4, 5])
def test_equal_mass_inphase_mode(n_ions):
    cfg = ChainConfig(masses=(1.0,) * n_ions)
    modes = solve_axial_modes(cfg)
    k = 0  # the in-phase mode
    assert modes.frequencies[k] == pytest.approx(1.0, abs=1e-10)
    amps = modes.ground_state_amplitudes[:, k]
    assert np.max(np.abs(amps - amps[0])) < 1e-10


@pytest.mark.parametrize("mu", [0.3, 0.5, 27.0 / 25.0, 2.0, 10.0])
def test_two_ion_mixed_crystal_closed_forms(mu):
    # equal charges in a common static well: the axial curvatures of a
    # two-ion crystal solve mu lam^2 - 2(1+mu) lam + 3 = 0 (units of
    # omega_z^2), and the in-phase displacement ratio is 2 - lam_minus
    cfg = ChainConfig(masses=(1.0, mu), reference_index=0)
    modes = solve_axial_modes(cfg)
    root = np.sqrt(1.0 - mu + mu * mu)
    lam_minus = ((1 + mu) - root) / mu
    lam_plus = ((1 + mu) + root) / mu
    assert modes.frequencies**2 == pytest.approx([lam_minus, lam_plus],
                                                 abs=1e-12)
    k = 0  # the in-phase mode
    displacement = modes.eigenvectors[:, k] / np.sqrt(np.array([1.0, mu]))
    assert displacement[1] / displacement[0] == pytest.approx(
        2.0 - lam_minus, abs=1e-12)


def test_mg_mg_al_inphase_amplitudes():
    # exact value of the outer/center Mg amplitude ratio for masses
    # (25, 25, 27): 0.98854..., i.e. equal at the 1.15% level
    cfg = ChainConfig(masses=(25.0, 25.0, 27.0), reference_index=0)
    modes = solve_axial_modes(cfg)
    k = 0  # the in-phase mode
    assert modes.frequencies[k] == pytest.approx(0.986640639474628, abs=1e-10)
    ratio = (modes.ground_state_amplitudes[0, k]
             / modes.ground_state_amplitudes[1, k])
    assert ratio == pytest.approx(0.988540707500518, abs=1e-9)
    assert abs(ratio - 1.0) < 0.012


def test_mg_mg_al_si_units_ion_spacing():
    # with omega_z = 2 pi 2.55 MHz for one Mg ion the Mg-Mg spacing is 3 um
    cfg = ChainConfig(masses=(25.0, 25.0, 27.0), reference_index=0,
                      omega_z=2 * np.pi * 2.55e6)
    eq = solve_equilibrium(cfg)
    spacing = (eq.positions[1] - eq.positions[0]) * length_scale(cfg)
    assert spacing == pytest.approx(3.0e-6, rel=0.01)


def test_si_mode_frequencies_scale_with_omega_z():
    omega_z = 2 * np.pi * 2.55e6
    cfg = ChainConfig(masses=(25.0, 25.0, 27.0), omega_z=omega_z,
                      k_projection=1.0e7)
    modes = solve_axial_modes(cfg)
    scaled = solve_axial_modes(ChainConfig(masses=(25.0, 25.0, 27.0)))
    assert modes.frequencies == pytest.approx(scaled.frequencies * omega_z,
                                              rel=1e-12)
    # SI zero-point amplitudes for a few-MHz trap sit at the nm scale
    assert 1e-10 < np.max(np.abs(modes.ground_state_amplitudes)) < 1e-7


def test_coupling_strengths_basic():
    cfg = ChainConfig(masses=(1.0, 1.0, 2.0))
    modes = solve_axial_modes(cfg)
    k = 0  # the in-phase mode
    om = coupling_strengths(cfg, (0, 1))
    assert om == pytest.approx(modes.lamb_dicke[(0, 1), k])
    assert not om.flags.writeable
    single = coupling_strengths(cfg, (1,))
    assert single == pytest.approx([modes.lamb_dicke[1, k]])


def test_coupling_strengths_mg_ratio_within_percent_scale():
    cfg = ChainConfig(masses=(25.0, 25.0, 27.0))
    om = coupling_strengths(cfg, (0, 1))
    assert 0.98 < om[0] / om[1] < 1.02


def test_coupling_strengths_validates_addressed(monkeypatch):
    # before the mode solve: int(0.7) used to address ion 0, and an empty
    # or out-of-range set was reported only after the equilibrium solve
    # and eigh had run
    def never(config):
        raise AssertionError("the mode solve ran")

    monkeypatch.setattr(chain_mod, "solve_equilibrium", never)
    cfg = ChainConfig(masses=(1.0, 1.0, 1.08))
    for config in (cfg, [cfg, ChainConfig(masses=(1.0, 1.0, 2.0))]):
        for addressed, why in (((), "must not be empty"),
                               ((0, 5), "out of range"),
                               ((-1, 1), "out of range"),
                               ((0.7, 1), "0.7 is not an integer"),
                               ((True, 1), "True is not an integer"),
                               ((np.float64(1.0), 2), "is not an integer")):
            with pytest.raises(ValueError, match=why):
                coupling_strengths(config, addressed)


def test_coupling_strengths_accepts_numpy_integer_indices():
    cfg = ChainConfig(masses=(1.0, 1.0, 1.08))
    stack = [cfg, ChainConfig(masses=(1.0, 1.0, 2.0))]
    for addressed in ((np.int64(0), np.int32(1)), np.array([1, 0])):
        assert (coupling_strengths(cfg, addressed).tobytes()
                == coupling_strengths(cfg, (0, 1)).tobytes())
        for row, alone in zip(coupling_strengths(stack, addressed), stack):
            assert row.tobytes() == coupling_strengths(alone, (0, 1)).tobytes()


def test_lamb_dicke_warning_in_si_mode():
    # absurdly large k-projection pushes eta past the warning threshold
    cfg = ChainConfig(masses=(25.0, 25.0), omega_z=2 * np.pi * 2.55e6,
                      k_projection=1.0e12)
    with pytest.warns(LambDickeWarning):
        coupling_strengths(cfg, (0, 1))


def test_eta_continuous_in_mass_ratio():
    # couplings vary smoothly in mu: finite differences shrink with step
    template = ChainTemplate.symmetric(4, placement="center")
    mus = np.linspace(0.5, 10.0, 41)
    etas = []
    for mu in mus:
        cfg = template.config_for(mu)
        etas.append(coupling_strengths(cfg, template.addressed()))
    etas = np.array(etas)
    jumps = np.max(np.abs(np.diff(etas, axis=0)), axis=1)
    assert np.max(jumps) < 0.05  # no mode-crossing discontinuity on this grid


def test_symmetric_two_qubit_template_outer_amplitudes_equal():
    template = ChainTemplate.symmetric(2, placement="center")
    for mu in (0.1, 0.5, 1.0, 27.0 / 25.0, 4.0, 10.0):
        cfg = template.config_for(mu)
        om = coupling_strengths(cfg, template.addressed())
        assert om[0] == pytest.approx(om[1], abs=1e-12)


def test_template_placements():
    center = ChainTemplate.symmetric(2, placement="center")
    assert center.ancilla_index == 1
    assert center.addressed() == (0, 2)
    edge = ChainTemplate.symmetric(2, placement="edge", qubit_mass=25.0)
    assert edge.ancilla_index == 2
    assert edge.config_for(27.0 / 25.0).masses == (25.0, 25.0, 27.0)
    # odd qubit count: ancilla goes to the slot just below the midpoint
    odd = ChainTemplate.symmetric(5, placement="center")
    assert odd.ancilla_index == 2
    explicit = ChainTemplate.symmetric(3, placement=0)
    assert explicit.ancilla_index == 0
    assert explicit.config.reference_index == 1


@pytest.mark.parametrize("placement", [True, False, 1.0, "middle"])
def test_template_rejects_a_placement_that_is_no_slot(placement):
    # a bool is an int subclass, and used to become ancilla_index=True
    with pytest.raises(ValueError, match="unknown placement"):
        ChainTemplate.symmetric(2, placement=placement)


def test_template_accepts_a_numpy_integer_slot():
    template = ChainTemplate.symmetric(3, placement=np.int64(0))
    assert template == ChainTemplate.symmetric(3, placement=0)
    assert type(template.ancilla_index) is int
    direct = ChainTemplate(ChainConfig(masses=(1.0, 1.0, 1.0)), np.int64(1))
    assert type(direct.ancilla_index) is int
    assert direct == ChainTemplate(ChainConfig(masses=(1.0, 1.0, 1.0)), 1)
    assert direct.addressed() == (0, 2)
    assert direct.config_for(2.0).masses == (1.0, 2.0, 1.0)


@pytest.mark.parametrize("units", [
    {},  # omega_z None: scaled units
    {"omega_z": 2 * np.pi * 2.55e6, "k_projection": 1.1e7},
], ids=["scaled", "si"])
@pytest.mark.parametrize("mu", [0.1, 27.0 / 25.0, 10.0])
def test_config_for_sets_only_the_ancilla_mass(units, mu):
    template = ChainTemplate(ChainConfig(masses=(25.0, 24.0, 26.0, 9.0),
                                         reference_index=1, **units),
                             ancilla_index=3)
    base = template.config
    masses = list(base.masses)
    masses[3] = mu * base.masses[base.reference_index]
    assert template.config_for(mu) == ChainConfig(
        masses=tuple(masses), reference_index=base.reference_index,
        omega_z=base.omega_z, k_projection=base.k_projection)


@pytest.mark.parametrize("ancilla_index,message", [
    (3, "ancilla_index out of range"),
    (-1, "ancilla_index out of range"),
    (0, "reference ion must be a qubit ion"),
    # a float slot cannot index the masses (and 1.5 leaves every ion
    # addressed), and a bool would stand for ion 0 or 1
    (1.5, "ancilla_index must be an integer"),
    (True, "ancilla_index must be an integer"),
    (np.float64(1.0), "ancilla_index must be an integer"),
])
def test_template_rejects_bad_ancilla_slot(ancilla_index, message):
    with pytest.raises(ValueError, match=message):
        ChainTemplate(ChainConfig(masses=(25.0, 25.0, 27.0)), ancilla_index)


def test_chain_file_round_trip(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text(
        "# Mg-Mg-Al chain\n"
        "masses = 25, 25, 27\n"
        "omega_z = 2.55e6   # Hz\n"
        "reference_index = 0\n"
        "k_projection = 1.1e7\n"
        "ancilla_index = 2\n")
    chain_file = read_chain_file(path)
    cfg = chain_file.config
    assert cfg.masses == (25.0, 25.0, 27.0)
    assert cfg.omega_z == pytest.approx(2 * np.pi * 2.55e6)
    assert cfg.k_projection == 1.1e7
    assert chain_file.ancilla_index == 2


@pytest.mark.parametrize("content", [
    "masses = 25, 25\n",                             # missing omega_z
    "omega_z = 2.55e6\n",                            # missing masses
    "masses = 25, x\nomega_z = 1e6\n",               # bad number
    "masses = 25, 25\nomega_z = 1e6\nbogus = 3\n",   # unknown key
    "masses = 25, 25\nomega_z = 1e6\nmasses = 9\n",  # duplicate key
    "no equals sign\n",
    "masses = 25, 25\nomega_z = 1e6\nancilla_index = 7\n",
])
def test_chain_file_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.cfg"
    path.write_text(content)
    with pytest.raises(DataError):
        read_chain_file(path)


_FUZZ_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=1e-3, max_value=1e9).map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "1e308", "0", "-2"]),
)
_FUZZ_INDICES = st.integers(-1, 4).map(str)
_FUZZ_VALUES = st.one_of(_FUZZ_NUMBERS, _FUZZ_INDICES, st.text(max_size=12))
_FUZZ_CONFIGS = st.fixed_dictionaries(
    {"masses": st.lists(_FUZZ_NUMBERS, min_size=1, max_size=4).map(", ".join),
     "omega_z": _FUZZ_NUMBERS},
    optional={"reference_index": _FUZZ_INDICES, "k_projection": _FUZZ_NUMBERS,
              "ancilla_index": _FUZZ_INDICES},
).map(lambda entries: "".join(f"{k} = {v}\n" for k, v in entries.items()))
_FUZZ_LINES = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["masses", "omega_z", "reference_index",
                               "k_projection", "ancilla_index"]),
              _FUZZ_VALUES),
    st.text(max_size=24),
)
_FUZZ_FILES = st.one_of(
    _FUZZ_CONFIGS.map(str.encode),
    st.lists(_FUZZ_LINES, max_size=7).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FUZZ_FILES)
def test_read_chain_file_fuzz_gives_data_error_or_finite_config(tmp_path, content):
    # a fresh file per example: truncating a file in place can force a flush
    path = tmp_path / f"fuzz{len(list(tmp_path.iterdir()))}.cfg"
    path.write_bytes(content)
    try:
        chain_file = read_chain_file(path)
    except DataError:
        return
    cfg = chain_file.config
    assert np.all(np.isfinite(cfg.masses))
    assert np.isfinite(cfg.omega_z) and np.isfinite(cfg.k_projection)
    assert np.isfinite(chain_file.omega_z_hz)


@pytest.mark.parametrize("ratio,match", [
    (1e-300, r"mass ratio 1e-300 of ion 2 is out of range"),
    (1e300, r"mass ratio 1e\+300 of ion 2 is out of range"),
    (1e-16, r"mass ratios spanning 1e-16 to 1 .* lost to rounding"),
    (1e100, r"mass ratios spanning 1 to 1e\+100 .* lost to rounding"),
], ids=["1e-300-1e-300", "1e+300-1e+300", "1e-16", "1e+100"])
def test_modes_name_a_mass_ratio_whose_square_leaves_double_range(ratio,
                                                                   match):
    # at 1e-300 and 1e300 the square underflows to 0 or overflows to inf;
    # RuntimeWarnings are errors in this suite, so the check must come
    # before the division.  At 1e-16 and 1e100 the squares are in range,
    # but the light or heavy ion's mode curvature drowns in rounding
    cfg = ChainConfig(masses=(1.0, 1.0, ratio))
    with pytest.raises(UnstableCrystalError, match=match):
        solve_axial_modes(cfg)


@pytest.mark.parametrize("configs", [
    [],
    [ChainConfig(masses=(1.0,) * 3), ChainConfig(masses=(1.0,) * 4)],
    [ChainConfig(masses=(1.0,) * 3),
     ChainConfig(masses=(1.0,) * 3, omega_z=2 * np.pi * 2.55e6)],
    [ChainConfig(masses=(1.0,) * 3, omega_z=2 * np.pi * 2.55e6),
     ChainConfig(masses=(1.0,) * 3, omega_z=2 * np.pi * 2.0e6)],
    [ChainConfig(masses=(1.0,) * 3),
     ChainConfig(masses=(1.0,) * 3, k_projection=2.0)],
], ids=["empty", "3-and-4-ions", "scaled-and-si", "two-omega-z",
        "two-k-projections"])
def test_mode_stack_needs_one_ion_count(configs):
    with pytest.raises(ValueError, match="one ion count"):
        coupling_strengths(configs, (0, 1))


def test_mode_stack_shares_one_equilibrium(monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return solve_equilibrium(config)

    monkeypatch.setattr(chain_mod, "solve_equilibrium", counted)
    configs = [ChainConfig(masses=(1.0, mu, 1.0, 1.0))
               for mu in (0.5, 2.0, 1e-300)]
    stack = coupling_strengths(configs, (0, 2, 3))
    assert calls == configs[:1]
    assert isinstance(stack[2], UnstableCrystalError)
    # the scaled equilibrium reads only the ion count, so every row equals
    # the chain solved on its own
    for cfg, row in zip(configs[:2], stack):
        assert row.tobytes() == coupling_strengths(cfg, (0, 2, 3)).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=3, max_value=6),
       st.sampled_from([None, 2 * np.pi * 2.55e6]),
       st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1,
                max_size=6),
       st.data())
def test_coupling_stack_rows_equal_the_chains_solved_alone(n, omega_z, mus,
                                                           data):
    # a stack reads z[:, addressed, 0] of one stacked solve; each row must
    # keep the bits of its chain's own coupling and mode solve, and rows
    # the modes cannot resolve keep their own error text
    slot = data.draw(st.integers(min_value=0, max_value=n - 1))
    template = ChainTemplate.symmetric(n - 1, placement=slot, qubit_mass=25.0,
                                       omega_z=omega_z, k_projection=1.0e7)
    addr = template.addressed()
    mus = mus + [1e-300, 1e-16]
    configs = [template.config_for(mu) for mu in mus]
    stack = coupling_strengths(configs, addr)
    assert len(stack) == len(configs)
    for cfg, row in zip(configs, stack):
        try:
            modes = solve_axial_modes(cfg)
        except UnstableCrystalError as alone:
            assert (type(row), str(row)) == (type(alone), str(alone))
            continue
        assert row.tobytes() == coupling_strengths(cfg, addr).tobytes()
        assert row.tobytes() == modes.lamb_dicke[list(addr), 0].tobytes()
    # 1e-300 squares out of range; 1e-16 loses the mode curvatures to
    # rounding on most slots, and the loop above compared whichever it was
    assert "out of range" in str(stack[-2])


def test_modes_csv_export():
    cfg = ChainConfig(masses=(1.0, 1.0, 1.0))
    modes = solve_axial_modes(cfg)
    buf = io.StringIO()
    modes_to_csv(modes, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "# modes.v1"
    header = lines[1].split(",")
    assert header == ["mode", "frequency", "in_phase",
                      "amp_0", "amp_1", "amp_2", "eta_0", "eta_1", "eta_2"]
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-10)
    assert first[2] == "1"


def test_mode_and_equilibrium_results_compare_by_identity():
    config = ChainConfig(masses=(1.0, 1.0, 1.0))
    assert_identity_semantics(lambda: solve_equilibrium(config))
    assert_identity_semantics(lambda: solve_axial_modes(config))
