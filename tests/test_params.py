import math

import numpy as np
import pytest

from optomech.constants import HBAR, K_B
from optomech.params import (ColdAtoms, Drive, FabryPerot, Levitated,
                             coupling_constant, evaluate_drive,
                             thermal_parameter)


def test_offset_sinusoid_at_zero():
    drive = Drive.offset_sinusoid(1.0, 0.5, 1.0)
    assert evaluate_drive(drive, 0.0) == 1.0


def test_cosine_at_pi():
    drive = Drive.cosine(1.0, 1.0)
    assert evaluate_drive(drive, math.pi) == pytest.approx(-1.0, abs=1e-15)


def test_constant_anywhere():
    drive = Drive.constant(0.1)
    assert evaluate_drive(drive, 17.3) == 0.1


def test_constant_equals_zero_frequency_sinusoid(rng):
    taus = rng.uniform(-20, 20, size=50)
    c = 0.8345
    const = Drive.constant(c)
    for phase in ("sin", "cos"):
        zero_freq = Drive(amplitude=c, offset=0.4 if phase == "sin" else 0.0,
                          frequency=0.0, phase=phase)
        assert np.allclose(evaluate_drive(const, taus),
                           evaluate_drive(zero_freq, taus), atol=0)


@pytest.mark.parametrize("drive", [Drive.constant(0.3),
                                   Drive.offset_sinusoid(0.3, 0.4, 0.7),
                                   Drive.cosine(0.05, 2.0)],
                         ids=["constant", "offset-sinusoid", "cosine"])
def test_scalar_and_array_paths_agree_bit_for_bit(drive):
    # the integrators pass float and np.float64 times; each must give the
    # bits of the numpy path and come back as a Python float
    for t in np.linspace(0.0, 8.0 * math.pi, 10 ** 4):
        want = evaluate_drive(drive, np.array([t]))[0]
        for tau in (float(t), t):
            got = evaluate_drive(drive, tau)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), (drive, tau)
    for tau in (0, 3, 25):
        got = evaluate_drive(drive, tau)
        assert type(got) is float
        assert np.float64(got).tobytes() == evaluate_drive(
            drive, np.array([tau]))[0].tobytes()


def test_drive_validation():
    with pytest.raises(ValueError):
        Drive(amplitude=1.0, frequency=-1.0)
    with pytest.raises(ValueError):
        Drive(amplitude=1.0, offset=0.3, frequency=1.0, phase="cos")
    with pytest.raises(ValueError):
        Drive(amplitude=math.inf)


FP = FabryPerot(length=1e-5, mass=1e-6, omega_c=1e14, omega_m=1e3)
LEV = Levitated(volume=1e-18, cavity_volume=1e-14, relative_permittivity=5.7,
                wavelength=1064e-9, mass=1e-14, omega_c=1e14, omega_m=1e2)
ATOMS = ColdAtoms(n_atoms=10 ** 5, single_atom_coupling=1e7,
                  laser_wavevector=1e8, atom_mass=1e-25, detuning=1e11,
                  omega_m=1e2)


def test_fabry_perot_coupling():
    assert coupling_constant(FP) == pytest.approx(2.30, rel=0.01)


def test_levitated_coupling():
    assert coupling_constant(LEV) == pytest.approx(1963, rel=0.01)


def test_cold_atoms_coupling():
    # The published reference value is 2.30e6; the defining formula with the
    # collective mass M = N m and these inputs yields 2.30e3 (same mantissa,
    # exponent misprint in the source). The formula is authoritative.
    assert coupling_constant(ATOMS) == pytest.approx(2.2963e3, rel=0.002)


def test_coupling_decreasing_in_length_and_mode_volume():
    shorter = FabryPerot(length=0.5e-5, mass=1e-6, omega_c=1e14, omega_m=1e3)
    assert coupling_constant(shorter) > coupling_constant(FP)
    bigger_vc = Levitated(volume=1e-18, cavity_volume=2e-14,
                          relative_permittivity=5.7, wavelength=1064e-9,
                          mass=1e-14, omega_c=1e14, omega_m=1e2)
    assert coupling_constant(bigger_vc) < coupling_constant(LEV)


def test_coupling_mass_homogeneity():
    heavier = FabryPerot(length=1e-5, mass=4e-6, omega_c=1e14, omega_m=1e3)
    assert coupling_constant(heavier) == pytest.approx(
        coupling_constant(FP) / 2.0, rel=1e-12)


def test_setup_validation():
    with pytest.raises(ValueError):
        FabryPerot(length=-1.0, mass=1e-6, omega_c=1e14, omega_m=1e3)
    with pytest.raises(ValueError):
        FabryPerot(length=1e-5, mass=1e-6, omega_c=1e14, omega_m=1e3,
                   tilt_angle=2.0)


def test_thermal_parameter_zero_temperature():
    assert thermal_parameter(0.0, 1e2) == 0.0


def test_thermal_parameter_table_value():
    # 200 nK at omega_m = 100 Hz; reproduced by the factor-2 convention
    # tanh r_T = exp(-hbar omega_m / (2 k_B T))
    assert thermal_parameter(200e-9, 1e2) == pytest.approx(3.48, abs=0.01)


def test_thermal_parameter_against_high_precision():
    import mpmath

    mpmath.mp.dps = 50
    t, w = 1e-3, 1e3
    expected = mpmath.atanh(mpmath.exp(-mpmath.mpf(HBAR) * w
                                       / (2 * mpmath.mpf(K_B) * t)))
    assert thermal_parameter(t, w) == pytest.approx(float(expected), rel=1e-12)


def test_thermal_parameter_monotone():
    temps = np.logspace(-9, 0, 30)
    values = [thermal_parameter(t, 1e3) for t in temps]
    assert all(b > a for a, b in zip(values, values[1:]))
