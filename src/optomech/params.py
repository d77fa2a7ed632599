"""Model descriptions: drive functions, initial states and physical platforms.

Everything downstream of this module is dimensionless (hbar = omega_m = 1,
time tau = omega_m * t). Physical platforms and lab units appear only here,
through the coupling-constant and thermal-parameter helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import EPSILON_0, HBAR, K_B


@dataclass(frozen=True)
class Drive:
    """A drive function of dimensionless time.

    Two phase conventions are supported:

    * ``phase='sin'``: amplitude * (1 + offset * sin(frequency * tau)),
      the offset-modulated form used for the optomechanical coupling.
    * ``phase='cos'``: amplitude * cos(frequency * tau), the plain cosine
      used for the displacement and squeezing terms.

    A drive with ``frequency == 0`` is constant and equal to ``amplitude``
    under either convention.
    """

    amplitude: float
    offset: float = 0.0
    frequency: float = 0.0
    phase: str = "sin"

    def __post_init__(self):
        if self.phase not in ("sin", "cos"):
            raise ValueError(f"phase must be 'sin' or 'cos', got {self.phase!r}")
        if self.frequency < 0:
            raise ValueError("drive frequency must be >= 0")
        if not math.isfinite(self.amplitude) or not math.isfinite(self.offset):
            raise ValueError("drive amplitude and offset must be finite")
        if self.phase == "cos" and self.offset != 0.0:
            raise ValueError("cosine drives do not take an offset")

    @classmethod
    def constant(cls, amplitude: float) -> "Drive":
        return cls(amplitude=amplitude, offset=0.0, frequency=0.0, phase="sin")

    @classmethod
    def offset_sinusoid(cls, amplitude: float, offset: float, frequency: float) -> "Drive":
        """amplitude * (1 + offset * sin(frequency * tau))."""
        return cls(amplitude=amplitude, offset=offset, frequency=frequency, phase="sin")

    @classmethod
    def cosine(cls, amplitude: float, frequency: float) -> "Drive":
        """amplitude * cos(frequency * tau)."""
        return cls(amplitude=amplitude, offset=0.0, frequency=frequency, phase="cos")

    @property
    def is_constant(self) -> bool:
        """Structurally constant: dispatch on the declared variant, never on samples."""
        return self.frequency == 0.0 or self.amplitude == 0.0

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0

    def __call__(self, tau):
        return evaluate_drive(self, tau)


def evaluate_drive(drive: Drive, tau):
    """Evaluate a drive at dimensionless time tau (scalar or array).

    A float tau (``np.float64`` included) or an int takes ``math.sin`` and
    ``math.cos``, with the bits of the numpy path, and returns a float: the
    integrators call this per drive per stage, where building a 0-d array
    costs more than the arithmetic.
    """
    if isinstance(tau, (float, int)):
        if drive.phase == "sin":
            return drive.amplitude * (1.0 + drive.offset
                                      * math.sin(drive.frequency * tau))
        return drive.amplitude * math.cos(drive.frequency * tau)
    import numpy as np

    tau = np.asarray(tau, dtype=float)
    if drive.phase == "sin":
        out = drive.amplitude * (1.0 + drive.offset * np.sin(drive.frequency * tau))
    else:
        out = drive.amplitude * np.cos(drive.frequency * tau)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelSpec:
    """Dimensionless Hamiltonian description.

    H/(hbar omega_m) = Omega_c Na + Nb - G(tau) Na (b^dag + b)
                       + D1(tau) (b^dag + b) + D2(tau) (b^dag + b)^2
    """

    omega_c_ratio: float = 0.0
    coupling: Drive = field(default_factory=lambda: Drive.constant(0.0))
    displacement: Drive = field(default_factory=lambda: Drive.constant(0.0))
    squeezing: Drive = field(default_factory=lambda: Drive.constant(0.0))

    @classmethod
    def standard(cls, g0: float, omega_c_ratio: float = 0.0) -> "ModelSpec":
        """Constant-coupling Hamiltonian without displacement or squeezing."""
        return cls(omega_c_ratio=omega_c_ratio, coupling=Drive.constant(g0))

    @classmethod
    def gravimetry(cls, g0: float, d1: float, omega_c_ratio: float = 0.0) -> "ModelSpec":
        """Constant coupling plus constant displacement (constant acceleration)."""
        return cls(
            omega_c_ratio=omega_c_ratio,
            coupling=Drive.constant(g0),
            displacement=Drive.constant(d1),
        )


@dataclass(frozen=True)
class InitialState:
    """Input state of the two modes.

    Optical: a coherent state |mu_c> or the superposition (|0> + |n>)/sqrt(2).
    Mechanical: a coherent state |mu_m> or a thermal state with parameter r_T,
    tanh(r_T) = exp(-hbar omega_m / (2 k_B T)).
    """

    optical: str = "coherent"
    mu_c: complex = 0j
    fock_n: int = 1
    mechanical: str = "coherent"
    mu_m: complex = 0j
    r_T: float = 0.0

    def __post_init__(self):
        if self.optical not in ("coherent", "fock"):
            raise ValueError(f"unknown optical state {self.optical!r}")
        if self.mechanical not in ("coherent", "thermal"):
            raise ValueError(f"unknown mechanical state {self.mechanical!r}")
        if self.optical == "fock" and self.fock_n < 1:
            raise ValueError("Fock superposition requires n >= 1")
        if self.r_T < 0:
            raise ValueError("thermal parameter r_T must be >= 0")

    @classmethod
    def coherent(cls, mu_c: complex, mu_m: complex = 0j) -> "InitialState":
        return cls(optical="coherent", mu_c=complex(mu_c), mu_m=complex(mu_m))

    @classmethod
    def thermal(cls, mu_c: complex, r_T: float) -> "InitialState":
        return cls(optical="coherent", mu_c=complex(mu_c), mechanical="thermal", r_T=r_T)

    @classmethod
    def fock(cls, n: int, mu_m: complex = 0j) -> "InitialState":
        return cls(optical="fock", fock_n=n, mu_m=complex(mu_m))


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class FabryPerot:
    """Moving-end-mirror cavity: g0 = (omega_c / L) sqrt(hbar / (2 m omega_m))."""

    length: float  # cavity length [m]
    mass: float  # mirror mass [kg]
    omega_c: float  # cavity frequency [Hz]
    omega_m: float  # mechanical frequency [Hz]
    tilt_angle: float = 0.0

    def __post_init__(self):
        _check_positive(length=self.length, mass=self.mass,
                        omega_c=self.omega_c, omega_m=self.omega_m)
        _check_tilt(self.tilt_angle)


@dataclass(frozen=True)
class Levitated:
    """Levitated dielectric object inside a cavity.

    g0 = P / (4 V_c eps0) * sqrt(hbar / (2 m omega_m)) * k_c * omega_c,
    with polarisability P = 3 V eps0 (eps_r - 1)/(eps_r + 2) and laser
    wavevector k_c = 2 pi / wavelength.
    """

    volume: float  # object volume [m^3]
    cavity_volume: float  # cavity mode volume [m^3]
    relative_permittivity: float
    wavelength: float  # trapping laser wavelength [m]
    mass: float  # object mass [kg]
    omega_c: float  # cavity frequency [Hz]
    omega_m: float  # mechanical frequency [Hz]
    tilt_angle: float = 0.0

    def __post_init__(self):
        _check_positive(volume=self.volume, cavity_volume=self.cavity_volume,
                        relative_permittivity=self.relative_permittivity,
                        wavelength=self.wavelength, mass=self.mass,
                        omega_c=self.omega_c, omega_m=self.omega_m)
        _check_tilt(self.tilt_angle)

    @property
    def polarisability(self) -> float:
        eps = self.relative_permittivity
        return 3.0 * self.volume * EPSILON_0 * (eps - 1.0) / (eps + 2.0)


@dataclass(frozen=True)
class ColdAtoms:
    """Trapped atomic ensemble whose collective motion is the oscillator.

    g0 = sqrt(N) g_a^2 k_l / Delta_ca * sqrt(hbar / (2 M omega_m)) with the
    collective mass M = N * atom_mass.
    """

    n_atoms: int
    single_atom_coupling: float  # g_a [Hz]
    laser_wavevector: float  # k_l [1/m]
    atom_mass: float  # [kg]
    detuning: float  # Delta_ca [Hz]
    omega_m: float  # [Hz]
    tilt_angle: float = 0.0

    def __post_init__(self):
        _check_positive(n_atoms=self.n_atoms,
                        single_atom_coupling=self.single_atom_coupling,
                        laser_wavevector=self.laser_wavevector,
                        atom_mass=self.atom_mass, detuning=self.detuning,
                        omega_m=self.omega_m)
        _check_tilt(self.tilt_angle)

    @property
    def collective_mass(self) -> float:
        return self.n_atoms * self.atom_mass


PhysicalSetup = FabryPerot | Levitated | ColdAtoms


def _check_tilt(theta: float):
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("tilt angle must lie in [0, pi/2]")


def coupling_constant_hz(setup: PhysicalSetup) -> float:
    """Single-photon optomechanical coupling g0 in Hz."""
    zpf = lambda m, w: math.sqrt(HBAR / (2.0 * m * w))
    if isinstance(setup, FabryPerot):
        return setup.omega_c / setup.length * zpf(setup.mass, setup.omega_m)
    if isinstance(setup, Levitated):
        k_c = 2.0 * math.pi / setup.wavelength
        return (setup.polarisability / (4.0 * setup.cavity_volume * EPSILON_0)
                * zpf(setup.mass, setup.omega_m) * k_c * setup.omega_c)
    if isinstance(setup, ColdAtoms):
        prefactor = (math.sqrt(setup.n_atoms) * setup.single_atom_coupling ** 2
                     * setup.laser_wavevector / setup.detuning)
        return prefactor * zpf(setup.collective_mass, setup.omega_m)
    raise TypeError(f"unknown setup type {type(setup).__name__}")


def coupling_constant(setup: PhysicalSetup) -> float:
    """Dimensionless coupling g0/omega_m for a physical platform."""
    return coupling_constant_hz(setup) / setup.omega_m


def oscillator_mass(setup: PhysicalSetup) -> float:
    """Mass entering the gravitational displacement term [kg]."""
    if isinstance(setup, ColdAtoms):
        return setup.collective_mass
    return setup.mass


def thermal_parameter(temperature: float, omega_m: float) -> float:
    """Thermal-state parameter r_T with tanh(r_T) = exp(-hbar omega_m/(2 k_B T)).

    Monotone increasing in T, with r_T = 0 at T = 0.
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if omega_m <= 0:
        raise ValueError("omega_m must be > 0")
    if temperature == 0.0:
        return 0.0
    x = math.exp(-HBAR * omega_m / (2.0 * K_B * temperature))
    return math.atanh(x)
