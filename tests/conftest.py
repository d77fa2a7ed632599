import numpy as np
import pytest

from optomech.coefficients import catalog_entry, decoupled_pass
from optomech.mechanics import STRICT
from optomech.metrology import _fd_step, _param_value, _with_param
from optomech.params import Drive, ModelSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_drive(rng, kind: str) -> Drive:
    """A random drive of the given structural kind."""
    if kind == "zero":
        return Drive.constant(0.0)
    if kind == "constant":
        return Drive.constant(float(rng.uniform(-1.0, 1.5)))
    if kind == "offset":
        return Drive.offset_sinusoid(float(rng.uniform(0.1, 1.5)),
                                     float(rng.uniform(-1.0, 1.0)),
                                     float(rng.uniform(0.1, 2.5)))
    if kind == "cosine":
        return Drive.cosine(float(rng.uniform(-1.0, 1.5)),
                            float(rng.uniform(0.1, 2.5)))
    raise ValueError(kind)


def random_spec(rng, squeezing: bool = True) -> ModelSpec:
    coupling = random_drive(rng, rng.choice(["zero", "constant", "offset"]))
    displacement = random_drive(rng, rng.choice(["zero", "constant", "cosine"]))
    if squeezing:
        kind = rng.choice(["zero", "constant", "cosine"])
        if kind == "constant":
            sq = Drive.constant(float(rng.uniform(-0.2, 0.6)))
        elif kind == "cosine":
            sq = Drive.cosine(float(rng.uniform(-0.15, 0.15)),
                              float(rng.uniform(0.5, 2.5)))
        else:
            sq = Drive.constant(0.0)
    else:
        sq = Drive.constant(0.0)
    return ModelSpec(coupling=coupling, displacement=displacement, squeezing=sq)


# The unit roundoff, and the roundings a closed-form F value takes: the
# longest catalog form, _f_modulated_g's F_Na2, runs about 60 operations.
UNIT_ROUNDOFF = 2.0 ** -53
CLOSED_FORM_ROUNDINGS = 64


def finite_diff_qfi_budget(spec: ModelSpec, param: str, tau: float) -> float:
    """Relative error budget of ``qfi_coefficients(..., mode='finite_diff')``
    fed to a QFI, which is quadratic in the derivatives and so doubles their
    relative error. Each derivative is Richardson's (4 D(h/2) - D(h)) / 3 of
    central differences D with h = _fd_step(theta):
    - integration: every stencil point is integrated to STRICT's rtol, and a
      stencil this narrow keeps one step sequence, so the difference quotient
      carries the integration error's own relative size, rtol;
    - rounding: the weights turn an error e of the values into 3 e / h, and a
      value is rounded once per operation of its closed form, or once per
      step of the pass that integrates it (F off the catalog, J under
      squeezing), n times, so e = n u.
    """
    theta = _param_value(spec, param)
    h = _fd_step(theta)
    stencil = _with_param(spec, param, theta + h)
    n = CLOSED_FORM_ROUNDINGS
    if catalog_entry(stencil) is None or not stencil.squeezing.is_zero:
        n = max(n, len(decoupled_pass(stencil, tau)._h))
    return 2.0 * (STRICT[0] + 3.0 * n * UNIT_ROUNDOFF / h)
