from dataclasses import replace

import numpy as np
import pytest

from optomech.coefficients import FSet, decoupled_pass
from optomech.mechanics import STRICT, JSet
from optomech.metrology import QFI_FIELDS, _param_value, _with_param, qfi_route
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
    relative error. Each derivative is a complex step Im v(theta + ih) / h,
    which subtracts nothing, so h does not enter. On a catalog route v is a
    closed form, rounded once per operation. On the 'integrated' route the
    values and the derivatives are read from one stepped pass of n steps,
    whose error norm spans both:
    - integration: each step's local error is within STRICT's rtol of the
      values and of the derivatives, and F, J and their derivatives are
      integrals of bounded integrands, so nothing amplifies those errors and
      the pass ends within n rtol;
    - rounding: a derivative is rounded as its value is, once per step: n u.
    Here n counts the steps of the model's unstepped pass. The stepped pass,
    whose error norm also holds the derivatives, mostly takes as many or
    more: between 0.93 n and 2.3 n on the random models tried, fewer in 15
    of 392 cases. So the budget is mostly stricter than the derivation
    needs, and at most about 7 % looser.
    """
    if qfi_route(spec, param, "finite_diff") != "integrated":
        return 2.0 * CLOSED_FORM_ROUNDINGS * UNIT_ROUNDOFF
    n = decoupled_pass(spec, tau).steps
    return 2.0 * n * (STRICT[0] + UNIT_ROUNDOFF)


def _at(spec: ModelSpec, param: str, value: float) -> ModelSpec:
    """``spec`` with ``param`` at ``value``. A frequency below 0 is taken as
    its mirror image, which the drives allow: sin(-w tau) = -sin(w tau)
    flips the offset of a 'sin' drive, and cos is even."""
    drive, field = QFI_FIELDS[param]
    if field == "frequency" and value < 0:
        mirror = replace(getattr(spec, drive), offset=-getattr(spec, drive).offset)
        spec, value = replace(spec, **{drive: mirror}), -value
    return _with_param(spec, param, value)


def richardson_derivatives(spec: ModelSpec, param: str, tau: float):
    """(dF, dJ, bound): Richardson's (4 D(h/2) - D(h)) / 3 of central
    differences D of F and J, h = 1e-6 max(1, |theta|), read from the
    decoupled pass of each stencil model (a Trajectory's f and j on a
    catalog miss), so no closed form near its singular points enters; and
    the bound on its distance from the complex-step derivatives, over all
    nine. The pass at theta takes n steps. With S = max(1, |dv|) and
    V = max(1, |v|) over the nine derivatives and values:
    - integration: each derivative, the complex step's and the difference's,
      carries n rtol of S (see finite_diff_qfi_budget): 2 n rtol S;
    - rounding: the values are rounded once per step, n u V, and the weights
      turn that into 3 n u V / h; the complex step's own rounding is n u S;
    - Richardson's remainder, h^4 v^(5) / 480, lies below u S at this h.
    """
    theta = _param_value(spec, param)
    h = 1e-6 * max(1.0, abs(theta))
    values = {s: np.array(decoupled_pass(_at(spec, param, theta + s),
                                         tau)(tau)[6:])
              for s in (-h, -h / 2, 0.0, h / 2, h)}
    d = (4.0 * (values[h / 2] - values[-h / 2]) / h
         - (values[h] - values[-h]) / (2.0 * h)) / 3.0
    n = decoupled_pass(spec, tau).steps
    scale = max(1.0, float(np.max(np.abs(d))))
    size = max(1.0, float(np.max(np.abs(values[0.0]))))
    bound = (2.0 * n * STRICT[0] * scale + 3.0 * n * UNIT_ROUNDOFF * size / h
             + (n + 1) * UNIT_ROUNDOFF * scale)
    return FSet(*d[:6]), JSet(*d[6:]), bound
