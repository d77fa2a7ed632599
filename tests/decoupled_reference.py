"""An independent reference for the decoupled pass: its 15 states from
mpmath's Taylor-series ODE solver at 20 significant digits.

    PYTHONPATH=src python tests/decoupled_reference.py

rewrites ``tests/reference/decoupled_states.csv`` (``main`` takes another
path): for each model of ``MODELS`` and each tau of ``TAUS``, the states of
:func:`optomech.coefficients.decoupled_pass` in its order, (P11, P11',
I_P22, P22), I_G, I_D, the six F in FSet order and (j_b, j_+, j_-), each to
17 significant digits. The equations are the defining ones, written out here
on mpmath numbers; nothing of the library runs but the drives' parameters.
It takes about 10 s per model and tau range of 2 pi, so tier-1 reads the
table (``tests/test_reference.py``); a test marked slow regenerates it
and compares the bytes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from optomech.params import Drive, ModelSpec

DPS = 20
DIGITS = 17
TAUS = (math.pi, 2 * math.pi, 4 * math.pi)
TABLE = Path(__file__).resolve().parent / "reference" / "decoupled_states.csv"
STATES = ("p11", "dp11", "i_p22", "p22", "i_g", "i_d",
          "f_na", "f_na2", "f_bp", "f_bm", "f_nabp", "f_nabm",
          "j_b", "j_plus", "j_minus")

# catalog misses, and catalog hits next to the points where the closed
# forms divide by (1 - w^2), w or zeta
MODELS = {
    # modulated coupling, displacement and squeezing (tests/test_dop853.py)
    "miss": ModelSpec(coupling=Drive.offset_sinusoid(0.3, 0.4, 0.7),
                      displacement=Drive.cosine(0.2, 0.6),
                      squeezing=Drive.cosine(0.05, 2.0)),
    "miss-d2-zero": ModelSpec(coupling=Drive.offset_sinusoid(0.3, 0.4, 0.7),
                              displacement=Drive.cosine(0.2, 0.6)),
    "coupling-near-resonance": ModelSpec(
        coupling=Drive.offset_sinusoid(0.5, 0.4, 1.0 + 1e-7)),
    "displacement-near-resonance": ModelSpec(
        coupling=Drive.constant(0.5),
        displacement=Drive.cosine(0.3, 1.0 + 1e-10)),
    "coupling-near-zero-frequency": ModelSpec(
        coupling=Drive.offset_sinusoid(0.5, 0.4, 1e-10)),
    "squeezing-near-zeta-zero": ModelSpec(
        coupling=Drive.constant(0.5), displacement=Drive.constant(0.3),
        squeezing=Drive.constant(-0.25 + 1e-6)),
}


def reference_states(spec: ModelSpec, taus):
    """The 15 states at each of ``taus``, as mpmath numbers at DPS digits."""
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = DPS

    def drive(d: Drive):
        a, e, w = mp.mpf(d.amplitude), mp.mpf(d.offset), mp.mpf(d.frequency)
        if d.phase == "sin":
            return lambda tau: a * (1 + e * mp.sin(w * tau))
        return lambda tau: a * mp.cos(w * tau)

    g, d1, d2 = (drive(d) for d in (spec.coupling, spec.displacement,
                                    spec.squeezing))

    def rhs(tau, y):
        # xi = P11 - i I22 with P11'' = -(1 + 4 D2) P11, the same for I22,
        # P22 = I22'; I_G and I_D are the inner integrals of G Re(xi) and
        # D1 Re(xi); then the F integrands and the J equations
        p11, dp11, i22, p22, i_g, i_d = y[:6]
        jb, jp = y[12], y[13]
        gv, dv, sv = g(tau), d1(tau), d2(tau)
        re_xi, im_xi = p11, -i22
        return [dp11, -(1 + 4 * sv) * p11, p22, -(1 + 4 * sv) * i22,
                gv * re_xi, dv * re_xi,
                -2 * dv * im_xi * i_g - 2 * gv * im_xi * i_d,
                2 * gv * im_xi * i_g,
                dv * re_xi, -dv * im_xi, -gv * re_xi, gv * im_xi,
                1 + 2 * sv * (1 - mp.sin(2 * jb) * mp.tanh(4 * jp)),
                sv * mp.cos(2 * jb),
                sv * mp.sin(2 * jb) / mp.cosh(4 * jp)]

    solution = mp.odefun(rhs, 0, [1, 0, 0, 1] + [0] * 11)
    return [solution(mp.mpf(tau)) for tau in taus]


def main(table=TABLE):
    import mpmath
    table.parent.mkdir(exist_ok=True)
    with open(table, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["model", "tau", *STATES])
        for name, spec in MODELS.items():
            for tau, states in zip(TAUS, reference_states(spec, TAUS)):
                out.writerow([name, repr(tau),
                              *(mpmath.nstr(v, DIGITS, min_fixed=1,
                                            max_fixed=0) for v in states)])
            print(name, flush=True)


def read_table():
    """{(model, tau): 15 floats} of the checked-in table."""
    with open(TABLE, newline="", encoding="utf-8") as fh:
        return {(row["model"], float(row["tau"])):
                [float(row[s]) for s in STATES] for row in csv.DictReader(fh)}


if __name__ == "__main__":
    main()
