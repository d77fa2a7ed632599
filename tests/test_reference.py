"""The decoupled pass, plain and stepped, against an independent reference:
the table that ``tests/decoupled_reference.py`` writes from mpmath's
Taylor-series solver at 20 digits, a method that shares nothing with the
pass's Runge-Kutta steps but the equations. The slow test re-derives that
table (``pytest -m slow``)."""

from types import SimpleNamespace

import pytest

from conftest import UNIT_ROUNDOFF
from decoupled_reference import MODELS, TABLE, TAUS, main, read_table
from optomech.coefficients import STEP, decoupled_pass
from optomech.mechanics import STRICT

REFERENCE = read_table()
BLOCKS = (slice(0, 4), slice(4, 6), slice(6, 12), slice(12, 15))


def _coupling_stepped(spec):
    """The pass's drives with a complex step on the coupling amplitude."""
    g = spec.coupling
    stepped = SimpleNamespace(**{**vars(g),
                                 "amplitude": complex(g.amplitude, STEP)})
    return stepped, spec.displacement, spec.squeezing


@pytest.mark.parametrize("stepped", [False, True], ids=["plain", "stepped"])
@pytest.mark.parametrize("name", MODELS)
def test_pass_matches_the_taylor_reference(name, stepped):
    # One pass over [0, 4 pi] takes n steps. Each step's local error is
    # within STRICT's rtol of each block's magnitude (the pass scales its
    # tolerances so that every block meets them on its own), and rounds
    # once: F, J and the inner integrals integrate bounded integrands, and
    # the subsystem is a linear oscillator, so nothing amplifies those
    # errors and the pass ends within n (rtol + u) of each block's size.
    # The table's own error, about 1e-17 relative, is far below that.
    spec = MODELS[name]
    drives = _coupling_stepped(spec) if stepped else None
    states = decoupled_pass(spec, TAUS[-1], STRICT, drives)
    n = states.steps
    for tau in TAUS:
        ref, ours = REFERENCE[name, tau], states(tau)[:15]
        for block in BLOCKS:
            magnitude = max(1.0, *(abs(v) for v in ref[block]))
            bound = n * (STRICT[0] + UNIT_ROUNDOFF) * magnitude
            worst = max(abs(a - b) for a, b in zip(ours[block], ref[block]))
            assert worst <= bound, (tau, block, worst, bound)


@pytest.mark.slow
def test_taylor_reference_rederives_to_the_checked_in_bytes(tmp_path):
    # the table tier-1 reads is what the reference script writes today
    table = tmp_path / TABLE.name
    main(table)
    assert table.read_bytes() == TABLE.read_bytes()
