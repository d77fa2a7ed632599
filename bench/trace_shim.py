"""Run one optomech CLI command with per-layer tracing, from outside the library.

    python bench/trace_shim.py TRACE_JSON -- <optomech CLI arguments>

Wraps each layer's public functions and the numerical boundaries below
them (solve_ivp per module, the oracle's eigensolvers, leggauss), runs
``optomech.cli.main`` in this fresh interpreter and writes per-span calls,
busy time (outermost calls only) and self time (busy minus child spans),
plus exact counters, to TRACE_JSON. Nothing goes to stdout. The exit code
is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name) of each layer's public functions. The
# wrapper replaces every optomech.* module attribute bound to the original,
# because cli, metrology and nongaussianity import these functions by name.
LAYER_FUNCTIONS = (
    ("optomech.cli", "write_records", "cli.write_records"),
    ("optomech.mechanics", "solve_subsystem", "solve_subsystem"),
    ("optomech.mechanics", "j_coefficients_ode", "j_coefficients_ode"),
    ("optomech.coefficients", "f_closed_form", "f_closed_form"),
    ("optomech.coefficients", "f_path", "f_path"),
    ("optomech.coefficients", "f_integrated", "f_integrated"),
    ("optomech.moments", "evolve_moments", "evolve_moments"),
    ("optomech.moments", "covariance", "covariance"),
    ("optomech.moments", "symplectic_eigenvalues", "symplectic_eigenvalues"),
    ("optomech.nongaussianity", "report", "report"),
    ("optomech.metrology", "qfi_coefficients", "qfi_coefficients"),
    ("optomech.metrology", "cfi_homodyne", "cfi_homodyne"),
    ("optomech.oracle", "propagate", "propagate"),
)

# numerical boundaries: rebound in the named module only, so each module's
# solve_ivp calls get their own span
ODE_BOUNDARIES = (
    ("optomech.mechanics", "mechanics.ode"),
    ("optomech.coefficients", "coefficients.ode"),
    ("optomech.oracle", "oracle.ode"),
)

# every span and exact counter a traced command can record
SPANS = tuple(span for *_, span in LAYER_FUNCTIONS + ODE_BOUNDARIES) + (
    "oracle.eig", "metrology.gauss_nodes", "metrology.hermite_functions")
COUNTS = ("f_closed_form.misses", "cfi_homodyne.bytes_computed",
          "cfi_homodyne.u_peak_bytes") + tuple(
    f"{span}.{kind}" for *_, span in ODE_BOUNDARIES for kind in ("nfev", "steps"))


class Tracer:
    def __init__(self):
        self.spans = {}      # name -> [calls, busy_s, self_s]
        self.counts = {}     # name -> exact count
        self._children = []  # child time of each open span
        self._depth = {}     # name -> open calls, so busy_s skips recursion

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None, counted_error=None):
        """``fn`` inside a span; ``after(result, args)`` adds counters and
        ``counted_error`` is an exception type counted as ``<name>.misses``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counted_error is not None and isinstance(exc, counted_error):
                    self.count(f"{name}.misses")
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self._depth[name] = depth
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                if depth == 0:
                    span[1] += elapsed
                span[2] += elapsed - children
            if after is not None:
                after(result, args)
            return result
        return traced


def _rebind_everywhere(original, wrapper):
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "optomech" or mod_name.startswith("optomech."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer):
    import numpy.polynomial.legendre as legendre
    import optomech.cli  # noqa: F401  (imports every layer)
    from optomech import coefficients, metrology, oracle

    for mod_name, attr, span in LAYER_FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        counted = coefficients.CatalogMiss if attr == "f_closed_form" else None
        _rebind_everywhere(original, tracer.wrap(span, original,
                                                 counted_error=counted))

    for mod_name, span in ODE_BOUNDARIES:
        module = sys.modules[mod_name]

        def ode_counts(result, _args, span=span):
            tracer.count(f"{span}.nfev", int(result.nfev))
            tracer.count(f"{span}.steps", len(result.t) - 1)
        module.solve_ivp = tracer.wrap(span, module.solve_ivp, after=ode_counts)

    oracle.eig_banded = tracer.wrap("oracle.eig", oracle.eig_banded)
    oracle.eigh_tridiagonal = tracer.wrap("oracle.eig", oracle.eigh_tridiagonal)
    legendre.leggauss = tracer.wrap("metrology.gauss_nodes", legendre.leggauss)

    def u_bytes(psi, _args):
        # u = psi * phase is complex128, one row per Fock level, one column
        # per quadrature node
        size = psi.size * 16
        tracer.count("cfi_homodyne.bytes_computed", size)
        tracer.counts["cfi_homodyne.u_peak_bytes"] = max(
            size, tracer.counts.get("cfi_homodyne.u_peak_bytes", 0))
    metrology._hermite_functions = tracer.wrap(
        "metrology.hermite_functions", metrology._hermite_functions, after=u_bytes)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from optomech import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
