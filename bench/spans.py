"""In-memory span recorder wrapped around the package's functions.

Each traced function records (name, parent span, start, end).  Methods are
wrapped on their class.  Module functions are rebound in every
`annulus_rotor` module that holds them, because `from .linop import
assemble` binds a private copy.  `numpy.linalg.svd` and `numpy.fft.rfft` /
`irfft` are looked up at call time, so they are wrapped in place.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time

# (metric prefix, module, attribute path)
TARGETS = [
    ("profile.edge", "annulus_rotor.profile", "TrapezoidProfile.edge"),
    ("profile.edge_prime", "annulus_rotor.profile",
     "TrapezoidProfile.edge_prime"),
    ("profile.value", "annulus_rotor.profile", "TrapezoidProfile.value"),
    ("mollifier.cdf", "annulus_rotor.mollifier", "Mollifier.cdf"),
    ("mollifier.cdf2", "annulus_rotor.mollifier", "Mollifier.cdf2"),
    ("domain.BaseStream.moment", "annulus_rotor.domain", "BaseStream.moment"),
    ("domain.BaseStream.phi", "annulus_rotor.domain", "BaseStream.phi"),
    ("quadrature.lobatto_rule", "annulus_rotor.quadrature", "lobatto_rule"),
    ("quadrature.mapped_rule", "annulus_rotor.quadrature", "mapped_rule"),
    ("linop.assemble", "annulus_rotor.linop", "assemble"),
    ("linop.assemble_adjoint", "annulus_rotor.linop", "assemble_adjoint"),
    ("linop.CoefficientSet.swirl2", "annulus_rotor.linop",
     "CoefficientSet.swirl2"),
    ("linop.CoefficientSet.alpha2", "annulus_rotor.linop",
     "CoefficientSet.alpha2"),
    ("linop.BandOperator.weighted_matrix", "annulus_rotor.linop",
     "BandOperator.weighted_matrix"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("kernel.solve_lambda1", "annulus_rotor.kernel", "solve_lambda1"),
    ("kernel.fixed_point_corrections", "annulus_rotor.kernel",
     "fixed_point_corrections"),
    ("kernel.KernelBuilder.init", "annulus_rotor.kernel",
     "KernelBuilder.__init__"),
    ("kernel.build_eigensolution", "annulus_rotor.kernel",
     "build_eigensolution"),
    ("kernel.validate_kernel", "annulus_rotor.kernel", "validate_kernel"),
    ("kernel.adjoint_kernel", "annulus_rotor.kernel", "adjoint_kernel"),
    ("kernel.transversality", "annulus_rotor.kernel", "transversality"),
    ("poisson.RadialGrid.init", "annulus_rotor.poisson",
     "RadialGrid.__post_init__"),
    ("poisson.solve_full", "annulus_rotor.poisson", "solve_full"),
    ("poisson.solve_mode", "annulus_rotor.poisson", "solve_mode"),
    ("poisson.solve_axisymmetric", "annulus_rotor.poisson",
     "solve_axisymmetric"),
    ("nonlinear.functional_F", "annulus_rotor.nonlinear", "functional_F"),
    ("nonlinear.build_vorticity", "annulus_rotor.nonlinear",
     "build_vorticity"),
    ("nonlinear.vorticity_samples", "annulus_rotor.nonlinear",
     "vorticity_samples"),
    ("nonlinear.continue_branch", "annulus_rotor.nonlinear",
     "continue_branch"),
    ("nonlinear.linearization_check", "annulus_rotor.nonlinear",
     "linearization_check"),
    ("nonlinear.sobolev_distance", "annulus_rotor.nonlinear",
     "sobolev_distance"),
    ("eulersim.step", "annulus_rotor.eulersim", "step"),
    ("eulersim.ModalStreamSolver.solve", "annulus_rotor.eulersim",
     "ModalStreamSolver.solve"),
    ("linalg.solve_banded", "scipy.linalg", "solve_banded"),
    ("eulersim.SimGrid.d_r", "annulus_rotor.eulersim", "SimGrid.d_r"),
    ("eulersim.SimGrid.d_theta", "annulus_rotor.eulersim", "SimGrid.d_theta"),
    ("fft.rfft", "numpy.fft", "rfft"),
    ("fft.irfft", "numpy.fft", "irfft"),
    ("eulersim.conserved_quantities", "annulus_rotor.eulersim",
     "conserved_quantities"),
    ("eulersim.cfl_limit", "annulus_rotor.eulersim", "cfl_limit"),
    ("eulersim.initial_state", "annulus_rotor.eulersim", "initial_state"),
    ("eulersim.verify_rotation", "annulus_rotor.eulersim", "verify_rotation"),
]

# calls counted while an ancestor span is open:
# (counter name, module, attribute, ancestor span)
COUNTED = [
    ("kernel.lambda1_I_evals", "annulus_rotor.kernel", "_I_quadrature",
     "kernel.solve_lambda1"),
    # wraps functional_F's span wrapper; uninstall undoes both in reverse
    ("nonlinear.continue_branch.residual_evals", "annulus_rotor.nonlinear",
     "functional_F", "nonlinear.continue_branch"),
]

# owners whose attribute is read at call time, so the wrapper goes there too;
# scipy.linalg keeps its own function, or scipy modules imported later
# (CubicSpline's) would bind the wrapper
_WRAP_AT_HOME = ("annulus_rotor", "numpy")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans of the TARGETS functions between install and uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # (name id, parent span id, t0, t1)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []    # open span ids
        self._name_stack: list[int] = []
        self._undo: list = []

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, names = self.spans, self._stack, self._name_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            names.append(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                names.pop()
                spans[sid] = (nid, parent, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, counter: str, fn, ancestor: str):
        counts, names = self.counts, self._name_stack
        counts[counter] = 0
        anc = self.names.index(ancestor)

        def counted(*args, **kwargs):
            if anc in names:
                counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module: str, path: str, wrap, clients) -> None:
        owner, attr = _resolve(module, path)
        orig = getattr(owner, attr)
        new = wrap(orig)
        holders = [owner] if (isinstance(owner, type)
                              or module.split(".")[0] in _WRAP_AT_HOME) else []
        holders += [mod for name, mod in list(sys.modules.items())
                    if name.startswith("annulus_rotor") and mod is not owner]
        holders += list(clients)
        for holder in holders:
            keys = [attr] if holder is owner else \
                [k for k, v in vars(holder).items() if v is orig]
            for key in keys:
                self._undo.append((holder, key, orig))
                setattr(holder, key, new)

    def install(self, clients=()) -> "Tracer":
        """Wrap every target; `clients` are further modules that imported
        package functions by name."""
        importlib.import_module("annulus_rotor.eulersim")
        for name, module, path in TARGETS:
            self._patch(module, path, lambda fn, n=name: self._span(n, fn),
                        clients)
        for counter, module, path, ancestor in COUNTED:
            self._patch(module, path, lambda fn, c=counter, a=ancestor:
                        self._counted(c, fn, a), clients)
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def clear(self) -> None:
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    def summary(self) -> dict:
        """Per-target calls, self and total seconds, plus root coverage."""
        child = [0.0] * len(self.spans)
        for nid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for n in self.names}
        roots = 0.0
        for sid, (nid, parent, t0, t1) in enumerate(self.spans):
            st = stats[self.names[nid]]
            st["calls"] += 1
            st["total_s"] += t1 - t0
            st["self_s"] += (t1 - t0) - child[sid]
            if parent < 0:
                roots += t1 - t0
        return {"layers": stats, "root_s": roots, "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (nid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{self.names[nid]},{t0!r},{t1!r}\n")
