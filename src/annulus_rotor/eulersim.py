"""Direct time integration of the vorticity equation on the annulus.

Purpose-built to verify rigid rotation of the constructed waves over O(1)
periods, with a spectral angular derivative and 4th-order finite
differences on a band-refined smooth radial mapping.  The time stepper is
Lawson's integrating-factor RK4 in the frame of the flow's own mean
rotation: each step takes Omega(r) = <u_theta>_theta / r from the state,
transports every angular Fourier mode exactly by exp(-i k Omega t), and
leaves only the remainder -(u_r d_r + (u_theta/r - Omega) d_theta) omega
to the four stages.  The base swirl then no longer sets the step (the
FARGO idea for differentially rotating discs); the radial velocity, the
swirl left after the mean rotation and the vorticity do.

Each substage re-solves the stream function from its Green's
representation, every angular mode at once in one NumPy sweep: forward and
backward cumulative integrals by the fourth-order rule of `_cumint4`,
weighted by sinh tables formed once per grid (`ModalStreamSolver`).  The
solve is fourth order like the radial derivative, so at 384x256 the
measured rotation rate of a desk wave sits within 7.3e-7 of its nr 1536
value.  It is quadrature-limited for a mode whose n Delta log r across one
radial interval is about 3 or more; the waves carry only rounding at such
modes.  The stages are combined in spectral space, in arrays the grid's
solver owns, so a step allocates only the new vorticity field.

Euler preserves m-fold symmetry, so a grid of symmetry order m stores one
sector theta in [0, 2 pi/m) and carries only the angular wavenumbers k m;
`initial_state` builds such a grid for an m-mode wave.  Symmetry order 1
is the full circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import AnnulusConfig
from .domain import circulation
from .errors import NumericsError, OutOfDomainError
from .nonlinear import LevelSetPerturbation, _mirrored, vorticity_samples
from .poisson import SINH_LOG_MAX, mode_sinh
from .profile import TrapezoidProfile

_FOCUS = 25.0          # extra radial node density of `SimGrid` at the bands


@dataclass
class SimGrid:
    """Band-refined smooth radial mapping r(xi), uniform xi in [0, 1].

    The ntheta angular columns cover one sector [0, 2 pi/symmetry); a
    column's rfft index k is the full-circle wavenumber symmetry k.
    """

    cfg: AnnulusConfig
    nr: int
    ntheta: int
    eps: float
    symmetry: int = 1           # m-fold symmetry order: one 2 pi/m sector
    r: np.ndarray = field(init=False, repr=False)
    r_xi: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nr < 5:
            raise OutOfDomainError(f"nr must be at least 5, the width of the "
                                   f"radial stencils; got {self.nr}")
        cfg = self.cfg
        # the stream solve's Green's kernel refuses n log(r2/r1) past
        # SINH_LOG_MAX: refuse its highest mode here, by the grid's terms
        span = np.log(cfg.r2 / cfg.r1)
        top = self.symmetry * (self.ntheta // 2)
        if top * span > SINH_LOG_MAX:
            k = int(SINH_LOG_MAX / (self.symmetry * span))
            raise OutOfDomainError(
                f"ntheta={self.ntheta} columns at symmetry order "
                f"{self.symmetry} carry angular modes up to {top}, past the "
                f"stream solve's n log(r2/r1) <= {SINH_LOG_MAX:g} (modes up "
                f"to {self.symmetry * k}); ntheta may be at most {2 * k + 1}")
        fine = np.linspace(cfg.r1, cfg.r2, 40001)
        width = 2.5 * self.eps
        dens = np.ones_like(fine)
        for R in (cfg.R1, cfg.R2):
            dens += _FOCUS * np.exp(-((fine - R) / width) ** 2)
        G = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                             * np.diff(fine))))
        targets = np.linspace(0.0, G[-1], self.nr)
        self.r = np.interp(targets, G, fine)
        self.r[0], self.r[-1] = cfg.r1, cfg.r2
        # metric by 4th-order differences of the node positions
        self.r_xi = _d_xi(self.r, 1.0 / (self.nr - 1))
        least = np.min(self.r_xi)
        if least <= 0.0:
            raise OutOfDomainError(
                f"nr={self.nr} radial nodes are too few for the band-refined "
                f"mapping: its metric r_xi is not positive (least "
                f"{least:.3g})")
        self.theta = 2.0 * np.pi * np.arange(self.ntheta) \
            / (self.symmetry * self.ntheta)

    @cached_property
    def solver(self) -> "ModalStreamSolver":
        """The grid's factored stream solver, with the time step's work
        arrays."""
        return ModalStreamSolver(self)

    def d_r(self, F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Radial derivative along axis 0 through the mapping (written into
        out when given)."""
        dF = _d_xi(F, 1.0 / (self.nr - 1), out)
        dF /= self.r_xi.reshape((-1,) + (1,) * (F.ndim - 1))
        return dF

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Full-circle angular wavenumber of each rfft column, as the
        angular derivative sees it: zero at the Nyquist column of an even
        ntheta, whose sampled derivative vanishes."""
        k = self.symmetry * np.fft.rfftfreq(self.ntheta, d=1.0 / self.ntheta)
        if self.ntheta % 2 == 0:
            k[-1] = 0.0
        return k

    def d_theta(self, F: np.ndarray) -> np.ndarray:
        return self.d_theta_modes(np.fft.rfft(F, axis=1))

    def d_theta_modes(self, F_hat: np.ndarray, out: np.ndarray | None = None,
                      work: np.ndarray | None = None) -> np.ndarray:
        """Angular derivative of the field whose rfft along axis 1 is F_hat
        (written into out when given; work holds the product by i k)."""
        work = np.multiply(F_hat, 1j * self.wavenumbers, out=work)
        return np.fft.irfft(work, n=self.ntheta, axis=1, out=out)

    def quad_r(self, F: np.ndarray) -> np.ndarray:
        """Integral over r along axis 0 (per angular column): the total of
        `_cumint4` in the uniform coordinate xi, with the metric r_xi, the
        rule the mode-0 stream solve integrates with."""
        return _cumint4(F * self.r_xi.reshape((-1,) + (1,) * (F.ndim - 1)),
                        1.0 / (self.nr - 1))[-1]


def _increments(F: np.ndarray, out: np.ndarray) -> np.ndarray:
    """24/h times the per-interval integrals of `_cumint4` along axis 0
    (cubic Newton-Cotes per interval, one-sided at the end intervals),
    written into out, of length len(F) - 1; the interior stencil runs in
    place, without temporaries of F's size."""
    inner = out[1:-1]
    np.add(F[1:-2], F[2:-1], out=inner)
    inner *= 13.0
    inner -= F[:-3]
    inner -= F[3:]
    out[0] = 9 * F[0] + 19 * F[1] - 5 * F[2] + F[3]
    out[-1] = 9 * F[-1] + 19 * F[-2] - 5 * F[-3] + F[-4]
    return out


def _cumint4(F: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along axis 0 on a uniform grid, 4th order."""
    inc = _increments(F, np.empty_like(F[1:]))
    inc *= h / 24.0
    out = np.empty_like(inc, shape=F.shape)
    out[0] = 0.0
    np.cumsum(inc, axis=0, out=out[1:])
    return out


def _d_xi(F: np.ndarray, h: float, out: np.ndarray | None = None
          ) -> np.ndarray:
    """4th-order first derivative on a uniform grid, one-sided at the ends.

    Written into out (which must not overlap F) when given; the interior
    stencil runs in place, without temporaries of F's size.
    """
    D = np.empty_like(F, dtype=float) if out is None else out
    inner = D[2:-2]
    np.subtract(F[3:-1], F[1:-3], out=inner)
    inner *= 8.0
    inner += F[:-4]
    inner -= F[4:]
    inner /= 12 * h
    D[0] = (-25 * F[0] + 48 * F[1] - 36 * F[2] + 16 * F[3] - 3 * F[4]) / (12 * h)
    D[1] = (-3 * F[0] - 10 * F[1] + 18 * F[2] - 6 * F[3] + F[4]) / (12 * h)
    D[-2] = (3 * F[-1] + 10 * F[-2] - 18 * F[-3] + 6 * F[-4] - F[-5]) / (12 * h)
    D[-1] = (25 * F[-1] - 48 * F[-2] + 36 * F[-3] - 16 * F[-4] + 3 * F[-5]) / (12 * h)
    return D


class ModalStreamSolver:
    """Green's-representation modal solver on the mapped radial grid.

    Solves psi_n'' + psi_n'/r - (n/r)^2 psi_n = -omega_n with the wall
    values (0, gamma delta_{n0}).  Mode zero is the closed-form double
    integral psi_0 = C log(r/r1) - U; every mode n >= 1 (n = k m on a grid
    of symmetry order m) is

        psi_n(r) = (S_n(r2/r) L(r) + S_n(r/r1) R(r)) / (n S_n(r2/r1)),
        L(r) = int_{r1}^{r} S_n(s/r1) s omega_n ds,
        R(r) = int_{r}^{r2} S_n(r2/s) s omega_n ds,

    with S_n = `poisson.mode_sinh` (Greengard & Rokhlin, CPAM 44 (1991),
    for two-point problems as integral equations).  L is summed forward
    from r1 and R backward from r2, each from the increments of `_cumint4`
    in xi times the metric r_xi: every mode takes mode zero's fourth-order
    rule, and R is never a total minus a prefix, which would cancel the
    exponentially large S_n(r2/s) weights.  The four S_n tables (L's and
    R's integrand factors with h/24 r r_xi folded in, and the two output
    factors over n S_n(r2/r1)) are formed once per grid and stored
    complex, so a solve multiplies complex by complex on contiguous work
    arrays and allocates nothing of the modes' size.

    A mode with n Delta log r of about 3 or more across one interval is
    quadrature-limited, as the cubic in xi no longer follows exp(n log r):
    at nr 96 a manufactured n = 135 mode errs by 1.4e2.  The waves' content
    at such modes is at rounding.  The solver also owns the work arrays of
    the time step (`_velocity`, `_remainder`, `step`); `SimGrid.solver`
    holds one per grid.
    """

    def __init__(self, grid: SimGrid):
        self.grid = grid
        nr = grid.nr
        h = 1.0 / (nr - 1)
        r = grid.r
        nk = grid.ntheta // 2
        self._shape = (nr, nk + 1)
        # mode zero's grid constants: psi_0 = C log(r/r1) - U
        self._h = h
        self._log_r = np.log(r / r[0])
        self._log_span = np.log(r[-1] / r[0])
        # modes n = k m, k = 1..nk: S_n(r/r1), S_n(r2/r) and n S_n(r2/r1)
        n = grid.symmetry * np.arange(1, nk + 1)
        s_lo = mode_sinh(n, self._log_r[:, None])
        s_hi = mode_sinh(n, self._log_span - self._log_r[:, None])
        den = n * mode_sinh(n, self._log_span)
        weight = (h / 24.0 * r * grid.r_xi)[:, None]
        self._lo_in, self._hi_in, self._lo_out, self._hi_out = (
            np.asarray(t, dtype=complex) for t in (
                s_lo * weight, s_hi * weight, s_lo / den, s_hi / den))
        self._L, self._R = (np.empty((nr, nk), dtype=complex)
                            for _ in range(2))
        self._inc = np.empty((nr - 1, nk), dtype=complex)
        # step work arrays, spectral: the state's modes, the phase E, the
        # stage, accumulator and slope, the stream modes and the i k
        # product; physical: four fields and the frame's mean swirl
        (self._what, self._phase, self._stage, self._acc, self._slope,
         self._psi_hat, self._hat) = (
            np.empty(self._shape, dtype=complex) for _ in range(7))
        self._psi, self._u_r, self._u_theta, self._field = (
            np.empty((nr, grid.ntheta)) for _ in range(4))
        self._mean_swirl = np.empty(nr)

    def solve(self, omega_hat: np.ndarray, gamma_hat: float,
              out: np.ndarray | None = None) -> np.ndarray:
        """omega_hat: (nr, ntheta//2 + 1) complex modal sources (rfft
        scaling); the mode-zero wall value gamma_hat carries the same
        scaling.  The stream modes are written into out when given."""
        if omega_hat.shape != self._shape:
            raise OutOfDomainError(f"omega_hat has shape {omega_hat.shape}; "
                                   f"the solver is factored for {self._shape}")
        psi = np.empty_like(omega_hat) if out is None else out
        grid = self.grid
        h = self._h
        w0 = omega_hat[:, 0]
        V = _cumint4(grid.r * w0 * grid.r_xi, h)
        U = _cumint4(V / grid.r * grid.r_xi, h)
        C = (gamma_hat + U[-1]) / self._log_span
        psi[:, 0] = C * self._log_r - U
        # modes n >= 1, every mode at once: L forward, R backward
        # (a ufunc reading or writing the strided columns 1: of a modal
        # array allocates a buffer; a copy does not)
        L, R, inc = self._L, self._R, self._inc
        np.copyto(R, omega_hat[:, 1:])
        np.multiply(self._lo_in, R, out=L)
        R *= self._hi_in
        _increments(L, inc)
        L[0] = 0.0
        np.cumsum(inc, axis=0, out=L[1:])
        _increments(R, inc)
        R[-1] = 0.0
        np.cumsum(inc[::-1], axis=0, out=R[-2::-1])
        L *= self._hi_out
        R *= self._lo_out
        L += R
        np.copyto(psi[:, 1:], L)
        return psi


@dataclass
class SimState:
    grid: SimGrid
    omega: np.ndarray
    time: float
    gamma: float
    dealias: bool = False


def _next_fast_len(n: int) -> int:
    """The least 2-3-5-smooth length >= n, a fast real FFT length."""
    n = max(n, 1)
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def initial_state(cfg: AnnulusConfig, profile: TrapezoidProfile,
                  f: LevelSetPerturbation | None, nr: int, ntheta: int,
                  dealias: bool = False) -> SimState:
    """Initial vorticity of the wave f (the Taylor-Couette flow when f is
    None) on an nr x ntheta grid.

    ntheta counts the full circle.  An m-mode wave is simulated on one
    2 pi/m sector of ceil(ntheta/m) columns, rounded up to an FFT-friendly
    length; the full circle keeps ntheta columns.  cfg, and f where given,
    must be the profile's.  The wave reads theta only through cos(m theta),
    and on the sector cos(m theta_j) = cos(2 pi j / ntheta), so the field
    is even, as `build_vorticity`'s is: columns 0..ntheta//2 are sampled
    and column ntheta - j is a copy of column j.
    """
    profile.check(cfg)
    symmetry = 1 if f is None else f.m
    if symmetry > 1:
        ntheta = _next_fast_len(-(-ntheta // symmetry))
    grid = SimGrid(cfg=cfg, nr=nr, ntheta=ntheta, eps=profile.eps,
                   symmetry=symmetry)
    if f is None:
        omega = np.tile((2 * cfg.A + profile.value(grid.r))[:, None],
                        (1, ntheta))
    else:
        half = ntheta // 2 + 1
        omega = np.empty((grid.nr, ntheta))
        omega[:, :half] = vorticity_samples(f, profile, grid.r,
                                            grid.theta[:half])
        omega[:, half:] = _mirrored(omega, half)
    return SimState(grid=grid, omega=omega, time=0.0,
                    gamma=circulation(cfg), dealias=dealias)


def _velocity(state: SimState, w_hat: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Velocity (u_r, u_theta) of the vorticity whose rfft along axis 1 is
    w_hat, plus d omega / d theta from the same modes.

    All three live in the grid solver's work arrays and are overwritten by
    the next call.
    """
    grid = state.grid
    sv = grid.solver
    psi_hat = sv.solve(w_hat, state.gamma * grid.ntheta, out=sv._psi_hat)
    u_r = grid.d_theta_modes(psi_hat, out=sv._u_r, work=sv._hat)
    u_r /= grid.r[:, None]
    u_r[0, :] = 0.0
    u_r[-1, :] = 0.0
    psi = np.fft.irfft(psi_hat, n=grid.ntheta, axis=1, out=sv._psi)
    u_theta = grid.d_r(psi, out=sv._u_theta)
    np.negative(u_theta, out=u_theta)
    # psi is spent: its array takes d omega / d theta
    omega_theta = grid.d_theta_modes(w_hat, out=sv._psi, work=sv._hat)
    return u_r, u_theta, omega_theta


def _remainder(state: SimState, w_hat: np.ndarray, out: np.ndarray,
               omega: np.ndarray | None = None) -> np.ndarray:
    """Modes of -(u_r d_r omega + (u_theta/r - Omega) d_theta omega) at the
    stage w_hat, written into out and dealiased when the state asks.

    The step's first substage passes the state's own vorticity omega, and
    its mean swirl <u_theta>_theta = r Omega then fixes the step's frame;
    later stages pass None and are transformed back from w_hat.
    """
    grid = state.grid
    sv = grid.solver
    u_r, u_theta, omega_theta = _velocity(state, w_hat)
    if omega is None:
        omega = np.fft.irfft(w_hat, n=grid.ntheta, axis=1, out=sv._field)
    else:
        np.mean(u_theta, axis=1, out=sv._mean_swirl)
    u_theta -= sv._mean_swirl[:, None]
    u_theta /= grid.r[:, None]
    u_theta *= omega_theta
    # omega_theta is spent: its array takes the remainder
    rem = grid.d_r(omega, out=omega_theta)
    rem *= u_r
    rem += u_theta
    np.negative(rem, out=rem)
    np.fft.rfft(rem, axis=1, out=out)
    if state.dealias:
        kmax = out.shape[1] - 1
        out[:, int(2 * kmax / 3) + 1:] = 0.0
    return out


def cfl_limit(state: SimState) -> float:
    """Step-size limit of `step`: half the least of the radial CFL limit of
    u_r, the angular CFL limit of the swirl left in the frame of the mean
    rotation, u_theta - <u_theta>_theta, and the vorticity time
    1/max|omega|.

    `step` transports by the mean rotation exactly, so the base swirl's
    own angular CFL limit does not enter.
    """
    grid = state.grid
    u_r, u_theta, _ = _velocity(state, np.fft.rfft(state.omega, axis=1))
    dr = np.gradient(grid.r)
    dth = 2.0 * np.pi / (grid.symmetry * grid.ntheta)
    swirl = u_theta - np.mean(u_theta, axis=1, keepdims=True)
    lim_r = np.min(dr[:, None] / np.maximum(np.abs(u_r), 1e-14))
    lim_t = np.min(grid.r[:, None] * dth / np.maximum(np.abs(swirl), 1e-14))
    lim_w = 1.0 / max(np.max(np.abs(state.omega)), 1e-14)
    return 0.5 * np.min([lim_r, lim_t, lim_w])     # NaN if any limit is


def step(state: SimState, dt: float) -> SimState:
    """One integrating-factor (Lawson) RK4 step in the frame of the state's
    mean rotation Omega(r) = <u_theta>_theta / r.

    With E = exp(-i k Omega dt/2) on the rfft column of full-circle
    wavenumber k, and N the remainder `_remainder`,

        a = N(w),  b = N(E (w + dt/2 a)),  c = N(E w + dt/2 b),
        d = N(E^2 w + dt E c),
        w_new = E^2 w + dt/6 (E^2 a + 2 E (b + c) + d),

    so the mean rotation is integrated exactly and RK4 meets only the
    remainder.  The stages are combined in spectral space in the grid
    solver's work arrays; the new vorticity is the step's only allocation.
    """
    grid = state.grid
    sv = grid.solver
    E, stage, acc, k = sv._phase, sv._stage, sv._acc, sv._slope
    w_hat = np.fft.rfft(state.omega, axis=1, out=sv._what)
    _remainder(state, w_hat, k, omega=state.omega)             # a
    # E = exp(-i k Omega dt/2); matmul forms the outer product k Omega
    # without the full-size buffer of a broadcast ufunc
    E.real = 0.0
    np.matmul((sv._mean_swirl / grid.r)[:, None],
              (-0.5 * dt * grid.wavenumbers)[None, :], out=E.imag)
    np.exp(E, out=E)
    np.multiply(k, E, out=acc)                                 # E a
    np.multiply(k, 0.5 * dt, out=stage)
    stage += w_hat
    stage *= E
    _remainder(state, stage, k)                                # b
    w_hat *= E                                                 # E w
    np.multiply(k, 0.5 * dt, out=stage)
    stage += w_hat
    k *= 2.0
    acc += k
    _remainder(state, stage, k)                                # c
    np.multiply(k, dt, out=stage)
    stage += w_hat
    stage *= E                                      # E^2 w + dt E c
    k *= 2.0
    acc += k
    acc *= dt / 6.0
    acc += w_hat
    acc *= E                        # E^2 w + dt/6 (E^2 a + 2 E (b + c))
    _remainder(state, stage, k)                                # d
    k *= dt / 6.0
    acc += k
    omega = np.fft.irfft(acc, n=grid.ntheta, axis=1)
    return replace(state, omega=omega, time=state.time + dt)


def conserved_quantities(state: SimState) -> dict:
    """Circulation, mean vorticity and kinetic energy of the state, read
    from its angular modes.

    With w_hat = rfft(omega) along theta, psi_hat the stream modes and
    dpsi = d_r psi_hat, the sum over the n stored columns of a real field
    is its mode 0, and the sum of its square is, by Parseval,
    |F_hat|^2 @ c with column weights c = (1, 2, ..., 2, 1)/n (the last
    2/n when n is odd).  For u_theta = -d_r psi and u_r = d_theta psi / r
    (zero at the walls) that gives, with k the angular wavenumbers,

        sum_theta u_theta = -dpsi[:, 0],   sum_theta u_theta^2 = |dpsi|^2 @ c,
        sum_theta u_r^2 = (|psi_hat|^2 @ (c k^2)) / r^2,

    and sum_theta omega = w_hat[:, 0].  The sector sum times 2 pi/n is the
    full-circle integral, so

        circulation = quad_r(dpsi[:, 0]) / n,
        mean_vorticity = 2 pi/n quad_r(r w_hat[:, 0]),
        energy = pi/n quad_r(r (sum u_r^2 + sum u_theta^2)),

    each one `SimGrid.quad_r` of a radial column.  A call makes one rfft,
    one stream solve and one radial derivative, and no inverse transform.
    The stream modes and their derivative live in the solver's work arrays
    `_psi_hat` and `_hat`, which `step` rewrites before it reads them.
    """
    return _conserved_from_modes(state, np.fft.rfft(state.omega, axis=1))


def _conserved_from_modes(state: SimState, w_hat: np.ndarray) -> dict:
    """`conserved_quantities` from w_hat = rfft(state.omega) along theta:
    `verify_rotation` reads the mode-m phase from the same transform, at
    the start and at every checkpoint."""
    grid = state.grid
    sv = grid.solver
    n = grid.ntheta
    psi_hat = sv.solve(w_hat, state.gamma * n, out=sv._psi_hat)
    dpsi = grid.d_r(psi_hat, out=sv._hat)
    c = np.full(psi_hat.shape[1], 2.0 / n)
    c[0] = 1.0 / n
    if n % 2 == 0:
        c[-1] = 1.0 / n
    swirl2 = (dpsi.real ** 2 + dpsi.imag ** 2) @ c
    radial2 = (psi_hat.real ** 2 + psi_hat.imag ** 2) \
        @ (c * grid.wavenumbers ** 2) / grid.r ** 2
    radial2[0] = radial2[-1] = 0.0
    circ = float(grid.quad_r(dpsi[:, 0].real)) / n
    mean_w = 2.0 * np.pi / n * float(grid.quad_r(grid.r * w_hat[:, 0].real))
    energy = np.pi / n * float(grid.quad_r(grid.r * (radial2 + swirl2)))
    return {"circulation": circ, "mean_vorticity": mean_w, "energy": energy}


@dataclass
class RotationResult:
    lam_measured: float
    return_error: float
    times: list
    phases: list
    conserved_start: dict
    conserved_end: dict
    dt: float                                    # the step taken
    nsteps: int
    series: list = field(default_factory=list)   # per-checkpoint dicts


def verify_rotation(state0: SimState, lam_expected: float, T: float,
                    dt: float | None = None, n_checkpoints: int = 16,
                    m: int | None = None) -> RotationResult:
    """Integrate one expected period; fit the pattern's angular speed.

    The step is dt (0.8 `cfl_limit` of the initial state when None),
    shrunk so that a whole number of steps, and at least n_checkpoints,
    spans T; the result carries the step and the step count used.  An
    explicit dt that leaves that step above the limit raises, and so does
    a limit that is not finite and positive (a NaN in the field).  Since
    `step` moves with the mean rotation, the limit comes from the wave's
    own radial velocity, residual swirl and vorticity: one desk period
    takes n_checkpoints = 16 steps.

    The rotation rate comes from the phase drift of the m-mode correlation
    against the initial field; the return error is the relative L2 gap
    between the final and initial vorticity.  m is the full-circle mode
    (detected from the initial spectrum when None); it must be a multiple
    of the grid's symmetry order and at most the grid's highest mode.  On
    a sector grid the correlation reads the stored mode m // symmetry,
    whose phase is that of full mode m.  The start and each checkpoint
    make one rfft of the field, read for both the phase and the conserved
    quantities; a checkpoint where any of them is not finite raises.
    """
    if n_checkpoints < 1 or not 0.0 < T < np.inf or \
            (dt is not None and not dt > 0.0):
        raise OutOfDomainError(
            f"verify_rotation needs n_checkpoints >= 1, 0 < T < inf and "
            f"dt > 0: got n_checkpoints={n_checkpoints}, T={T}, dt={dt}")
    grid = state0.grid
    sym = grid.symmetry
    if m is not None and m % sym:
        raise OutOfDomainError(f"mode m={m} is not a multiple of the grid's "
                               f"symmetry order {sym}")
    if m is not None and m // sym > grid.ntheta // 2:
        raise OutOfDomainError(f"mode m={m} is above the grid's highest "
                               f"mode {sym * (grid.ntheta // 2)}")
    lim = cfl_limit(state0)
    if not 0.0 < lim < np.inf:
        raise NumericsError(f"cfl_limit of the initial state is {lim:g}, "
                            f"not finite and positive")
    nsteps = max(int(np.ceil(T / (0.8 * lim if dt is None else dt))),
                 n_checkpoints)
    dt = T / nsteps
    if dt > lim:
        raise NumericsError(f"step dt={dt:g} ({nsteps} steps over T={T:g}) "
                            f"exceeds cfl_limit {lim:g}")
    w0_hat = np.fft.rfft(state0.omega, axis=1)
    if m is None:
        spec = np.abs(w0_hat).sum(axis=0)
        m = int(np.argmax(spec[1:]) + 1) * sym
    mode = m // sym
    ref_hat = w0_hat[:, mode]
    per = max(nsteps // n_checkpoints, 1)
    state = state0
    times = [0.0]
    phases = [0.0]
    series = []
    den0 = grid.quad_r(np.sum(state0.omega ** 2, axis=1))
    for k in range(nsteps):
        state = step(state, dt)
        if (k + 1) % per == 0 or k == nsteps - 1:
            w_hat = np.fft.rfft(state.omega, axis=1)
            corr = np.sum(w_hat[:, mode] * np.conj(ref_hat))
            q = _conserved_from_modes(state, w_hat)
            gap = grid.quad_r(np.sum((state.omega - state0.omega) ** 2,
                                     axis=1)) / den0
            # the radial rule's weights and the metric r_xi are positive,
            # so gap is at least 0 unless it is not finite
            err_t = float(np.sqrt(gap))
            bad = [f"{name} {value:.6g}" for name, value in (
                ("phase correlation", corr), ("return error", err_t),
                *q.items()) if not np.isfinite(value)]
            if bad:
                raise NumericsError(f"not finite at step {k + 1} of {nsteps}, "
                                    f"t={state.time:.6g}: {', '.join(bad)}")
            times.append(state.time)
            phases.append(np.angle(corr))
            # a pattern co-rotating at angular velocity lam shifts the
            # m-mode correlation phase at rate -m lam
            ph = np.unwrap(np.array(phases))
            lam_est = -np.polyfit(times, ph, 1)[0] / m
            series.append({"t": state.time, "lam_est": lam_est,
                           "return_error": err_t, **q})
    # the last step is always a checkpoint: its fit, error and conserved
    # quantities are the end's
    return RotationResult(lam_measured=float(lam_est), return_error=err_t,
                          times=times, phases=list(ph),
                          conserved_start=_conserved_from_modes(state0, w0_hat),
                          conserved_end=q, dt=dt, nsteps=nsteps,
                          series=series)
