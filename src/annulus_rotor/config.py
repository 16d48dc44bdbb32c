"""Annulus/flow configuration and plain key=value config files."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class AnnulusConfig:
    """Annulus geometry and swirl constants of the base flow u = A r + B/r."""

    r1: float
    r2: float
    R1: float
    R2: float
    A: float
    B: float

    def __post_init__(self):
        if not (0.0 < self.r1 < self.R1 < self.R2 < self.r2):
            raise ConfigError(
                "geometry must satisfy 0 < r1 < R1 < R2 < r2, got "
                f"r1={self.r1}, R1={self.R1}, R2={self.R2}, r2={self.r2}")
        if self.B == 0.0:
            raise ConfigError("B must be nonzero (pure rigid rotation B=0 is "
                              "excluded: the construction requires B != 0)")
        u1 = self.A * self.R1 + self.B / self.R1
        u2 = self.A * self.R2 + self.B / self.R2
        scale = max(abs(u1), abs(u2), 1e-300)
        if abs(u1 - u2) <= 1e-12 * scale:
            raise ConfigError(
                "base swirl must differ at the two band centers: "
                f"u(R1)={u1!r} == u(R2)={u2!r}")
        if abs(u2) <= 1e-14 * max(abs(self.A * self.R2), abs(self.B / self.R2), 1.0):
            raise ConfigError("base swirl must not vanish at R2 (u(R2)=0 "
                              "would give a zero leading rotation rate)")

    @property
    def eps_max(self) -> float:
        """Bound on the band half-width: both bands inside, disjoint."""
        return min(self.R1 - self.r1, (self.R2 - self.R1) / 2.0,
                   self.r2 - self.R2)


_DEFAULTS = {
    "eps": 1e-2,
    "kappa": 0.1,
    "m": 3,
    "M": 8,
    "sigma": 1e-3,
    "nodes_per_panel": (64, 128, 64, 128, 64),
    "n_theta": 256,
    "nz": 96,
    "seed": 0,
}

_REQUIRED = ("r1", "r2", "R1", "R2", "A", "B")
_FLOAT_KEYS = {"r1", "r2", "R1", "R2", "A", "B", "eps", "kappa", "sigma"}
_INT_KEYS = {"m", "M", "n_theta", "nz", "seed"}


@dataclass(frozen=True)
class RunConfig:
    """Full run configuration: annulus + profile + discretization knobs."""

    annulus: AnnulusConfig
    eps: float = _DEFAULTS["eps"]
    kappa: float = _DEFAULTS["kappa"]
    m: int = _DEFAULTS["m"]
    M: int = _DEFAULTS["M"]
    sigma: float = _DEFAULTS["sigma"]
    nodes_per_panel: tuple = _DEFAULTS["nodes_per_panel"]
    n_theta: int = _DEFAULTS["n_theta"]
    nz: int = _DEFAULTS["nz"]
    seed: int = _DEFAULTS["seed"]

    def __post_init__(self):
        eps_max = self.annulus.eps_max
        if not (0.0 < self.eps < eps_max):
            raise ConfigError(f"eps must lie in (0, {eps_max}): got {self.eps}")
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in (0, 1): got {self.kappa}")
        if self.m < 1:
            raise ConfigError(f"m must be a positive integer: got {self.m}")
        if self.M < 2:
            raise ConfigError(f"M must be at least 2: got {self.M}")
        if len(self.nodes_per_panel) != 5 or any(n < 4 for n in self.nodes_per_panel):
            raise ConfigError("nodes_per_panel needs five entries >= 4")
        if self.n_theta < 8 or self.n_theta % 2:
            raise ConfigError("n_theta must be an even integer >= 8")
        if self.nz < 8:
            raise ConfigError("nz must be >= 8")


def parse_config(path: str) -> RunConfig:
    """Parse a plain key=value file (one pair per line, # comments)."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = val

    known = set(_REQUIRED) | set(_DEFAULTS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)} "
                          f"(known: {', '.join(sorted(known))})")
    missing = sorted(set(_REQUIRED) - set(raw))
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    vals: dict[str, object] = {}
    for key, text in raw.items():
        try:
            if key in _FLOAT_KEYS:
                vals[key] = float(text)
            elif key in _INT_KEYS:
                vals[key] = int(text)
            elif key == "nodes_per_panel":
                parts = tuple(int(p) for p in text.split(","))
                vals[key] = parts
            else:
                vals[key] = text
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from None

    annulus = AnnulusConfig(*(vals.pop(k) for k in _REQUIRED))
    kw = dict(_DEFAULTS)
    kw.update(vals)
    return RunConfig(annulus=annulus, **kw)


def default_run_config() -> RunConfig:
    """Desk-scale defaults used throughout the test-suite and docs."""
    return RunConfig(annulus=AnnulusConfig(r1=1.0, r2=2.0, R1=1.2, R2=1.5,
                                           A=0.0, B=0.15))
