"""Two entangled two-level detectors, one of them uniformly accelerated.

Detector A stays inertial while detector B couples to a massless scalar
field over a finite window of proper time on the world line
t = sinh(a*tau)/a, x = cosh(a*tau)/a.  The model is dimensionless:

* ``theta`` sets the initial entanglement sin(theta)|0_A 1_B> +
  cos(theta)|1_A 0_B> (theta = pi/4 is maximally entangled),
* ``nu`` is the effective detector-field coupling accumulated over the
  window (perturbative regime, nu**2 << 1),
* ``q`` = exp(-2*pi*omega/accel) in [0, 1) encodes the proper
  acceleration; q = 0 is inertial, q -> 1 infinite acceleration.

All functions are pure and all value types immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_Q_CONSISTENCY_TOL = 1e-12
_WEIGHT_SUM_TOL = 1e-12

SOFT_COUPLING_LIMIT = 0.01  # nu**2 above this strains the weak-coupling expansion
MIN_GAP_WINDOW = 100.0      # omega*delta below this makes the window short vs 1/omega


def accel_to_q(omega: float, accel: float) -> float:
    """Acceleration parameter q = exp(-2*pi*omega/accel)."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not accel > 0:
        raise ValueError(f"accel must be positive, got {accel}")
    return math.exp(-2.0 * math.pi * omega / accel)


def q_to_accel(omega: float, q: float) -> float:
    """Proper acceleration recovered from q; inverse of :func:`accel_to_q`."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1) to recover an acceleration, got {q}")
    return 2.0 * math.pi * omega / (-math.log(q))


def coupling_nu(epsilon: float, omega: float, delta: float, kappa: float) -> float:
    """Effective coupling nu = sqrt(eps**2 omega delta / (2 pi) * exp(-omega**2 kappa**2)).

    ``epsilon`` is the switching amplitude, ``delta`` the window of proper
    time the detector stays on, and ``kappa`` the detector size (kappa may
    be zero for a point-like detector).
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.sqrt(
        epsilon * epsilon * omega * delta / (2.0 * math.pi)
        * math.exp(-(omega * omega) * (kappa * kappa))
    )


@dataclass(frozen=True)
class DetectorParams:
    """Inputs for one evaluation point.

    ``q`` is the canonical acceleration coordinate and defaults to 0
    (inertial).  ``omega`` and ``accel`` are optional conveniences: when
    both are given and ``q`` is not, q is derived; when all three are given
    they must agree to 1e-12; one of them alone, without ``q``, is an
    error.  ``delta``, the interaction window, is read only by
    :func:`validity_check`.
    """

    theta: float
    nu: float
    q: float | None = None
    omega: float | None = None
    accel: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not self.nu >= 0:
            raise ValueError(f"nu must be non-negative, got {self.nu}")
        if self.nu * self.nu >= 1.0:
            raise ValueError(
                f"nu**2 must stay below 1 for the perturbative model, got nu = {self.nu}"
            )
        for name in ("omega", "accel", "delta"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        q = self.q
        if self.omega is not None and self.accel is not None:
            derived = accel_to_q(self.omega, self.accel)
            if q is None:
                q = derived
            elif abs(q - derived) > _Q_CONSISTENCY_TOL:
                raise ValueError(
                    f"q = {q} disagrees with exp(-2*pi*omega/accel) = {derived} "
                    f"beyond {_Q_CONSISTENCY_TOL:g}"
                )
        elif q is None and (self.omega is not None or self.accel is not None):
            given, missing = ("omega", "accel") if self.accel is None else ("accel", "omega")
            raise ValueError(
                f"{given} needs {missing} to derive q = exp(-2*pi*omega/accel); "
                f"give both, or give q"
            )
        if q is None:
            q = 0.0
        if not 0.0 <= q < 1.0:
            raise ValueError(f"q must lie in [0, 1), got {q}")
        object.__setattr__(self, "q", float(q))


@dataclass(frozen=True, eq=False)
class JointState:
    """Final 4x4 joint density matrix with its defining weights."""

    rho: np.ndarray
    mu: float
    upsilon: float
    eta: float
    params: DetectorParams


def _point_name(theta, nu, q, index) -> str:
    theta, nu, q = (float(np.ravel(v)[index]) for v in np.broadcast_arrays(theta, nu, q))
    return f"(theta, nu, q) = ({theta!r}, {nu!r}, {q!r})"


def weights_grid(theta, nu, q):
    """Statistical weights (mu, upsilon, eta) at every point of (theta, nu, q).

    The inputs are scalars or arrays that broadcast together.  ``eta`` is
    the emission weight (vanishes at theta = 0) and ``upsilon`` the
    thermal-excitation weight (vanishes at q = 0); they satisfy
    2*mu + upsilon + eta = 1.  A point outside the model's domain raises
    ValueError, and one whose weights miss that sum by more than 1e-12
    raises RuntimeError; both name the first such point.
    """
    return _weights_and_sines(theta, nu, q)[:3]


def _weights_and_sines(theta, nu, q):
    """:func:`weights_grid`'s (mu, upsilon, eta), then the sin theta and cos theta they use."""
    theta, nu, q = (np.asarray(v, dtype=float) for v in (theta, nu, q))
    valid = np.isfinite(theta) & (nu >= 0.0) & (nu * nu < 1.0) & (q >= 0.0) & (q < 1.0)
    if not valid.all():
        raise ValueError(
            f"point {_point_name(theta, nu, q, int(np.argmin(valid)))} is outside the "
            f"model's domain: theta finite, nu >= 0 with nu**2 < 1, and q in [0, 1)"
        )
    s = np.sin(theta)
    c = np.cos(theta)
    s2 = s * s
    c2 = c * c
    nu2 = nu * nu
    d = (1.0 - q) + nu2 * (s2 + q * c2)
    mu = (1.0 - q) / (2.0 * d)
    upsilon = nu2 * q * c2 / d
    eta = nu2 * s2 / d
    total = 2.0 * mu + upsilon + eta
    off = np.abs(total - 1.0) > _WEIGHT_SUM_TOL
    if off.any():
        i = int(np.argmax(off))
        raise RuntimeError(
            f"weight normalization violated: 2*mu+upsilon+eta = "
            f"{float(np.ravel(total)[i])!r} at {_point_name(theta, nu, q, i)}"
        )
    return mu, upsilon, eta, s, c


def _x_state_real(theta, mu, upsilon, eta) -> np.ndarray:
    """The states of :func:`x_state_rho` as a new, writable float64 stack."""
    s = np.sin(theta)
    c = np.cos(theta)
    coherence = mu * (2.0 * s * c)
    shape = (coherence * upsilon * eta).shape  # the broadcast shape, at scalar cost
    rho = np.zeros(shape + (4, 4))
    rho[..., 0, 0] = eta
    rho[..., 1, 1] = 2.0 * mu * (s * s)
    rho[..., 2, 2] = 2.0 * mu * (c * c)
    rho[..., 1, 2] = coherence
    rho[..., 2, 1] = coherence
    rho[..., 3, 3] = upsilon
    return rho


def x_state_rho(theta, mu, upsilon, eta) -> np.ndarray:
    """Read-only complex128 joint state in the basis |00>, |01>, |10>, |11>.

    The only nonzero entries are the diagonal (eta, 2 mu sin^2 theta,
    2 mu cos^2 theta, upsilon) and the real coherence mu sin(2 theta) at
    positions (1, 2) and (2, 1).  Scalars give one 4x4 matrix; arrays that
    broadcast together give a stack with the 4x4 axes last.
    """
    rho = _x_state_real(theta, mu, upsilon, eta).astype(np.complex128)
    rho.flags.writeable = False
    return rho


def build_final_state(params: DetectorParams) -> JointState:
    """Assemble the joint state of one parameter point (see :func:`x_state_rho`).

    At nu = 0 this is exactly the projector onto the initial pure state.
    """
    mu, upsilon, eta = (float(w) for w in weights_grid(params.theta, params.nu, params.q))
    rho = x_state_rho(params.theta, mu, upsilon, eta)
    return JointState(rho=rho, mu=mu, upsilon=upsilon, eta=eta, params=params)


@dataclass(frozen=True)
class TrajectoryPoint:
    """Point of the uniform-acceleration world line (x**2 - t**2 = 1/a**2)."""

    tau: float
    t: float
    x: float


def trajectory_point(accel: float, tau: float) -> TrajectoryPoint:
    """World-line point t = sinh(a*tau)/a, x = cosh(a*tau)/a at proper time tau."""
    if not accel > 0:
        raise ValueError(f"accel must be positive, got {accel}")
    at = accel * tau
    return TrajectoryPoint(
        tau=float(tau),
        t=math.sinh(at) / accel,
        x=math.cosh(at) / accel,
    )


def validity_check(params: DetectorParams) -> list[str]:
    """Advisory warnings for parameter regimes outside the model's comfort zone."""
    notes = []
    nu_limit = math.sqrt(SOFT_COUPLING_LIMIT)  # exactly 0.1, where 0.1 * 0.1 rounds above 0.01
    if params.nu > nu_limit:
        notes.append(
            f"nu = {params.nu!r} exceeds {nu_limit!r} (nu**2 above {SOFT_COUPLING_LIMIT}); "
            f"the weak-coupling treatment is strained"
        )
    if params.omega is not None and params.delta is not None:
        window = params.omega * params.delta
        if window < MIN_GAP_WINDOW:
            notes.append(
                f"omega*delta = {window:.4g} is below {MIN_GAP_WINDOW:g}; "
                f"the interaction window is short relative to 1/omega"
            )
    return notes
