"""Ground-truth simulators and noisy data collection.

Provides a discrete LTI plant (including a constructed triple-mass-spring
benchmark), interpolated predator-prey error dynamics, and seeded trajectory
collection.  Randomness comes from a counter-based 64-bit generator (Philox)
with Gaussian variates via the Box-Muller transform, so identical seeds give
bit-identical data regardless of call order elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .hankel import Trajectory

__all__ = [
    "LinearPlant",
    "NonlinearPlant",
    "NoiseSpec",
    "PlantDiverged",
    "seeded_generator",
    "standard_normal",
    "triple_mass_spring",
    "lv_step",
    "lv_linearized_plant",
    "rollout",
    "collect_trajectory",
    "save_plant_csv",
]

_MASK64 = (1 << 64) - 1


def seeded_generator(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal variates via Box-Muller from the generator's uniforms."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)  # in (0, 1], keeps log finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])[:n]
    return z.reshape(shape)


class PlantDiverged(ValueError):
    """A rollout left the finite range: the plant state became NaN or Inf."""


def _matrix(a, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class LinearPlant:
    """Discrete LTI plant x(k+1) = A x(k) + B u(k), y(k) = C x(k) + D u(k)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = _matrix(self.a, "a")
        b = _matrix(self.b, "b")
        c = _matrix(self.c, "c")
        d = _matrix(self.d, "d")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"a must be square, got {a.shape}")
        if b.shape[0] != n or c.shape[1] != n:
            raise ValueError("b/c dimensions inconsistent with a")
        if d.shape != (c.shape[0], b.shape[1]):
            raise ValueError("d dimensions inconsistent with b and c")
        for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    def step(self, x, u):
        """One step of the plant: returns (x_next, y)."""
        x = np.asarray(x, dtype=float).reshape(self.n)
        u = np.asarray(u, dtype=float).reshape(self.m)
        return self.a @ x + self.b @ u, self.c @ x + self.d @ u

    def linear_model(self) -> LinearPlant:
        """The LTI model a model-based controller uses: the plant itself."""
        return self


@dataclass(frozen=True)
class NonlinearPlant:
    """Interpolated predator-prey error dynamics, forward-Euler discretized.

    ``eps = 1`` is the linearization about the equilibrium, ``eps = 0`` the
    full nonlinear vector field; intermediate values blend the two.  States
    are deviations from the equilibrium ``x_bar = (c_c/d_c, a_c/b_c)``; the
    single input enters the second state.  Both error states are measured.
    """

    eps: float
    dt: float = 0.1
    a_c: float = 0.5
    b_c: float = 0.025
    c_c: float = 0.5
    d_c: float = 0.005
    x_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(
            self, "x_bar", np.array([self.c_c / self.d_c, self.a_c / self.b_c])
        )

    @property
    def n(self) -> int:
        return 2

    @property
    def m(self) -> int:
        return 1

    @property
    def p(self) -> int:
        return 2

    def step(self, x, u):
        """One forward-Euler step: returns (x_next, y), y being the state before the step."""
        x = np.asarray(x, dtype=float).reshape(2)
        return lv_step(self, x, u), x

    def linear_model(self) -> LinearPlant:
        """The eps=1 linearization: exact at eps=1, a fixed-linearization baseline below."""
        return lv_linearized_plant(self)


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise variance (output units squared) and generator seed."""

    variance: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.variance < np.inf:
            raise ValueError("variance must be finite and nonnegative")


def rollout(plant, x0, u_seq):
    """Drive either plant from ``x0`` under the K x m inputs ``u_seq``.

    Returns ``(y_seq, x_final)``: the K x p noise-free outputs, y(k) measured
    as input k is applied, and the state after the last step.
    """
    x = x0
    y_seq = np.empty((len(u_seq), plant.p))
    for k, u in enumerate(u_seq):
        x, y_seq[k] = plant.step(x, u)
    return y_seq, x


def triple_mass_spring() -> LinearPlant:
    """Discrete triple-mass-spring benchmark: n=8 states, m=2 inputs, p=3 outputs.

    Three unit inertias on a shaft with unit torsional springs between
    neighbours; discs 1 and 3 are additionally coupled through unit springs to
    two motor shafts whose commanded positions follow the inputs with a
    first-order lag (unit time constant), the stepper-motor idiom of holding
    a commanded angle.  Uniform damping 0.05 on the rates, zero-order-hold
    discretization at 0.5 s.  Outputs are the three disc angles.  The motor
    springs ground the chain, so the plant is strictly stable (spectral
    radius ~0.988) and every mode is excited well above typical measurement
    noise in a 200-sample record.
    """
    k_spring = 1.0
    k_motor = 1.0
    damping = 0.05
    motor_tc = 1.0
    a_c = np.zeros((8, 8))
    a_c[0:3, 3:6] = np.eye(3)  # angle rates
    a_c[3:6, 0:3] = np.array(
        [
            [-(k_spring + k_motor), k_spring, 0.0],
            [k_spring, -2.0 * k_spring, k_spring],
            [0.0, k_spring, -(k_spring + k_motor)],
        ]
    )
    a_c[3:6, 3:6] = -damping * np.eye(3)
    a_c[3, 6] = k_motor  # motor 1 position pulls disc 1
    a_c[5, 7] = k_motor  # motor 2 position pulls disc 3
    a_c[6, 6] = -1.0 / motor_tc
    a_c[7, 7] = -1.0 / motor_tc
    b_c = np.zeros((8, 2))
    b_c[6, 0] = 1.0 / motor_tc
    b_c[7, 1] = 1.0 / motor_tc
    c = np.hstack([np.eye(3), np.zeros((3, 5))])
    d = np.zeros((3, 2))

    h = 0.5
    aug = np.zeros((10, 10))
    aug[:8, :8] = a_c * h
    aug[:8, 8:] = b_c * h
    exp_aug = scipy.linalg.expm(aug)
    return LinearPlant(a=exp_aug[:8, :8], b=exp_aug[:8, 8:], c=c, d=d)


def _lv_linear(plant: NonlinearPlant, x_hat, u_hat):
    x1, x2 = x_hat
    dt = plant.dt
    return np.array(
        [
            x1 + dt * (-plant.b_c * plant.x_bar[0] * x2),
            x2 + dt * (plant.d_c * plant.x_bar[1] * x1 + u_hat),
        ]
    )


def _lv_nonlinear(plant: NonlinearPlant, x_hat, u_hat):
    z1 = x_hat[0] + plant.x_bar[0]
    z2 = x_hat[1] + plant.x_bar[1]
    dt = plant.dt
    return np.array(
        [
            x_hat[0] + dt * (plant.a_c * z1 - plant.b_c * z1 * z2),
            x_hat[1] + dt * (plant.d_c * z1 * z2 - plant.c_c * z2 + u_hat),
        ]
    )


def lv_step(plant: NonlinearPlant, x_hat, u_hat: float) -> np.ndarray:
    """One forward-Euler step of the interpolated error dynamics."""
    x_hat = np.asarray(x_hat, dtype=float).reshape(2)
    u_hat = float(np.asarray(u_hat).reshape(()))
    x_next = plant.eps * _lv_linear(plant, x_hat, u_hat) + (1.0 - plant.eps) * (
        _lv_nonlinear(plant, x_hat, u_hat)
    )
    if not np.isfinite(x_next).all():
        raise PlantDiverged("state diverged to non-finite values")
    return x_next


def lv_linearized_plant(plant: NonlinearPlant) -> LinearPlant:
    """The LTI plant matching the eps=1 (fully linear) error dynamics."""
    dt = plant.dt
    a = np.array(
        [[1.0, -dt * plant.b_c * plant.x_bar[0]], [dt * plant.d_c * plant.x_bar[1], 1.0]]
    )
    b = np.array([[0.0], [dt]])
    return LinearPlant(a=a, b=b, c=np.eye(2), d=np.zeros((2, 1)))


def collect_trajectory(plant, length: int, excitation, noise: NoiseSpec) -> Trajectory:
    """Drive the plant with seeded uniform box excitation and record noisy outputs.

    Inputs are i.i.d. uniform over the excitation box ``(lo, hi)`` and are
    recorded noise-free; i.i.d. Gaussian noise of the given variance is added
    to every measured output sample.  All random draws come from one generator
    seeded with ``noise.seed`` (inputs first, then noise), so equal seeds give
    bit-identical trajectories.

    The rollout starts from the zero state (the equilibrium for the error
    dynamics).
    """
    m, p = plant.m, plant.p
    lo = np.broadcast_to(np.asarray(excitation[0], dtype=float), (m,))
    hi = np.broadcast_to(np.asarray(excitation[1], dtype=float), (m,))
    if np.any(lo > hi):
        raise ValueError("excitation box must satisfy lo <= hi")
    rng = seeded_generator(noise.seed)
    u_seq = lo + (hi - lo) * rng.random((length, m))
    w_seq = (
        np.sqrt(noise.variance) * standard_normal(rng, (length, p))
        if noise.variance > 0.0
        else np.zeros((length, p))
    )
    y_seq, _ = rollout(plant, np.zeros(plant.n), u_seq)
    return Trajectory(u_d=u_seq, y_d=y_seq + w_seq)


def save_plant_csv(plant: LinearPlant, directory, prefix: str = "plant") -> list[str]:
    """Dump the A, B, C, D blocks as CSV matrix files; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, mat in (("A", plant.a), ("B", plant.b), ("C", plant.c), ("D", plant.d)):
        path = directory / f"{prefix}_{name}.csv"
        np.savetxt(path, mat, fmt="%.17g", delimiter=",")
        paths.append(str(path))
    return paths
