"""Seeded CLI call streams for the benchmark workloads.

Each workload is an endless stream of rounds.  A round is a fixed mix of
calls (the same verbs and grid sizes every round) whose parameters are drawn
from a ``random.Random`` seeded by ``--seed``, then shuffled.  Keeping the
mix fixed keeps the latency percentiles inside one call class from seed to
seed; the draws vary what each call computes.

The draws deliberately cover the regimes the model treats specially:
``nu = 0`` (pure-state rows), ``q`` up to 0.9999, sudden-death crossings
(concurrence reaching 0 at ``1 - q ~ nu**2``) and the theta endpoints 0,
pi/4 and pi/2.  ``nu`` stays below 0.1 so that no call prints the
weak-coupling warning.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

Q_MAX = 0.9999
HALF_PI = math.pi / 2
THETA_TOKENS = {
    "pi/3": math.pi / 3,
    "pi/4": math.pi / 4,
    "pi/5": math.pi / 5,
    "pi/8": math.pi / 8,
}

SWEEP_STEPS = 2000        # a q sweep of the size the figure presets use
THETA_STEPS = 2001        # odd, so pi/4 is the middle grid point
ORACLE_STEPS = 1000
PEAKS_Q_PER_ROUND = 9
PEAKS_THETA_PER_ROUND = 8
STATES_PER_ROUND = 3


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the reference checker needs to judge it.

    ``points`` is the number of parameter points the output carries: grid
    rows for ``sweep``/``figure``, the grid size for ``check`` and one for
    ``peak``/``state``.
    """

    argv: tuple[str, ...]
    points: int
    spec: dict

    @property
    def verb(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(float(x))  # round-trips exactly, so the checker sees the same double


def _theta(rng: random.Random) -> tuple[str, float]:
    r = rng.random()
    if r < 0.1:
        return "0.0", 0.0
    if r < 0.2:
        return "pi/4", THETA_TOKENS["pi/4"]
    if r < 0.3:
        return _num(HALF_PI), HALF_PI
    if r < 0.45:
        token = rng.choice(sorted(THETA_TOKENS))
        return token, THETA_TOKENS[token]
    x = rng.uniform(0.0, HALF_PI)
    return _num(x), x


def _interior_theta(rng: random.Random) -> tuple[str, float]:
    """A theta with concurrence well above 0 at small q, so a q sweep crosses death."""
    if rng.random() < 0.3:
        return "pi/4", THETA_TOKENS["pi/4"]
    x = rng.uniform(0.15, HALF_PI - 0.15)
    return _num(x), x


def _q(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.15:
        return 0.0
    if r < 0.3:
        return Q_MAX
    return rng.uniform(0.0, Q_MAX)


def _nu(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 0.1)


def _sweep(variable, lo, hi, steps, theta, nu, q, oracle=False) -> Call:
    text, value = theta
    argv = ["sweep", "--variable", variable, "--min", _num(lo), "--max", _num(hi),
            "--steps", str(steps), "--theta", text, "--nu", _num(nu)]
    if variable == "theta":
        argv += ["--q", _num(q)]
    if oracle:
        argv.append("--oracle")
    spec = dict(kind="sweep", variable=variable, lo=lo, hi=hi, steps=steps,
                theta=value, nu=nu, q=q)
    return Call(tuple(argv), steps, spec)


def _pure_q_sweep(rng, steps, oracle=False) -> Call:
    lo = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
    return _sweep("q", lo, Q_MAX, steps, _theta(rng), 0.0, 0.0, oracle)


def _death_q_sweep(rng, steps, oracle=False) -> Call:
    # C = 0 at 1 - q = nu**2 sqrt(q): with nu >= 0.02 that is below q = 0.9996.
    lo = rng.uniform(0.0, 0.9)
    return _sweep("q", lo, Q_MAX, steps, _interior_theta(rng), rng.uniform(0.02, 0.1), 0.0, oracle)


def _theta_sweep(rng, steps, oracle=False) -> Call:
    return _sweep("theta", 0.0, HALF_PI, steps, ("0.0", 0.0), _nu(rng), _q(rng), oracle)


# The documented figure presets, as (variable, min, max, steps, theta, nu, q) sweeps.
FIGURES = {
    "fig1": [("q", 0.0, Q_MAX, 2000, t, 0.05, 0.0)
             for t in (math.pi / 3, math.pi / 4, math.pi / 5)],
    "fig2": [("theta", 0.0, HALF_PI, 721, 0.0, 0.05, qv) for qv in (0.0, 0.5, 0.8)],
    "fig3": [("q", 0.0, Q_MAX, 2000, math.pi / 4, 0.05, 0.0)],
}


def _figure(which: str) -> Call:
    points = sum(steps for _, _, _, steps, *_ in FIGURES[which])
    return Call(("figure", "--which", which), points, dict(kind="figure", which=which))


def _peak_q(rng) -> Call:
    text, theta = _theta(rng)
    nu = 0.0 if rng.random() < 0.1 else rng.uniform(0.01, 0.1)
    lo = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.9)
    hi = Q_MAX if rng.random() < 0.5 else rng.uniform(lo + 0.05, Q_MAX)
    argv = ("peak", "--variable", "q", "--theta", text, "--nu", _num(nu),
            "--min", _num(lo), "--max", _num(hi))
    return Call(argv, 1, dict(kind="peak", variable="q", theta=theta, nu=nu, q=0.0, lo=lo, hi=hi))


def _peak_theta(rng) -> Call:
    q, nu = _q(rng), _nu(rng)
    lo = 0.0 if rng.random() < 0.4 else rng.uniform(0.0, math.pi / 4)
    hi = HALF_PI if rng.random() < 0.4 else rng.uniform(math.pi / 4, HALF_PI)
    argv = ("peak", "--variable", "theta", "--q", _num(q), "--nu", _num(nu),
            "--min", _num(lo), "--max", _num(hi))
    return Call(argv, 1, dict(kind="peak", variable="theta", theta=0.0, nu=nu, q=q, lo=lo, hi=hi))


def _state(rng) -> Call:
    text, theta = _theta(rng)
    nu, q = _nu(rng), _q(rng)
    argv = ("state", "--theta", text, "--nu", _num(nu), "--q", _num(q))
    return Call(argv, 1, dict(kind="state", theta=theta, nu=nu, q=q))


def _sweep_closed_round(rng) -> list[Call]:
    return [
        _figure("fig1"), _figure("fig2"), _figure("fig3"),
        _pure_q_sweep(rng, SWEEP_STEPS),
        _death_q_sweep(rng, SWEEP_STEPS),
        _theta_sweep(rng, THETA_STEPS),
    ]


def _oracle_round(rng) -> list[Call]:
    return [
        Call(("check",), 13200, dict(kind="check")),
        _pure_q_sweep(rng, ORACLE_STEPS, oracle=True),
        _death_q_sweep(rng, ORACLE_STEPS, oracle=True),
        _theta_sweep(rng, ORACLE_STEPS + 1, oracle=True),
    ]


def _peak_scalar_round(rng) -> list[Call]:
    return (
        [_peak_q(rng) for _ in range(PEAKS_Q_PER_ROUND)]
        + [_peak_theta(rng) for _ in range(PEAKS_THETA_PER_ROUND)]
        + [_state(rng) for _ in range(STATES_PER_ROUND)]
    )


WORKLOADS = {
    "sweep-closed": _sweep_closed_round,
    "oracle": _oracle_round,
    "peak-scalar": _peak_scalar_round,
}

# Untimed first call of every run, so first-call costs stay out of the figures.
WARMUP = Call(("state",), 1, dict(kind="state", theta=math.pi / 4, nu=0.05, q=0.0))


def rounds(workload: str, seed: int) -> Iterator[list[Call]]:
    """Endless, reproducible stream of shuffled rounds for ``workload``."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        calls = make(rng)
        rng.shuffle(calls)
        yield calls
